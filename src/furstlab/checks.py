"""Certification of the standing assumptions (strong irreducibility,
norm-unboundedness, absence of a fixed generalized circle), a finite-depth
probe of the Diophantine separation property, and exact computation of the
random walk entropy by grouping equal products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .dyadic import shannon_entropy
from .errors import (CapExceededError, FloatOverflowError, LogBranchError,
                     UndersampledError)
from .sl2 import (EXACT_IDENTITY, ExactMatrix, GroupElement, NEG_AXIS_TOL,
                  ProjPoint, E1, E2, dist_cp1, exact_mul, principal_log_norm,
                  proj_act)
from .words import ScaledMatrix, System, draw_letters

TAU_EIG = 1e-9
TAU_SCALAR = 1e-12           # entrywise tolerance for "g is scalar"
TAU_CIRCLE_DET = 1e-12       # |det| of a Hermitian class read as zero
TAU_EQ = 1e-8                # float-mode products closer than this are equal
NORM_THRESHOLD_BITS = 32.0   # unboundedness passes at ||g||_op > 2^32
TRACE_SLACK = 1e-9
PROXIMALITY_DEPTH = 64       # compositions per proximality search
PROXIMALITY_TRIALS = 256     # random words per proximality search
SCREEN_SLAB_PAIRS = 1 << 13  # pairs per screen slab, about 3 MiB of arrays
SCREEN_REL = 1e-9            # relative error the screen's decisions survive
# The least pair's screened separation is at most this ratio above the least
# screened one: each of the two may be off by SCREEN_REL, in opposite senses.
SCREEN_NEAR = (1.0 + SCREEN_REL) / (1.0 - SCREEN_REL)
SCREEN_AMP = 1e5             # largest |delta| / |lam log lam| it decides
SCREEN_SEP_MAX = 1e150       # largest separation it decides: the scalar
                             # routine's squares overflow past about 1.3e154


# ---------------------------------------------------------------------------
# eigendirections
# ---------------------------------------------------------------------------

def _is_scalar(g: GroupElement) -> bool:
    return (abs(g.b) <= TAU_SCALAR and abs(g.c) <= TAU_SCALAR
            and abs(g.a - g.d) <= TAU_SCALAR)


def eig_directions(g: GroupElement) -> List[ProjPoint]:
    """Fixed directions of a non-scalar g: one for parabolic, two otherwise."""
    if _is_scalar(g):
        raise ValueError("scalar matrix fixes every direction")
    t = g.trace()
    disc = t * t * 0.25 - 1.0
    delta = disc ** 0.5
    out = []
    for lam in ({t * 0.5 + delta, t * 0.5 - delta} if abs(delta) > 1e-12
                else {t * 0.5}):
        v1 = (g.b, lam - g.a)
        v2 = (lam - g.d, g.c)
        v = v1 if abs(v1[0]) ** 2 + abs(v1[1]) ** 2 >= abs(v2[0]) ** 2 + abs(v2[1]) ** 2 else v2
        out.append(ProjPoint.from_vector(*v))
    # a near-parabolic pair can collapse to one direction after canonicalizing
    if len(out) == 2 and dist_cp1(out[0], out[1]) <= 1e-12:
        out = out[:1]
    return out


# ---------------------------------------------------------------------------
# exact common fixed direction
# ---------------------------------------------------------------------------

def _exact_common_direction(sys: System) -> bool:
    """Exact check that an eigenline of generator 0 is fixed by every
    generator; False when generator 0 is scalar.

    Works on the integer numerators M of generator 0, with trace t and
    eigenvalues (t +- r)/2, r^2 = t^2 - 4 D^2. The discriminant is a square
    in Q(i) exactly when it is one in Z[i]. Without a root the two eigenlines
    are Galois conjugates, so a rational X fixes one exactly when it fixes
    both, that is when X commutes with M. With a root (r = 0 included) the
    range of 2M - (t -+ r) I is the (t +- r)/2 eigenline (Cayley-Hamilton),
    so X fixes it exactly when (2M - (t +- r) I) X (2M - (t -+ r) I) = 0."""
    m = sys.exact[0]
    den, ar, ai, br, bi, cr, ci, dr, di = m
    if not (br or bi or cr or ci) and (ar, ai) == (dr, di):
        return False
    tr, ti = ar + dr, ai + di
    p, q = tr * tr - ti * ti - 4 * den * den, 2 * tr * ti
    n = math.isqrt(p * p + q * q)
    x, y = math.isqrt((n + p) // 2), math.isqrt((n - p) // 2)
    y = -y if q < 0 else y
    if (x * x - y * y, 2 * x * y) != (p, q):
        return all(exact_mul(m, g) == exact_mul(g, m) for g in sys.exact)

    def shifted(sr: int, si: int) -> ExactMatrix:
        # 2M - (t + s) I over the integers
        return (1, 2 * ar - tr - sr, 2 * ai - ti - si, 2 * br, 2 * bi,
                2 * cr, 2 * ci, 2 * dr - tr - sr, 2 * di - ti - si)

    plus, minus = shifted(x, y), shifted(-x, -y)
    return any(all(not any(exact_mul(exact_mul(u, g), v)[1:])
                   for g in sys.exact)
               for u, v in ((plus, minus), (minus, plus)))


# ---------------------------------------------------------------------------
# reducibility and strong irreducibility
# ---------------------------------------------------------------------------

def find_common_fixed_points(sys: System) -> List[ProjPoint]:
    """Directions fixed by every generator; candidates are the
    eigendirections of the first non-scalar generator."""
    base = next((g for g in sys.generators if not _is_scalar(g)), None)
    if base is None:
        # scalar action fixes everything; report the coordinate axes
        return [E1, E2]

    candidates = eig_directions(base)
    out = []
    for p in candidates:
        if all(dist_cp1(proj_act(g, p), p) <= TAU_EIG for g in sys.generators):
            out.append(p)

    if sys.exact and not _is_scalar(sys.generators[0]):
        # exact decision overrides borderline float verdicts; the float
        # candidates still supply the witness directions
        exact_hit = _exact_common_direction(sys)
        if exact_hit and not out:
            out = [p for p in candidates
                   if all(dist_cp1(proj_act(g, p), p) <= 1e-6
                          for g in sys.generators)]
        elif not exact_hit and out:
            out = []
    return out


@dataclass
class IrreducibilityReport:
    passes: bool
    fixed_points: List[ProjPoint]    # common fixed directions
    witness: Optional[List[ProjPoint]] = None
    all_elliptic: bool = False
    candidates_checked: int = 0


def check_strong_irreducibility(sys: System) -> IrreducibilityReport:
    """Search for an invariant set of size at most two.

    Candidates: common fixed points, and eigendirection pairs of every
    generator and pairwise product. Systems whose generators are all
    elliptic are flagged for manual review.
    """
    all_elliptic = all(
        abs(g.trace().imag) <= 1e-9 and abs(g.trace().real) <= 2.0 + 1e-9
        for g in sys.generators)

    fixed = find_common_fixed_points(sys)
    if fixed:
        return IrreducibilityReport(False, fixed, [fixed[0]], all_elliptic, 1)

    sources: List[GroupElement] = list(sys.generators)
    for i, gi in enumerate(sys.generators):
        for j, gj in enumerate(sys.generators):
            if i != j:
                sources.append(gi @ gj)

    checked = 0
    for src in sources:
        if _is_scalar(src):
            continue
        dirs = eig_directions(src)
        if len(dirs) != 2:
            continue
        p, q = dirs
        checked += 1
        invariant = True
        for g in sys.generators:
            gp, gq = proj_act(g, p), proj_act(g, q)
            keep = dist_cp1(gp, p) <= TAU_EIG and dist_cp1(gq, q) <= TAU_EIG
            swap = dist_cp1(gp, q) <= TAU_EIG and dist_cp1(gq, p) <= TAU_EIG
            if not (keep or swap):
                invariant = False
                break
        if invariant:
            return IrreducibilityReport(False, fixed, [p, q], all_elliptic,
                                        checked)

    return IrreducibilityReport(True, fixed, None, all_elliptic, checked)


# ---------------------------------------------------------------------------
# proximality (norm unboundedness) and strict proximality
# ---------------------------------------------------------------------------

@dataclass
class ProximalityReport:
    status: str                      # "pass" | "fail" | "inconclusive"
    max_log2_norm: float
    steps: int
    strict: bool
    strict_witness: Optional[Tuple[int, ...]] = None
    strict_trace: Optional[complex] = None


def check_proximality(sys: System, rng=None) -> ProximalityReport:
    """Greedy/random norm growth up to PROXIMALITY_DEPTH compositions, plus a
    search for a product with |trace| > 2 (a strictly contracting witness)."""
    if rng is None:
        rng = np.random.default_rng(0)
    gens = sys.generators

    # (a) unboundedness by greedy composition (squaring included)
    cur = max(gens, key=lambda g: g.frobenius2())
    cur_log2 = math.log2(cur.op_norm()) if cur.op_norm() > 1 else 0.0
    steps = 0
    while steps < PROXIMALITY_DEPTH and cur_log2 <= NORM_THRESHOLD_BITS:
        steps += 1
        cands = [cur @ cur] + [cur @ g for g in gens] \
            + [g @ cur for g in gens]
        nxt = max(cands, key=lambda g: g.frobenius2())
        nxt_log2 = math.log2(nxt.op_norm())
        if nxt_log2 <= cur_log2 + 1e-12:
            break
        cur, cur_log2 = nxt, nxt_log2

    if cur_log2 <= NORM_THRESHOLD_BITS:
        # greedy stalled; try random words with renormalized products
        for _ in range(PROXIMALITY_TRIALS):
            acc = ScaledMatrix.identity()
            for _step in range(PROXIMALITY_DEPTH):
                i = int(rng.integers(sys.size))
                acc = acc.times(gens[i])
                steps += 1
                cur_log2 = max(cur_log2, acc.log2_op_norm())
                if cur_log2 > NORM_THRESHOLD_BITS:
                    break
            if cur_log2 > NORM_THRESHOLD_BITS:
                break

    if cur_log2 > NORM_THRESHOLD_BITS:
        status = "pass"
    elif cur_log2 <= 1e-6:
        status = "fail"          # norms pinned at one (compact closure)
    else:
        status = "inconclusive"

    # (b) strict proximality: |trace| > 2 + slack among short products
    strict = False
    witness: Optional[Tuple[int, ...]] = None
    wtrace: Optional[complex] = None

    def consider(word: Tuple[int, ...], t: complex):
        nonlocal strict, witness, wtrace
        if abs(t) > 2.0 + TRACE_SLACK and (wtrace is None or abs(t) > abs(wtrace)):
            strict, witness, wtrace = True, word, t

    # every word up to length 12 while a level stays within 4096 products
    g_rows = rows = np.array([g.entries() for g in gens], complex).view(float)
    words: List[Tuple[int, ...]] = [(i,) for i in range(sys.size)]
    while True:
        z = rows.view(complex)
        for word, t in zip(words, (z[:, 0] + z[:, 3]).tolist()):
            consider(word, t)
        if len(words) * sys.size > 4096 or len(words[0]) >= 12:
            break
        rows = _level_product(rows, g_rows)
        words = [u + (i,) for u in words for i in range(sys.size)]
    for _ in range(PROXIMALITY_TRIALS):
        length = int(rng.integers(2, PROXIMALITY_DEPTH // 2))
        word = tuple(draw_letters(rng, sys.probs_array(), length).tolist())
        g = GroupElement.identity()
        for i in word:
            g = g @ gens[i]
            if g.frobenius2() > 1e100:
                break
        consider(word, g.trace())

    return ProximalityReport(status, cur_log2, steps, strict, witness, wtrace)


# ---------------------------------------------------------------------------
# fixed generalized circles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermitianClass:
    """Projective class of a Hermitian form [[h11, h12], [conj h12, h22]],
    normalized to max entry magnitude one. Negative determinant means the
    zero locus is a genuine circle (or line) on the sphere."""

    h11: float
    h22: float
    h12: complex
    det_sign: str                 # "negative" | "zero" | "positive"

    def det(self) -> float:
        return self.h11 * self.h22 - abs(self.h12) ** 2


@dataclass
class CircleFamily:
    classes: List[HermitianClass]
    degenerate: bool = False      # a whole family of forms is fixed


def _vec4_to_class(v: np.ndarray) -> HermitianClass:
    v = np.asarray(v, dtype=float)
    k = int(np.argmax(np.abs(v)))
    v = v / v[k]                  # largest entry becomes +1
    v = v / np.max(np.abs(v))
    det = v[0] * v[1] - v[2] ** 2 - v[3] ** 2
    sign = ("zero" if abs(det) <= TAU_CIRCLE_DET
            else "negative" if det < 0 else "positive")
    return HermitianClass(float(v[0]), float(v[1]),
                          complex(v[2], v[3]), sign)


def _pullback_matrix(g: GroupElement) -> np.ndarray:
    """Real 4x4 matrix of H -> g* H g on the basis
    {E11, E22, E12+E21, i(E12-E21)} (coordinates h11, h22, Re h12, Im h12)."""
    basis = [
        ((1 + 0j, 0j), (0j, 0j)),
        ((0j, 0j), (0j, 1 + 0j)),
        ((0j, 1 + 0j), (1 + 0j, 0j)),
        ((0j, 1j), (-1j, 0j)),
    ]
    ga = g.adjoint()
    cols = []
    for (b11, b12), (b21, b22) in basis:
        # C = g* B g
        m11 = ga.a * b11 + ga.b * b21
        m12 = ga.a * b12 + ga.b * b22
        m21 = ga.c * b11 + ga.d * b21
        m22 = ga.c * b12 + ga.d * b22
        c11 = m11 * g.a + m12 * g.c
        c12 = m11 * g.b + m12 * g.d
        c22 = m21 * g.b + m22 * g.d
        cols.append([c11.real, c22.real, c12.real, c12.imag])
    return np.array(cols, dtype=float).T


def find_fixed_circles(sys: System) -> CircleFamily:
    """Hermitian classes fixed (projectively) by every generator's pullback.

    Candidates come from the real eigenvectors of a fixed random combination
    of the pullback matrices; each candidate is then verified against every
    generator. A joint eigenspace of dimension two or more is reported as a
    degenerate family.
    """
    mats = [_pullback_matrix(g) for g in sys.generators]

    if all(np.max(np.abs(m - np.eye(4))) <= TAU_EIG for m in mats):
        return CircleFamily([], degenerate=True)

    rng = np.random.default_rng(1234567)   # fixed: deterministic candidates
    combo = sum(c * m for c, m in zip(rng.standard_normal(len(mats)), mats))

    def passes(v: np.ndarray) -> bool:
        for m in mats:
            w = m @ v
            lam = float(v @ w) / float(v @ v)
            if np.linalg.norm(w - lam * v) > TAU_EIG * 100 * np.linalg.norm(m) * np.linalg.norm(v):
                return False
        return True

    vals, vecs = np.linalg.eig(combo)
    found: List[np.ndarray] = []
    for k in range(4):
        if abs(vals[k].imag) > 1e-8 * (1.0 + abs(vals[k])):
            continue
        v = vecs[:, k]
        v = v.real if np.linalg.norm(v.real) >= np.linalg.norm(v.imag) else v.imag
        n = np.linalg.norm(v)
        if n == 0:
            continue
        v = v / n
        if passes(v):
            if not any(min(np.linalg.norm(v - u), np.linalg.norm(v + u)) < 1e-6
                       for u in found):
                found.append(v)

    # degenerate family: two candidates share eigenvalues and mix freely
    degenerate = False
    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            mix = found[i] + found[j]
            mix = mix / np.linalg.norm(mix)
            if passes(mix):
                degenerate = True

    return CircleFamily([_vec4_to_class(v) for v in found], degenerate)


# ---------------------------------------------------------------------------
# product grouping (exact keys / tolerance clustering)
# ---------------------------------------------------------------------------

def _level_product(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows m[i] @ g[j], i major, of matrices stored as float rows (Re a,
    Im a, Re b, ..., Im d). One ufunc per step of CPython's complex product
    keeps the bits of `GroupElement.__matmul__`; numpy's complex multiply
    rounds differently."""
    x, y = m[:, None, :], g[None, :, :]
    out = np.empty((len(m), len(g), 8))
    with np.errstate(over="ignore", invalid="ignore"):
        for row in (0, 1):
            for col in (0, 1):
                # entry (row, col) = x[row, 0] y[0, col] + x[row, 1] y[1, col]
                u, v = 4 * row, 2 * col
                xr0, xi0, xr1, xi1 = (x[..., u + k] for k in range(4))
                yr0, yi0, yr1, yi1 = (y[..., v + k] for k in (0, 1, 4, 5))
                out[..., u + v] = ((xr0 * yr0 - xi0 * yi0)
                                   + (xr1 * yr1 - xi1 * yi1))
                out[..., u + v + 1] = ((xr0 * yi0 + xi0 * yr0)
                                       + (xr1 * yi1 + xi1 * yr1))
    return out.reshape(-1, 8)


def _first_seen(keys) -> Tuple[np.ndarray, np.ndarray]:
    """Each group's first index and each key's group, equal keys grouped
    and groups numbered by first appearance."""
    index: Dict[object, int] = {}
    labels = np.array([index.setdefault(k, len(index)) for k in keys],
                      dtype=np.intp)
    return np.unique(labels, return_index=True)[1], labels


def _group_products(mats: np.ndarray, weights: np.ndarray,
                    exact: Optional[List[ExactMatrix]]
                    ) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Group products with equal matrices: equal exact matrices when `exact`
    is given, float rows within TAU_EQ otherwise. Returns each group's first
    index (groups by first appearance), the group weights summed in product
    order, and an ambiguity flag (float mode only): some distinct
    representatives sit within [TAU_EQ, 10 TAU_EQ] of each other."""
    if exact is not None:
        first, labels = _first_seen(exact)
        return first, np.bincount(labels, weights), False

    # grid hash at resolution TAU_EQ, then merge straddling buckets
    from scipy.spatial import cKDTree

    first, labels = _first_seen(
        map(tuple, np.floor(mats / TAU_EQ + 0.5).tolist()))
    weights = np.bincount(labels, weights)
    while True:
        # nearest other representative, inf past 20 TAU_EQ; the bound only
        # prunes the search, so distances within it are an unbounded query's
        tree = cKDTree(mats[first])
        nearest = tree.query(tree.data, k=2,
                             distance_upper_bound=20 * TAU_EQ)[0][:, 1]
        pairs = (tree.query_pairs(r=TAU_EQ, output_type="ndarray").tolist()
                 if np.any(nearest <= 2 * TAU_EQ) else [])
        if not pairs:
            break
        # one merge suffices: representatives of distinct classes of the
        # pairs' transitive closure lie more than TAU_EQ apart
        labels = np.arange(len(first))
        for i, j in pairs:
            labels[labels == labels[j]] = labels[i]
        merged, labels = _first_seen(labels.tolist())
        first, weights = first[merged], np.bincount(labels, weights)
    ambiguous = bool(np.any((nearest >= TAU_EQ) & (nearest <= 10 * TAU_EQ)))
    return first, weights, ambiguous


def _grouped_products(sys: System, n_max: int, cap: int
                      ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, bool]]:
    """Yield (n, rows, weights, ambiguous) for n = 1..n_max: the distinct
    length-n float rows and summed weights of _group_products, each level
    expanded from the last one's representatives. Exact products are formed
    only in exact mode; a float-mode level past the float range raises."""
    if n_max < 1:
        raise UndersampledError(f"word products need n_max >= 1, got {n_max}")
    if sys.size ** n_max > cap:
        raise CapExceededError(f"|alphabet|^{n_max} exceeds cap={cap}")
    gens = np.array([g.entries() for g in sys.generators], complex).view(float)
    probs = sys.probs_array()
    rows, weights = np.array([[1.0, 0, 0, 0, 0, 0, 1, 0]]), np.ones(1)
    exact = None if sys.exact is None else [EXACT_IDENTITY]
    for n in range(1, n_max + 1):
        rows = _level_product(rows, gens)
        if exact is None and not np.isfinite(rows).all():
            raise FloatOverflowError(f"float products overflow at length {n}")
        weights = (weights[:, None] * probs[None, :]).ravel()
        exact = exact and [exact_mul(x, y) for x in exact for y in sys.exact]
        first, weights, ambiguous = _group_products(rows, weights, exact)
        rows, exact = rows[first], exact and [exact[k] for k in first]
        yield n, rows, weights, ambiguous


# ---------------------------------------------------------------------------
# Diophantine probe
# ---------------------------------------------------------------------------

@dataclass
class DiophantineReport:
    rows: List[dict]              # per n: separation, pair/collision counts
    fitted_c: Optional[float]
    collisions_total: int
    branch_pairs_total: int
    tau_eq: float = TAU_EQ        # serialised results record it

    def min_separation(self) -> Optional[float]:
        vals = [r["min_separation"] for r in self.rows
                if r["min_separation"] is not None]
        return min(vals) if vals else None


def _screen_ratios(m: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`principal_log_norm` of each matrix row of m (float rows as in
    `_level_product`) in numpy. Returns masks of the rows surely on the log
    branch cut and of the rows surely off it, past the near-parabolic
    switch, well conditioned and below SCREEN_SEP_MAX, with their screened
    separations.

    "Surely" means under a relative error of SCREEN_REL in each part of
    an eigenvalue: the trace and the discriminant carry the scalar
    routine's bits, and `np.sqrt` and `np.log` may differ from `cmath`'s
    by a few ulps."""
    with np.errstate(all="ignore"):
        ma, mb, mc, md = m.view(complex).T
        t = ma + md
        tr, ti = t.real, t.imag
        sq_r, sq_i = tr * tr - ti * ti, tr * ti + ti * tr
        disc = np.empty_like(t)              # t * t * 0.25 - 1.0
        disc.real = sq_r * 0.25 - 1.0
        disc.imag = sq_r * 0.0 + sq_i * 0.25
        delta = np.sqrt(disc)
        half_t = t * 0.5
        lam = half_t + delta
        on_cut = np.zeros(len(t), dtype=bool)
        off_cut = np.ones(len(t), dtype=bool)
        for ev in (lam, half_t - delta):
            re, im = np.abs(ev.real), np.abs(ev.imag)
            err_re = SCREEN_REL * (re + np.abs(delta.real))
            err_im = SCREEN_REL * (im + np.abs(delta.imag))
            on_cut |= ((ev.real < -err_re)
                       & (im + err_im <= NEG_AXIS_TOL * (re - err_re)))
            off_cut &= ((ev.real > err_re)
                        | (im - err_im > NEG_AXIS_TOL * (re + err_re)))
        abs_t, abs_delta = np.abs(t), np.abs(delta)
        parabolic = abs_delta < 1e-6 * abs_t
        log_lam = np.log(lam)
        b = log_lam / delta
        if parabolic.any():
            w2 = (2.0 * delta[parabolic] / t[parabolic]) ** 2
            b[parabolic] = ((2.0 / t[parabolic])
                            * (1.0 + w2 / 3.0 + w2 * w2 / 5.0))
        sep = np.abs(b) * np.sqrt(
            np.abs(ma - half_t) ** 2 + np.abs(mb) ** 2
            + np.abs(mc) ** 2 + np.abs(md - half_t) ** 2)
        # log(lam) turns an error in lam into one |delta| / |lam log lam|
        # times larger, relative to b
        clear = (off_cut & (sep < SCREEN_SEP_MAX)
                 & (np.abs(abs_delta - 1e-6 * abs_t)
                    > SCREEN_REL * (abs_delta + 1e-6 * abs_t))
                 & (parabolic | (abs_delta <= SCREEN_AMP * np.abs(lam)
                                 * np.abs(log_lam))))
    return on_cut, clear, sep


def _screen_pairs(reps: np.ndarray) -> Tuple[int, np.ndarray]:
    """Screen the ratios g_i^-1 g_j of every pair i < j of the float rows
    `reps`, SCREEN_SLAB_PAIRS pairs at a time. Returns the number of pairs
    surely on the log branch cut, and the flat indices i * N + j, in pair
    order, of the pairs `principal_log_norm` must evaluate: every pair the
    screen cannot decide, and every pair within SCREEN_NEAR of the least
    screened separation."""
    n = len(reps)
    inv = reps[:, [6, 7, 2, 3, 4, 5, 0, 1]] * [1, 1, -1, -1, -1, -1, 1, 1]
    rows_per_slab = max(1, SCREEN_SLAB_PAIRS // n)
    branch = 0
    best = math.inf
    confirm = [np.empty(0, dtype=np.int64)]
    near: List[Tuple[np.ndarray, np.ndarray]] = []
    for i0 in range(0, n - 1, rows_per_slab):
        # rows i0 <= i < i1 against columns j > i0; pairs need j > i
        i1 = min(i0 + rows_per_slab, n - 1)
        i, j = np.arange(i0, i1)[:, None], np.arange(i0 + 1, n)[None, :]
        key, upper = (i * n + j).ravel(), (j > i).ravel()
        on_cut, clear, sep = _screen_ratios(
            _level_product(inv[i0:i1], reps[i0 + 1:]))
        on_cut &= upper
        clear &= upper
        branch += int(np.count_nonzero(on_cut))
        confirm.append(key[upper & ~(on_cut | clear)])
        if clear.any():
            best = min(best, float(sep[clear].min()))
            keep = clear & (sep <= best * SCREEN_NEAR)
            near.append((key[keep], sep[keep]))
    confirm += [k[s <= best * SCREEN_NEAR] for k, s in near]
    return branch, np.sort(np.concatenate(confirm))


def diophantine_probe(sys: System, n_max: int,
                      cap: int = 2_000_000) -> DiophantineReport:
    """Minimum pairwise distance between distinct length-n products for each
    n <= n_max, with exact collisions counted separately, plus a log-linear
    fit of the separation decay rate.

    A numpy screen (`_screen_pairs`) picks the pairs that can decide the
    minimum or the branch count; `principal_log_norm` gives every reported
    value."""
    rows: List[dict] = []
    collisions_total = 0
    branch_total = 0
    for n, reps, _, _ in _grouped_products(sys, n_max, cap):
        n_words = sys.size ** n
        n_distinct = len(reps)
        collisions = n_words - n_distinct
        collisions_total += collisions

        min_sep = None
        branch_pairs, confirm = _screen_pairs(reps)
        z = reps.view(complex)
        for i, j in zip(*np.divmod(confirm, n_distinct)):
            gi, gj = (GroupElement(*z[k].tolist()) for k in (i, j))
            try:
                sep = principal_log_norm(gi.inverse() @ gj)
            except LogBranchError:
                # ratio on the log branch cut: such pairs are order-one
                # separated (the cut sits at distance >= pi*sqrt(2) from
                # the identity), so they never decide the minimum
                branch_pairs += 1
                continue
            except OverflowError as exc:
                raise FloatOverflowError(
                    f"pair separations overflow at length {n}") from exc
            if min_sep is None or sep < min_sep:
                min_sep = sep
        branch_total += branch_pairs
        rows.append({"n": n, "words": n_words, "distinct": n_distinct,
                     "collisions": collisions,
                     "pairs": n_distinct * (n_distinct - 1) // 2,
                     "branch_pairs": branch_pairs, "min_separation": min_sep})

    xs = [r["n"] for r in rows if r["min_separation"]]
    ys = [math.log(r["min_separation"]) for r in rows if r["min_separation"]]
    fitted_c = math.exp(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else None

    return DiophantineReport(rows, fitted_c, collisions_total, branch_total)


# ---------------------------------------------------------------------------
# random walk entropy
# ---------------------------------------------------------------------------

@dataclass
class EntropyTable:
    rows: List[Tuple[int, float, float]]   # (n, H_n bits, H_n / n)
    h_rw_estimate: float
    free: bool
    letter_entropy: float                  # H(p)
    ambiguity_warning: bool = False
    tau_eq: float = TAU_EQ                 # serialised results record it


def random_walk_entropy(sys: System, n_max: int,
                        cap: int = 2_000_000) -> EntropyTable:
    """H(X_1 ... X_n) for n <= n_max by exact grouping of equal products
    (TAU_EQ clustering in float mode). The estimate is the minimum of H_n/n
    over computed rows; when all products are distinct at n_max the walk is
    free at this depth and the estimate equals H(p)."""
    hp = shannon_entropy(sys.probs)
    rows: List[Tuple[int, float, float]] = []
    ambiguous = False
    free = True
    for n, _, weights, amb in _grouped_products(sys, n_max, cap):
        ambiguous = ambiguous or amb
        h_n = shannon_entropy(weights)
        rows.append((n, h_n, h_n / n))
        free = len(weights) == sys.size ** n

    h_est = hp if free else min(r[2] for r in rows)
    return EntropyTable(rows, h_est, free, hp, ambiguous)


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    reducible: bool
    fixed_points: List[ProjPoint]
    strongly_irreducible: bool
    irreducibility_witness: Optional[List[ProjPoint]]
    all_elliptic_flag: bool
    proximal_status: str
    proximality: ProximalityReport
    circles: CircleFamily

    @property
    def no_fixed_circle(self) -> bool:
        """No generalized circle is fixed: no degenerate family and no
        class with negative determinant."""
        return not (self.circles.degenerate or any(
            c.det_sign == "negative" for c in self.circles.classes))

    @property
    def zariski_dense(self) -> bool:
        return (self.strongly_irreducible and self.proximal_status == "pass"
                and self.no_fixed_circle)

    def to_dict(self) -> dict:
        def pp(p: ProjPoint):
            return [p.z1.real, p.z1.imag, p.z2.real, p.z2.imag]

        return {
            "reducible": self.reducible,
            "fixed_points": [pp(p) for p in self.fixed_points],
            "strongly_irreducible": self.strongly_irreducible,
            "irreducibility_witness":
                [pp(p) for p in self.irreducibility_witness]
                if self.irreducibility_witness else None,
            "all_elliptic_flag": self.all_elliptic_flag,
            "proximal": self.proximal_status,
            "strict_proximal": self.proximality.strict,
            "max_log2_norm": self.proximality.max_log2_norm,
            "fixed_circles": [
                {"h11": c.h11, "h22": c.h22,
                 "h12": [c.h12.real, c.h12.imag], "det_sign": c.det_sign}
                for c in self.circles.classes],
            "degenerate_circle_family": self.circles.degenerate,
            "zariski_dense": self.zariski_dense,
        }


def certify(sys: System) -> AssumptionReport:
    """Run all assumption checks and combine them into one report."""
    irr = check_strong_irreducibility(sys)
    prox = check_proximality(sys)
    return AssumptionReport(
        reducible=bool(irr.fixed_points),
        fixed_points=irr.fixed_points,
        strongly_irreducible=irr.passes,
        irreducibility_witness=irr.witness,
        all_elliptic_flag=irr.all_elliptic,
        proximal_status=prox.status,
        proximality=prox,
        circles=find_fixed_circles(sys),
    )
