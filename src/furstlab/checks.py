"""Certification of the standing assumptions (strong irreducibility,
norm-unboundedness, absence of a fixed generalized circle), a finite-depth
probe of the Diophantine separation property, and exact computation of the
random walk entropy by grouping equal products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .dyadic import shannon_entropy
from .errors import (CapExceededError, FloatOverflowError, LogBranchError,
                     UndersampledError)
from .sl2 import (EXACT_IDENTITY, ExactMatrix, GaussianRational,
                  GroupElement, ProjPoint, E1, E2, dist_cp1, exact_matrix,
                  exact_mul, principal_log_norm, proj_act)
from .words import ScaledMatrix, System, draw_letters

TAU_EIG = 1e-9
TAU_SCALAR = 1e-12           # entrywise tolerance for "g is scalar"
TAU_CIRCLE_DET = 1e-12       # |det| of a Hermitian class read as zero
TAU_EQ = 1e-8                # float-mode products closer than this are equal
NORM_THRESHOLD_BITS = 32.0   # unboundedness passes at ||g||_op > 2^32
TRACE_SLACK = 1e-9
PROXIMALITY_DEPTH = 64       # compositions per proximality search
PROXIMALITY_TRIALS = 256     # random words per proximality search


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
# exact invariance of a candidate direction (quadratic extension over Q(i))
# ---------------------------------------------------------------------------

def _sqrt_fraction(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    pn, pd = f.numerator, f.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _sqrt_gaussian(d: GaussianRational) -> Optional[GaussianRational]:
    """Square root in Q(i) when it exists, else None."""
    if d.is_zero():
        return GaussianRational.of(0)
    if d.im == 0:
        r = _sqrt_fraction(d.re)
        if r is not None:
            return GaussianRational(r, Fraction(0))
        r = _sqrt_fraction(-d.re)
        if r is not None:
            return GaussianRational(Fraction(0), r)
        return None
    n2 = _sqrt_fraction(d.re * d.re + d.im * d.im)
    if n2 is None:
        return None
    x2 = (d.re + n2) / 2
    x = _sqrt_fraction(x2)
    if x is None or x == 0:
        return None
    y = d.im / (2 * x)
    cand = GaussianRational(x, y)
    return cand if cand * cand == d else None


# elements of Q(i)[X]/(X^2 - D) as pairs (p, q) meaning p + q*sqrt(D)
_Ext = Tuple[GaussianRational, GaussianRational]


def _ext_mul(u: _Ext, v: _Ext, d: GaussianRational) -> _Ext:
    return (u[0] * v[0] + u[1] * v[1] * d, u[0] * v[1] + u[1] * v[0])


def _ext_addsub(u: _Ext, v: _Ext, sign: int) -> _Ext:
    if sign > 0:
        return (u[0] + v[0], u[1] + v[1])
    return (u[0] - v[0], u[1] - v[1])


def _exact_invariant_direction(sys: System, which_root: int) -> Optional[bool]:
    """Exact check that an eigendirection of generator 0 is fixed by every
    generator. Returns True/False, or None when generator 0 is scalar."""
    a, b, c, d = sys.exact[0]
    if b.is_zero() and c.is_zero() and a == d:
        return None
    two = GaussianRational.of(2)
    four = GaussianRational.of(4)
    t = a + d
    disc = t * t - four                      # (2*delta)^2
    root = _sqrt_gaussian(disc)

    zero = GaussianRational.of(0)
    if root is not None:
        # eigenvalue rational in Q(i): verify with plain Q(i) arithmetic
        lam = (t + (root if which_root == 0 else -root)) / two
        if not c.is_zero():
            v1, v2 = lam - d, c
        elif not b.is_zero():
            v1, v2 = b, lam - a
        else:  # diagonal: eigendirections are the coordinate axes
            v1, v2 = (GaussianRational.of(1), zero) if which_root == 0 \
                else (zero, GaussianRational.of(1))
        for xa, xb, xc, xd in sys.exact:
            w1 = xa * v1 + xb * v2
            w2 = xc * v1 + xd * v2
            if not (w1 * v2 - w2 * v1).is_zero():
                return False
        return True

    # irrational eigenvalue: work in the field Q(i)[X]/(X^2 - disc), where
    # lambda = (t + X)/2 up to the root choice
    dd = disc
    sgn = GaussianRational.of(1 if which_root == 0 else -1)
    lam: _Ext = (t / two, sgn / two)
    if not c.is_zero():
        v1: _Ext = _ext_addsub(lam, (d, zero), -1)
        v2: _Ext = (c, zero)
    else:
        v1 = (b, zero)
        v2 = _ext_addsub(lam, (a, zero), -1)
    for xa, xb, xc, xd in sys.exact:
        w1 = _ext_addsub(_ext_mul((xa, zero), v1, dd), _ext_mul((xb, zero), v2, dd), 1)
        w2 = _ext_addsub(_ext_mul((xc, zero), v1, dd), _ext_mul((xd, zero), v2, dd), 1)
        cross = _ext_addsub(_ext_mul(w1, v2, dd), _ext_mul(w2, v1, dd), -1)
        if not (cross[0].is_zero() and cross[1].is_zero()):
            return False
    return True


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
        exact_hit = any(_exact_invariant_direction(sys, w) for w in (0, 1))
        if exact_hit and not out:
            out = [p for p in candidates
                   if all(dist_cp1(proj_act(g, p), p) <= 1e-6
                          for g in sys.generators)]
        elif not exact_hit and out and base is sys.generators[0]:
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

    def vec4(self) -> np.ndarray:
        return np.array([self.h11, self.h22, self.h12.real, self.h12.imag])

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
    x = m.reshape(-1, 1, 2, 2, 1, 2)     # [i, -, row, k, -, re/im]
    y = g.reshape(1, -1, 1, 2, 2, 2)     # [-, j, -, k, col, re/im]
    with np.errstate(over="ignore", invalid="ignore"):
        re = x[..., 0] * y[..., 0] - x[..., 1] * y[..., 1]
        im = x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0]
        out = np.stack((re[:, :, :, 0] + re[:, :, :, 1],
                        im[:, :, :, 0] + im[:, :, :, 1]), axis=-1)
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
    letters = None if sys.exact is None else list(map(exact_matrix, sys.exact))
    rows, weights = np.array([[1.0, 0, 0, 0, 0, 0, 1, 0]]), np.ones(1)
    exact = [EXACT_IDENTITY] if letters else None
    for n in range(1, n_max + 1):
        rows = _level_product(rows, gens)
        if letters is None and not np.isfinite(rows).all():
            raise FloatOverflowError(f"float products overflow at length {n}")
        weights = (weights[:, None] * probs[None, :]).ravel()
        exact = exact and [exact_mul(x, y) for x in exact for y in letters]
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


def diophantine_probe(sys: System, n_max: int,
                      cap: int = 2_000_000) -> DiophantineReport:
    """Minimum pairwise distance between distinct length-n products for each
    n <= n_max, with exact collisions counted separately, plus a log-linear
    fit of the separation decay rate."""
    rows: List[dict] = []
    collisions_total = 0
    branch_total = 0
    for n, reps, _, _ in _grouped_products(sys, n_max, cap):
        n_words = sys.size ** n
        grouped = [GroupElement(*z) for z in reps.view(complex).tolist()]
        n_distinct = len(grouped)
        collisions = n_words - n_distinct
        collisions_total += collisions

        min_sep = None
        branch_pairs = 0
        pair_count = 0
        for i in range(n_distinct):
            gi_inv = grouped[i].inverse()
            for j in range(i + 1, n_distinct):
                pair_count += 1
                try:
                    sep = principal_log_norm(gi_inv @ grouped[j])
                except LogBranchError:
                    # ratio on the log branch cut: such pairs are order-one
                    # separated (the cut sits at distance >= pi*sqrt(2) from
                    # the identity), so they never decide the minimum
                    branch_pairs += 1
                    continue
                if min_sep is None or sep < min_sep:
                    min_sep = sep
        branch_total += branch_pairs
        rows.append({"n": n, "words": n_words, "distinct": n_distinct,
                     "collisions": collisions, "pairs": pair_count,
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

    def h_at(self, n: int) -> float:
        for r in self.rows:
            if r[0] == n:
                return r[1]
        raise KeyError(n)


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
