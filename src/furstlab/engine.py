"""Monte-Carlo core: boundary-direction sampling via the first-passage
stopping rule, Lyapunov exponent estimators, the first-letter conditional
entropy ladder, and dimension estimators.

All samplers are pure functions of (system, parameters, seed) and are
block-deterministic: output is bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ._parallel import (TAG_BOUNDARY, TAG_DIM, TAG_LYAPUNOV, block_rng,
                        run_blocks)
from .dyadic import (C_INF, CP1, DyadicLevels, EmpiricalMeasure,
                     canonicalize_rows, cell_entropy, shannon_entropy,
                     sphere_embedding)
from .errors import (ConfigError, FloatOverflowError, StallError,
                     UndersampledError)
from .sl2 import TAU_SVD
from .words import (STALL_CHECK_STEPS, STALL_CHI_FRACTION, System,
                    draw_letters, letter_steps)

# sample_boundary stops once chi_u > 2 * DEFAULT_TARGET_BITS = 60, where
# ||g||^-2 < 2^-60: against a stop at 80 the points move by at most 1.1e-13
# (twist, 10^6 points) and no cell label moves at levels 2 to 16
DEFAULT_TARGET_BITS = 30.0
MAX_BOUNDARY_LETTERS = 4096      # sample_boundary stalls past this many
RENORM_EVERY = 8                 # steps between a lazy walk's renorms
CONSISTENT_FACTOR = 2.0          # Lyapunov estimators agree within this many
                                 # summed standard errors
MIN_BIN_COUNT = 20.0             # Delta level undersampled below this median
LOCAL_DIM_RADII = tuple(2.0 ** -k for k in range(4, 13))   # decreasing
MIN_BALL_COUNT = 8               # local_dimension drops balls holding fewer
DIM_SCHEMES = ("entropy-slope", "local-dimension")   # dim_estimate's schemes


@dataclass(frozen=True)
class EstimateWithCI:
    value: float
    stderr: float
    trials: int
    method: str


# ---------------------------------------------------------------------------
# batched SL(2,C) walk kernel
# ---------------------------------------------------------------------------

def _top_directions(a, b, c, d) -> Tuple[np.ndarray, np.ndarray]:
    """Components of a vector spanning the top left-singular direction of
    each matrix [[a, b], [c, d]] (eigenvector of m m* for the top
    eigenvalue); e1 on degenerate input.

    The eigenvector is taken from the columns of (H - lam_min I) with
    lam_min = det H / lam_max, which has no cancellation at large norms."""
    h11 = (np.abs(a) ** 2 + np.abs(b) ** 2).real
    h22 = (np.abs(c) ** 2 + np.abs(d) ** 2).real
    h12 = a * np.conj(c) + b * np.conj(d)
    tr = h11 + h22
    deth = h11 * h22 - np.abs(h12) ** 2
    lam = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * deth, 0.0)))
    lam_min = np.where(lam > 0, deth / np.maximum(lam, 1e-300), 0.0)
    v1a, v1b = (h11 - lam_min).astype(complex), np.conj(h12)
    v2a, v2b = h12, (h22 - lam_min).astype(complex)
    n1 = np.abs(v1a) ** 2 + np.abs(v1b) ** 2
    n2 = np.abs(v2a) ** 2 + np.abs(v2b) ** 2
    pick1 = n1 >= n2
    va = np.where(pick1, v1a, v2a)
    vb = np.where(pick1, v1b, v2b)
    norm = np.sqrt(np.abs(va) ** 2 + np.abs(vb) ** 2)
    degenerate = norm <= 1e-300
    return (np.where(degenerate, 1.0 + 0j, va), np.where(degenerate, 0j, vb))


def _dot(x0, y0, x1, y1) -> np.ndarray:
    """x0 y0 + x1 y1, with the sum formed in place: half the cost of the
    plain expression on these array sizes, and the same bits."""
    z = x0 * y0
    z += x1 * y1
    return z


class Walk:
    """A batch of random products, row i holding
    g_i = 2^log2s[i] [[a[i], b[i]], [c[i], d[i]]].

    The entries are four complex arrays, and a letter is applied by
    elementwise products with the generators' entries: numpy's matmul on a
    stack of complex 2x2 matrices makes one BLAS call per matrix, which
    costs tens of times more than the arithmetic.
    `renorm` divides by a power of two, which is exact: a lazy schedule,
    one renorm per RENORM_EVERY steps, gives the bits of a renorm after
    every step, as long as no entry overflows (`lazy_walk_top` checks this)
    or turns subnormal within the cadence, and the walk is renormalised
    before any test reads its entries (sig2 and the other reads are not
    scale-free to the bit)."""

    def __init__(self, gens: Tuple[np.ndarray, ...],
                 entries: Tuple[np.ndarray, ...],
                 log2s: Optional[np.ndarray] = None):
        self.gens = gens                   # generator entries, by letter
        self.a, self.b, self.c, self.d = entries
        self.log2s = np.zeros(len(self.a)) if log2s is None else log2s

    @classmethod
    def identity(cls, sys: System, n: int) -> "Walk":
        """n rows of the identity, over sys's generators."""
        ents = tuple(np.array(e, dtype=complex)
                     for e in zip(*(g.entries() for g in sys.generators)))
        one = np.ones(n, dtype=complex)
        zero = np.zeros(n, dtype=complex)
        return cls(ents, (one, zero, zero.copy(), one.copy()))

    def right(self, letters: np.ndarray) -> None:
        """g <- g gens[letters]."""
        e, f, g, h = (x[letters] for x in self.gens)
        a, b, c, d = self.entries()
        self.a, self.b = _dot(a, e, b, g), _dot(a, f, b, h)
        self.c, self.d = _dot(c, e, d, g), _dot(c, f, d, h)

    def right_steps(self, steps: Iterator[np.ndarray], count: int) -> None:
        """g <- g gens[w_1] ... gens[w_count] for the next `count` letter
        rows w_t of `steps`, renormalised every RENORM_EVERY steps and at
        the end."""
        for t in range(1, count + 1):
            self.right(next(steps))
            if t % RENORM_EVERY == 0 or t == count:
                self.renorm()

    def left(self, letters: np.ndarray) -> Tuple[np.ndarray, ...]:
        """g <- gens[letters] g; returns the letters' entries (e, f, g, h)."""
        sel = e, f, g, h = tuple(x[letters] for x in self.gens)
        a, b, c, d = self.entries()
        self.a, self.b = _dot(e, a, f, c), _dot(e, b, f, d)
        self.c, self.d = _dot(g, a, h, c), _dot(g, b, h, d)
        return sel

    def renorm(self) -> None:
        """Divide each product by the power of two near its max entry."""
        m = np.maximum(np.maximum(np.abs(self.a), np.abs(self.b)),
                       np.maximum(np.abs(self.c), np.abs(self.d)))
        e = np.frexp(m)[1].astype(float)
        scale = np.exp2(-e)
        for x in (self.a, self.b, self.c, self.d):
            x *= scale
        self.log2s += e

    def rows(self, sel: np.ndarray) -> "Walk":
        """A new walk holding the selected rows (index or mask)."""
        return Walk(self.gens, tuple(x[sel] for x in self.entries()),
                    self.log2s[sel])

    def entries(self) -> Tuple[np.ndarray, ...]:
        return (self.a, self.b, self.c, self.d)

    def sig2(self, s: Optional[np.ndarray] = None) -> np.ndarray:
        """Squared top singular value of [[a, b], [s c, s d]] (s = 1 if
        not given); |det| at norm one, by the rule of `sl2.sigma2`."""
        a, b, c, d = self.entries()
        if s is not None:
            c, d = c * s, d * s
        f2 = np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2
        adet = np.abs(a * d - b * c)
        sig2 = 0.5 * (f2 + np.sqrt(np.maximum(f2 * f2 - 4.0 * adet ** 2, 0.0)))
        return np.where(f2 - 2.0 * adet < TAU_SVD * adet, adet, sig2)

    def log2_opnorm(self, s: Optional[np.ndarray] = None) -> np.ndarray:
        """log2 ||diag(1, s) g|| (s = 1 if not given)."""
        return self.log2s + 0.5 * np.log2(self.sig2(s))

    def right_frame(self) -> Tuple[np.ndarray, ...]:
        """Entries of V* for g = U diag(s1, s2) V*: unitary rows v1*, v2*,
        with v1 the top right-singular direction (top left-singular
        direction of g*)."""
        va, vb = _top_directions(np.conj(self.a), np.conj(self.c),
                                 np.conj(self.b), np.conj(self.d))
        norm = np.sqrt(np.abs(va) ** 2 + np.abs(vb) ** 2)
        va, vb = va / norm, vb / norm
        return (np.conj(va), np.conj(vb), -vb, va)

    def frame_distance_ratio(self, s: np.ndarray) -> np.ndarray:
        """r = d(e1, L(diag(1, s) g)) / s for each row, where L is the top
        left-singular direction and s >= 0 may be far below 2^-52.

        With rows r1, r2 of g, H = diag(1, s) g g* diag(1, s) has diagonal
        p = |r1|^2, t = s^2 |r2|^2 and off-diagonal s <r1, r2>; its top
        eigenvector is (lam_max - t, s <r2, r1>), so with c = |<r1, r2>|,
        r = c / |(lam_max - t, s c)|. lam_max - t is formed from
        non-negative terms only, so r keeps relative precision however small
        s is and however close to rank one g is."""
        p = np.abs(self.a) ** 2 + np.abs(self.b) ** 2
        t = s * s * (np.abs(self.c) ** 2 + np.abs(self.d) ** 2)
        c = np.abs(self.a * np.conj(self.c) + self.b * np.conj(self.d))
        q2 = (s * c) ** 2
        half = 0.5 * (p - t)
        root = np.sqrt(half * half + q2)
        with np.errstate(divide="ignore", invalid="ignore"):
            lead = np.where(half >= 0, half + root, q2 / (root - half))
            return np.where(c > 0, c / np.sqrt(lead * lead + q2), 0.0)


def lazy_walk_top(sys: System) -> float:
    """top = max_i log2 ||g_i||, after checking that a walk renormalised
    every RENORM_EVERY steps stays in the float range.

    After a renorm every entry is below 1, so a product's norm is below 2
    and a vector carried along has norm 1; RENORM_EVERY steps multiply
    either by at most 2^(RENORM_EVERY top). Squared entries then stay below
    2^(2 (RENORM_EVERY top + 1)), which must stay below 2^1024, past the
    largest float."""
    top = max(math.log2(g.op_norm()) for g in sys.generators)
    if not 2.0 * (RENORM_EVERY * top + 1.0) < 1024.0:
        raise FloatOverflowError(
            f"generators of log2 norm up to {top:.6g} overflow a walk "
            f"renormalised every {RENORM_EVERY} steps")
    return top


# ---------------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------------

@dataclass
class BoundaryCloud:
    system: System                     # the system that was sampled
    measure: EmpiricalMeasure          # cp1
    first_letters: np.ndarray          # (N,) int
    stop_chi: np.ndarray               # (N,) chi at the stopping time
    steps: np.ndarray                  # (N,) stopping lengths


def sample_boundary(sys: System, target_bits: float = DEFAULT_TARGET_BITS,
                    count: int = 100_000, seed: int = 0,
                    workers: int = 1) -> BoundaryCloud:
    """Draw `count` boundary directions L(g_{w|T}) where T is the first time
    chi exceeds 2*target_bits (adaptive stopping keyed to the norm cocycle).

    The truncation error is exponentially small in target_bits; raises
    ConfigError when target_bits is not positive and finite, and StallError
    when the norm cocycle fails to grow (non-proximal input).
    """
    if not 0.0 < target_bits < math.inf:     # NaN fails as well
        raise ConfigError(f"target_bits must be positive and finite, "
                          f"got {target_bits}")
    probs = sys.probs_array()
    chi_goal = 2.0 * target_bits

    def block(start: int, n: int, index: int):
        rng = block_rng(seed, TAG_BOUNDARY, index)
        walk = Walk.identity(sys, n)
        live = np.arange(n)                # original row of each walk row
        out = np.empty((4, n), dtype=complex)
        first = np.full(n, -1, dtype=np.int64)
        chi_stop = np.zeros(n)
        steps = np.zeros(n, dtype=np.int64)
        for step in range(MAX_BOUNDARY_LETTERS):
            # one draw per row, retired rows included, keeps the streams
            letters = draw_letters(rng, probs, n)
            if step == 0:
                first[:] = letters
            if not len(live):
                break
            walk.right(letters[live])
            walk.renorm()
            # every entry is below 1 after renorm, so chi <= 2 log2s + 2
            near = np.flatnonzero(2.0 * walk.log2s + 2.0 > chi_goal)
            chi = 2.0 * walk.rows(near).log2_opnorm()
            passed = chi > chi_goal
            if passed.any():
                gone = near[passed]            # walk rows that retire
                done = walk.rows(gone)
                fin = live[gone]
                out[:, fin] = done.entries()
                chi_stop[fin] = chi[passed]
                steps[fin] = step + 1
                keep = np.ones(len(live), dtype=bool)
                keep[gone] = False
                walk = walk.rows(keep)
                live = live[keep]
            if step + 1 == STALL_CHECK_STEPS:
                # chi of the live rows, and of the retired ones at their stop
                chi_max = max(chi_stop.max(), 2.0 * walk.log2_opnorm().max(
                    initial=-math.inf))
                if chi_max < STALL_CHI_FRACTION * chi_goal:
                    raise StallError("norm cocycle is not growing; "
                                     "system looks non-proximal")
        if len(live):
            raise StallError(f"chi failed to pass {chi_goal:.1f} "
                             f"within {MAX_BOUNDARY_LETTERS} letters")
        rows = np.stack(_top_directions(*out), axis=1)
        return (canonicalize_rows(rows), first, chi_stop, steps)

    parts = run_blocks(block, count, workers)
    rows = np.concatenate([p[0] for p in parts])
    first = np.concatenate([p[1] for p in parts])
    chi_stop = np.concatenate([p[2] for p in parts])
    steps = np.concatenate([p[3] for p in parts])
    measure = EmpiricalMeasure(CP1, rows, np.full(count, 1.0 / count))
    return BoundaryCloud(sys, measure, first, chi_stop, steps)


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovEstimate:
    op_norm: EstimateWithCI        # (1/n) log2 ||g_{w|n}||_op, trial mean
    telescoped: EstimateWithCI     # vector-norm growth along the orbit

    @property
    def value(self) -> float:
        return self.op_norm.value

    def consistent(self) -> bool:
        gap = abs(self.op_norm.value - self.telescoped.value)
        return gap <= CONSISTENT_FACTOR * (self.op_norm.stderr
                                           + self.telescoped.stderr)


def _jackknife_mean(x: np.ndarray) -> Tuple[float, float]:
    n = len(x)
    mean = float(np.mean(x))
    if n < 2:
        return mean, 0.0
    tot = x.sum()
    loo = (tot - x) / (n - 1)
    var = (n - 1) / n * np.sum((loo - loo.mean()) ** 2)
    return mean, float(math.sqrt(var))


def lyapunov_estimate(sys: System, n: int = 10_000, trials: int = 1000,
                      seed: int = 0, workers: int = 1) -> LyapunovEstimate:
    """Two estimators from the same paths: normalized log operator norm of
    the product (primary), and telescoped vector-norm growth along the orbit
    of e1 (recorded for cross-checking). Jackknife standard errors."""
    if n < 1:
        raise UndersampledError(f"lyapunov_estimate needs n >= 1, got {n}")
    lazy_walk_top(sys)
    probs = sys.probs_array()

    def block(start: int, m: int, index: int):
        rng = block_rng(seed, TAG_LYAPUNOV, index)
        walk = Walk.identity(sys, m)
        v0 = np.ones(m, dtype=complex)     # the orbit of e1
        v1 = np.zeros(m, dtype=complex)
        vlog = np.zeros(m)
        for step, letters in zip(range(n), letter_steps(rng, probs, m)):
            # reversed composition order: g_{w|n} = w_n ... w_1
            e, f, g, h = walk.left(letters)
            v0, v1 = _dot(e, v0, f, v1), _dot(g, v0, h, v1)
            if step % RENORM_EVERY == RENORM_EVERY - 1 or step == n - 1:
                walk.renorm()
                vn = np.sqrt(np.abs(v0) ** 2 + np.abs(v1) ** 2)
                vlog += np.log2(vn)
                v0 /= vn
                v1 /= vn
        return walk.log2_opnorm() / n, vlog / n

    parts = run_blocks(block, trials, workers, block_size=1024)
    a = np.concatenate([p[0] for p in parts])
    b = np.concatenate([p[1] for p in parts])
    am, ase = _jackknife_mean(a)
    bm, bse = _jackknife_mean(b)
    return LyapunovEstimate(
        EstimateWithCI(am, ase, trials, "op-norm/jackknife"),
        EstimateWithCI(bm, bse, trials, "telescoped-vector/jackknife"),
    )


# ---------------------------------------------------------------------------
# first-letter conditional entropy (boundary-information ladder)
# ---------------------------------------------------------------------------

@dataclass
class DeltaLadder:
    rows: List[dict]        # per level q: estimate, bins, median count, flag
    letter_entropy: float
    samples: int

    def finest_well_sampled(self) -> dict:
        good = [r for r in self.rows if not r["undersampled"]]
        if not good:
            raise UndersampledError("no well-sampled level in the ladder")
        return good[-1]

    def estimate(self) -> EstimateWithCI:
        r = self.finest_well_sampled()
        return EstimateWithCI(r["delta"], r["stderr"], self.samples,
                              f"conditional-entropy@q={r['q']}")


def _conditional_letter_entropy(labels: np.ndarray, letters: np.ndarray,
                                k: int) -> float:
    """H(letter | cell) = H(joint) - H(cell) in bits, from integer cell
    labels."""
    w = np.full(len(letters), 1.0 / len(letters))
    h = cell_entropy(labels * k + letters, w)[0] - cell_entropy(labels, w)[0]
    return max(0.0, h)


def delta_ladder(cloud: BoundaryCloud, q_max: int,
                 levels: DyadicLevels) -> DeltaLadder:
    """Ladder of conditional entropies of the first letter given the level-q
    cell of the boundary direction, q = 2..q_max, with standard errors over
    16 chunks of the cloud; `levels` holds the cloud's cells up to q_max.
    Levels whose median bin count falls below MIN_BIN_COUNT are flagged
    undersampled. The median is sample-weighted: the bin count seen by the
    median sample, so stray singleton bins do not dominate."""
    sys = cloud.system
    letters = cloud.first_letters
    n = len(letters)
    step = max(1, n // 16)
    rows = []
    for q in range(2, q_max + 1):
        labels = levels.labels(q)
        counts = np.bincount(labels)
        val = _conditional_letter_entropy(labels, letters, sys.size)
        bins = int(np.count_nonzero(counts))
        med = float(np.median(counts[labels]))
        sub = [_conditional_letter_entropy(labels[a:a + step],
                                           letters[a:a + step], sys.size)
               for a in range(0, n, step)]
        stderr = float(np.std(sub, ddof=1) / math.sqrt(len(sub))) if len(sub) > 1 else 0.0
        rows.append({"q": q, "delta": val, "stderr": stderr, "bins": bins,
                     "median_bin_count": med,
                     "undersampled": med < MIN_BIN_COUNT})
    return DeltaLadder(rows, shannon_entropy(sys.probs), n)


def delta_estimate(sys: System, q_max: int = 14, count: int = 200_000,
                   seed: int = 0, workers: int = 1,
                   target_bits: Optional[float] = None) -> DeltaLadder:
    """Sample a boundary cloud and return its Delta ladder (delta_ladder).
    Decreasing in q; the limit is the conditional entropy of the first
    letter given the full boundary point."""
    if target_bits is None:
        target_bits = max(DEFAULT_TARGET_BITS, float(2 * q_max))
    cloud = sample_boundary(sys, target_bits, count, seed, workers)
    return delta_ladder(cloud, q_max, DyadicLevels(cloud.measure, q_max))


# ---------------------------------------------------------------------------
# dimension estimators
# ---------------------------------------------------------------------------

def entropy_slope_dimension(m: EmpiricalMeasure | DyadicLevels,
                            window: Tuple[int, int]) -> EstimateWithCI:
    """Least-squares slope of H(m, D_n) against n over the window, dropping
    undersampled levels (occupied cells > N/10). `m` is an EmpiricalMeasure,
    whose levels are then sorted once (DyadicLevels), or the DyadicLevels of
    one that reach window[1]."""
    cells = m if isinstance(m, DyadicLevels) else DyadicLevels(m, window[1])
    levels = []
    ents = []
    for lev in range(window[0], window[1] + 1):
        rep = cells.entropy(lev)
        if rep.bias_note is not None:
            continue
        levels.append(lev)
        ents.append(rep.entropy)
    if len(levels) < 2:
        raise UndersampledError("entropy-slope window is empty after the "
                                "undersampling guard")
    x = np.asarray(levels, dtype=float)
    y = np.asarray(ents, dtype=float)
    if len(levels) >= 4:
        coef, cov = np.polyfit(x, y, 1, cov=True)
        slope = float(coef[0])
        stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
    else:
        slope = float(np.polyfit(x, y, 1)[0])
        stderr = 0.0
    return EstimateWithCI(slope, stderr, cells.size,
                          f"entropy-slope@[{levels[0]},{levels[-1]}]")


def local_dimension(m: EmpiricalMeasure, centers: int = 1000,
                    seed: int = 0) -> EstimateWithCI:
    """Regression of log2 mass of B(z, r) on log2 r over sampled centers.

    Radii whose balls hold fewer than MIN_BALL_COUNT samples are dropped per
    center; ball mass there is dominated by the center atom and would flatten
    the slope."""
    from scipy.spatial import cKDTree

    if m.space == CP1:
        pts = sphere_embedding(m.points)
    elif m.space == C_INF:
        if m.inf_mass() > 0:
            m = m.drop_infinity()
        pts = np.stack([m.points.real, m.points.imag], axis=1)
    else:
        raise ValueError("local dimension requires a sphere or plane measure")
    # a ball's mass is its count times the one weight of a sampled cloud
    w = m.weights
    if not np.ptp(w) <= 1e-15 * w.max():
        raise ConfigError("local dimension needs a measure of equal weights")

    rng = block_rng(seed, TAG_DIM, 0)
    idx = rng.choice(len(pts), size=min(centers, len(pts)), replace=False,
                     p=m.weights / m.weights.sum())
    tree = cKDTree(pts)
    logr = np.log2(LOCAL_DIM_RADII)
    count_table = np.zeros((len(idx), len(LOCAL_DIM_RADII)))
    for j, r in enumerate(LOCAL_DIM_RADII):
        count_table[:, j] = tree.query_ball_point(pts[idx], r,
                                                  return_length=True)
    mass_table = count_table * w[0]
    slopes = []
    for a in range(len(idx)):
        masses = mass_table[a]
        keep = (masses > 0) & (count_table[a] >= MIN_BALL_COUNT)
        if keep.sum() < 3:
            continue
        slopes.append(np.polyfit(logr[keep], np.log2(masses[keep]), 1)[0])
    if len(slopes) < 2:
        raise UndersampledError("not enough usable centers")
    slopes = np.asarray(slopes)
    return EstimateWithCI(float(slopes.mean()),
                          float(slopes.std(ddof=1) / math.sqrt(len(slopes))),
                          len(slopes), "local-dimension")


def dim_estimate(m: EmpiricalMeasure, scheme: str = "entropy-slope",
                 window: Tuple[int, int] = (2, 12), centers: int = 1000,
                 seed: int = 0) -> EstimateWithCI:
    """Dimension of an empirical measure by dyadic entropy slope or by
    local ball-mass regression."""
    if scheme == "entropy-slope":
        if m.size < 4 ** window[0]:
            raise UndersampledError("too few samples for the window")
        return entropy_slope_dimension(m, window)
    if scheme == "local-dimension":
        return local_dimension(m, centers=centers, seed=seed)
    raise ConfigError(f"unknown scheme {scheme!r}; known: {DIM_SCHEMES}")
