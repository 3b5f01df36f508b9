"""Monte-Carlo core: boundary-direction sampling via the first-passage
stopping rule, Lyapunov exponent estimators, the first-letter conditional
entropy ladder, dimension estimators, and the grid-neighborhood mass probe.

All samplers are pure functions of (system, parameters, seed) and are
block-deterministic: output is bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._parallel import (TAG_BOUNDARY, TAG_DIM, TAG_LYAPUNOV, block_rng,
                        run_blocks)
from .dyadic import (C_INF, CP1, EmpiricalMeasure, canonicalize_rows,
                     shannon_entropy, sphere_embedding)
from .errors import StallError, UndersampledError
from .words import System

DEFAULT_TARGET_BITS = 40.0       # sample_boundary stops once chi_u > 2 * this


@dataclass(frozen=True)
class EstimateWithCI:
    value: float
    stderr: float
    trials: int
    method: str


# ---------------------------------------------------------------------------
# batched SL(2,C) kernels
# ---------------------------------------------------------------------------

def gen_stack(sys: System, transpose: bool = False) -> np.ndarray:
    gens = [g.transpose() if transpose else g for g in sys.generators]
    return np.array([[[g.a, g.b], [g.c, g.d]] for g in gens], dtype=complex)


def batch_renorm(mats: np.ndarray, log2s: np.ndarray) -> None:
    """In place: divide each matrix by a power of two near its max entry."""
    m = np.abs(mats).reshape(len(mats), 4).max(axis=1)
    e = np.frexp(m)[1].astype(float)
    np.multiply(mats, np.exp2(-e)[:, None, None], out=mats)
    log2s += e


def batch_sig2(mats: np.ndarray) -> np.ndarray:
    """Squared top singular value of each matrix."""
    f2 = (np.abs(mats) ** 2).reshape(len(mats), 4).sum(axis=1)
    det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    adet2 = np.abs(det) ** 2
    return 0.5 * (f2 + np.sqrt(np.maximum(f2 * f2 - 4.0 * adet2, 0.0)))


def batch_log2_opnorm(mats: np.ndarray, log2s: np.ndarray) -> np.ndarray:
    return log2s + 0.5 * np.log2(batch_sig2(mats))


def batch_top_directions(mats: np.ndarray) -> np.ndarray:
    """Rows spanning the top left-singular direction of each matrix
    (eigenvector of m m* for the top eigenvalue); e1 on degenerate input.

    The eigenvector is taken from the columns of (H - lam_min I) with
    lam_min = det H / lam_max, which has no cancellation at large norms."""
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
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
    va = np.where(degenerate, 1.0 + 0j, va)
    vb = np.where(degenerate, 0j, vb)
    return np.stack([va, vb], axis=1)


def batch_right_frame(mats: np.ndarray) -> np.ndarray:
    """V* of each matrix m = U diag(s1, s2) V*: unitary rows v1*, v2*, with
    v1 the top right-singular direction (top left-singular direction of m*)."""
    v = batch_top_directions(np.conj(np.swapaxes(mats, 1, 2)))
    v /= np.sqrt((np.abs(v) ** 2).sum(axis=1))[:, None]
    va, vb = v[:, 0], v[:, 1]
    return np.stack([np.stack([np.conj(va), np.conj(vb)], axis=1),
                     np.stack([-vb, va], axis=1)], axis=1)


def batch_frame_distance_ratio(tail: np.ndarray, s: np.ndarray) -> np.ndarray:
    """r = d(e1, L(diag(1, s) tail)) / s for each matrix, where L is the top
    left-singular direction and s >= 0 may be far below 2^-52.

    With rows r1, r2 of `tail`, H = diag(1, s) tail tail* diag(1, s) has
    diagonal p = |r1|^2, t = s^2 |r2|^2 and off-diagonal s <r1, r2>; its top
    eigenvector is (lam_max - t, s <r2, r1>), so with c = |<r1, r2>|,
    r = c / |(lam_max - t, s c)|. lam_max - t is formed from non-negative
    terms only, so r keeps relative precision however small s is and however
    close to rank one `tail` is."""
    r1, r2 = tail[:, 0, :], tail[:, 1, :]
    p = (np.abs(r1) ** 2).sum(axis=1)
    t = s * s * (np.abs(r2) ** 2).sum(axis=1)
    c = np.abs((r1 * np.conj(r2)).sum(axis=1))
    q2 = (s * c) ** 2
    half = 0.5 * (p - t)
    root = np.sqrt(half * half + q2)
    with np.errstate(divide="ignore", invalid="ignore"):
        lead = np.where(half >= 0, half + root, q2 / (root - half))
        return np.where(c > 0, c / np.sqrt(lead * lead + q2), 0.0)


def batch_apply(mats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Image rows m_i v_i (not canonicalized)."""
    return np.einsum("nij,nj->ni", mats, rows)


def draw_letters(rng: np.random.Generator, probs: np.ndarray,
                 size: int) -> np.ndarray:
    """Inverse-CDF letter draws; one uniform per letter."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(size), side="right")


# ---------------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------------

@dataclass
class BoundaryCloud:
    measure: EmpiricalMeasure          # cp1
    first_letters: np.ndarray          # (N,) int
    stop_chi: np.ndarray               # (N,) chi at the stopping time
    steps: np.ndarray                  # (N,) stopping lengths


def sample_boundary(sys: System, target_bits: float = DEFAULT_TARGET_BITS,
                    count: int = 100_000, seed: int = 0, workers: int = 1,
                    transpose: bool = False,
                    max_len: int = 4096) -> BoundaryCloud:
    """Draw `count` boundary directions L(g_{w|T}) where T is the first time
    chi exceeds 2*target_bits (adaptive stopping keyed to the norm cocycle).

    The truncation error is exponentially small in target_bits; raises
    StallError when the norm cocycle fails to grow (non-proximal input).
    """
    gens = gen_stack(sys, transpose=transpose)
    probs = sys.probs_array()
    chi_goal = 2.0 * target_bits

    def block(start: int, n: int, index: int):
        rng = block_rng(seed, TAG_BOUNDARY, index)
        mats = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
        log2s = np.zeros(n)
        first = np.full(n, -1, dtype=np.int64)
        alive = np.ones(n, dtype=bool)
        chi_stop = np.zeros(n)
        steps = np.zeros(n, dtype=np.int64)
        for step in range(max_len):
            letters = draw_letters(rng, probs, n)
            if step == 0:
                first[:] = letters
            if not alive.any():
                break
            sel = gens[letters[alive]]
            mats[alive] = np.matmul(mats[alive], sel)
            sub_logs = log2s[alive]
            sub = mats[alive]
            batch_renorm(sub, sub_logs)
            mats[alive] = sub
            log2s[alive] = sub_logs
            chi = 2.0 * batch_log2_opnorm(sub, sub_logs)
            done = chi > chi_goal
            idx = np.flatnonzero(alive)
            fin = idx[done]
            chi_stop[fin] = chi[done]
            steps[fin] = step + 1
            alive[fin] = False
            if step == 255 and log2s.max() * 2.0 < 0.02 * chi_goal:
                raise StallError("norm cocycle is not growing; "
                                 "system looks non-proximal")
        if alive.any():
            raise StallError(f"chi failed to pass {chi_goal:.1f} "
                             f"within {max_len} letters")
        rows = batch_top_directions(mats)
        return (canonicalize_rows(rows), first, chi_stop, steps)

    parts = run_blocks(block, count, workers)
    rows = np.concatenate([p[0] for p in parts])
    first = np.concatenate([p[1] for p in parts])
    chi_stop = np.concatenate([p[2] for p in parts])
    steps = np.concatenate([p[3] for p in parts])
    measure = EmpiricalMeasure(CP1, rows, np.full(count, 1.0 / count))
    return BoundaryCloud(measure, first, chi_stop, steps)


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

    def consistent(self, factor: float = 2.0) -> bool:
        gap = abs(self.op_norm.value - self.telescoped.value)
        return gap <= factor * (self.op_norm.stderr + self.telescoped.stderr)


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
    gens = gen_stack(sys)
    probs = sys.probs_array()

    def block(start: int, m: int, index: int):
        rng = block_rng(seed, TAG_LYAPUNOV, index)
        mats = np.tile(np.eye(2, dtype=complex), (m, 1, 1))
        log2s = np.zeros(m)
        vecs = np.zeros((m, 2), dtype=complex)
        vecs[:, 0] = 1.0
        vlog = np.zeros(m)
        for step in range(n):
            letters = draw_letters(rng, probs, m)
            sel = gens[letters]
            mats = np.matmul(sel, mats)           # reversed composition order
            vecs = batch_apply(sel, vecs)
            if step % 8 == 7 or step == n - 1:
                batch_renorm(mats, log2s)
                vn = np.sqrt(np.abs(vecs[:, 0]) ** 2 + np.abs(vecs[:, 1]) ** 2)
                vlog += np.log2(vn)
                vecs /= vn[:, None]
        a_vals = batch_log2_opnorm(mats, log2s) / n
        b_vals = vlog / n
        return a_vals, b_vals

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
                                k: int) -> Tuple[float, int, float]:
    """H(letter | cell) = H(joint) - H(cell) from integer cell labels;
    returns (value, bins, median per-sample bin count). The median is
    sample-weighted: the bin count seen by the median sample, so stray
    singleton bins do not dominate."""
    w = np.full(len(letters), 1.0 / len(letters))
    cell_mass = np.bincount(labels, weights=w)
    joint_mass = np.bincount(labels * k + letters, weights=w)
    counts = np.bincount(labels)
    h = shannon_entropy(joint_mass) - shannon_entropy(cell_mass)
    return (max(0.0, h), int(np.count_nonzero(counts)),
            float(np.median(counts[labels])))


def delta_ladder(cloud: BoundaryCloud, sys: System, q_max: int,
                 min_bin_count: float = 20.0) -> DeltaLadder:
    """Ladder of conditional entropies of the first letter given the level-q
    cell of the boundary direction, q = 2..q_max, with standard errors over
    16 chunks of the cloud. Levels whose median bin count falls below
    min_bin_count are flagged undersampled."""
    letters = cloud.first_letters
    n = len(letters)
    chunk_ids = np.arange(n) // max(1, n // 16)
    rows = []
    for q in range(2, q_max + 1):
        labels = cloud.measure.cell_labels(q)
        val, bins, med = _conditional_letter_entropy(labels, letters, sys.size)
        sub = []
        for c in range(int(chunk_ids.max()) + 1):
            m = chunk_ids == c
            v, _, _ = _conditional_letter_entropy(labels[m], letters[m],
                                                  sys.size)
            sub.append(v)
        stderr = float(np.std(sub, ddof=1) / math.sqrt(len(sub))) if len(sub) > 1 else 0.0
        rows.append({"q": q, "delta": val, "stderr": stderr, "bins": bins,
                     "median_bin_count": med,
                     "undersampled": med < min_bin_count})
    return DeltaLadder(rows, shannon_entropy(sys.probs), n)


def delta_estimate(sys: System, q_max: int = 14, count: int = 200_000,
                   seed: int = 0, workers: int = 1,
                   target_bits: Optional[float] = None,
                   min_bin_count: float = 20.0) -> DeltaLadder:
    """Sample a boundary cloud and return its Delta ladder (delta_ladder).
    Decreasing in q; the limit is the conditional entropy of the first
    letter given the full boundary point."""
    if target_bits is None:
        target_bits = max(DEFAULT_TARGET_BITS, float(2 * q_max))
    cloud = sample_boundary(sys, target_bits, count, seed, workers)
    return delta_ladder(cloud, sys, q_max, min_bin_count)


# ---------------------------------------------------------------------------
# dimension estimators
# ---------------------------------------------------------------------------

def entropy_slope_dimension(m: EmpiricalMeasure, window: Tuple[int, int],
                            guard: bool = True) -> EstimateWithCI:
    """Least-squares slope of H(m, D_n) against n over the window, dropping
    undersampled levels (occupied cells > N/10)."""
    levels = []
    ents = []
    for lev in range(window[0], window[1] + 1):
        rep = m.entropy(lev)
        if guard and rep.bias_note is not None:
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
    return EstimateWithCI(slope, stderr, m.size,
                          f"entropy-slope@[{levels[0]},{levels[-1]}]")


def local_dimension(m: EmpiricalMeasure, centers: int = 1000,
                    radii: Optional[Sequence[float]] = None,
                    seed: int = 0, min_ball_count: int = 8) -> EstimateWithCI:
    """Regression of log2 mass of B(z, r) on log2 r over sampled centers.

    Radii whose balls hold fewer than min_ball_count samples are dropped per
    center; ball mass there is dominated by the center atom and would flatten
    the slope."""
    from scipy.spatial import cKDTree

    if radii is None:
        radii = [2.0 ** (-k) for k in range(4, 13)]
    radii = sorted(radii, reverse=True)

    if m.space == CP1:
        pts = sphere_embedding(m.points)
    elif m.space == C_INF:
        if m.inf_mass() > 0:
            m = m.drop_infinity()
        pts = np.stack([m.points.real, m.points.imag], axis=1)
    else:
        raise ValueError("local dimension requires a sphere or plane measure")

    rng = block_rng(seed, TAG_DIM, 0)
    idx = rng.choice(len(pts), size=min(centers, len(pts)), replace=False,
                     p=m.weights / m.weights.sum())
    tree = cKDTree(pts)
    logr = np.log2(radii)
    w = m.weights
    uniform = bool(np.ptp(w) <= 1e-15 * w.max())
    mass_table = np.zeros((len(idx), len(radii)))
    count_table = np.zeros((len(idx), len(radii)))
    for j, r in enumerate(radii):
        counts = tree.query_ball_point(pts[idx], r, return_length=True)
        count_table[:, j] = counts
        if uniform:
            mass_table[:, j] = counts * w[0]
        else:
            for a, i in enumerate(idx):
                nb = tree.query_ball_point(pts[i], r)
                mass_table[a, j] = float(np.sum(w[nb]))
    slopes = []
    for a in range(len(idx)):
        masses = mass_table[a]
        keep = (masses > 0) & (count_table[a] >= min_ball_count)
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
                 radii: Optional[Sequence[float]] = None,
                 seed: int = 0) -> EstimateWithCI:
    """Dimension of an empirical measure by dyadic entropy slope or by
    local ball-mass regression."""
    if scheme == "entropy-slope":
        if m.size < 4 ** window[0]:
            raise UndersampledError("too few samples for the window")
        return entropy_slope_dimension(m, window)
    if scheme == "local-dimension":
        return local_dimension(m, centers=centers, radii=radii, seed=seed)
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# grid-neighborhood mass probe
# ---------------------------------------------------------------------------

def boundary_mass_probe(m: EmpiricalMeasure, delta: float, n: int) -> float:
    """Fraction of (finite) mass within delta * 2^-n of the level-n grid
    lines of the plane. Mass at infinity is excluded; read it off the
    measure via inf_mass()."""
    if m.space != C_INF:
        raise ValueError("probe needs a plane measure")
    if not (0.0 < delta < 0.5):
        raise ValueError("need 0 < delta < 1/2")
    finite = m.finite_mask()
    zs = m.points[finite]
    w = m.weights[finite]
    if w.sum() <= 0:
        return 0.0
    s = 2.0 ** n
    fx = zs.real * s
    fy = zs.imag * s
    rx = fx - np.floor(fx)
    ry = fy - np.floor(fy)
    near = (rx < delta) | (rx > 1.0 - delta) | (ry < delta) | (ry > 1.0 - delta)
    return float(np.sum(w[near]) / np.sum(w))
