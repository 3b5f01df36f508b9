"""Each major statement of the theory as a runnable, seeded experiment that
produces a verdict and a data table.

Every experiment is a pure function of its input (a system, or a boundary
cloud from `sample_boundary`, or a measure), parameters and seed; rerunning
with the same inputs yields byte-identical reports for any worker count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._parallel import TAG_COCYCLE, TAG_EXPERIMENT, block_rng, run_blocks
from .checks import certify, eig_directions, random_walk_entropy
from .dyadic import (CP1, DyadicLevels, EmpiricalMeasure, canonicalize_rows,
                     projection_entropies, sphere_embedding, sphere_to_plane)
from .engine import (DEFAULT_TARGET_BITS, RENORM_EVERY, BoundaryCloud, Walk,
                     delta_ladder, entropy_slope_dimension, lazy_walk_top,
                     local_dimension, lyapunov_estimate, sample_boundary)
from .errors import (ConfigError, LogBranchError, StallError,
                     UndersampledError)
from .reporting import (ExperimentReport, VERDICT_CONSISTENT,
                        VERDICT_INCONCLUSIVE, VERDICT_INCONSISTENT)
from .sl2 import (TAU_PHASE, GroupElement, ProjPoint, boundary_direction,
                  chart_g, chart_g_inverse, dist_g_proxy, mobius_derivative,
                  psi, INFINITY)
from .words import (System, draw_letters, letter_steps, product_of_word,
                    sample_word, scaled_product, scaled_step)

UNIFORM_MIN_FRACTION = 0.8     # uniform-entropy-dim: consistent at or above
CHAIN_CHECK_STRIDE = 16        # cocycle steps between chain-rule checks
MAX_COCYCLE_NET = 1 << 24      # direction-cocycle: most delta/2-net points
MIN_THETA_ENTROPY = 0.01       # entropy-increase: theta below is degenerate
TRANSFER_Z_SAMPLES = 48        # base points of action-entropy-transfer
LINEARIZATION_EPS_BITS = 0.1   # linearization: consistent below this gap


# ---------------------------------------------------------------------------
# finite atomic measures on the group, given in chart coordinates
# ---------------------------------------------------------------------------

@dataclass
class ThetaSpec:
    """Finite atomic measure on the group, near the identity."""

    atoms: List[GroupElement]
    weights: List[float]
    label: str

    @classmethod
    def identity_atom(cls) -> "ThetaSpec":
        return cls([GroupElement.identity()], [1.0], "identity-atom")

    @classmethod
    def from_chart(cls, coords: Sequence[Sequence[float]],
                   label: str = "chart-atoms") -> "ThetaSpec":
        atoms = [chart_g_inverse(c) for c in coords]
        return cls(atoms, [1.0 / len(atoms)] * len(atoms), label)

    @classmethod
    def four_ball_atoms(cls, spread: float = 0.08) -> "ThetaSpec":
        """Four well-separated atoms inside B(identity, ~2.5*spread)."""
        coords = [(spread, 0, 0, 0, 0, 0), (-spread, 0, 0, 0, 0, 0),
                  (0, 0, spread, 0, 0, 0), (0, 0, 0, 0, spread, 0)]
        return cls.from_chart(coords, label=f"four-ball-{spread:g}")

    @classmethod
    def translation_arc(cls, t_max: float = 0.5,
                        count: int = 4096) -> "ThetaSpec":
        ts = np.linspace(0.0, t_max, count)
        atoms = [GroupElement(1 + 0j, complex(t), 0j, 1 + 0j) for t in ts]
        return cls(atoms, [1.0 / count] * count, "translation-arc")

    @classmethod
    def lower_triangular_arc(cls, t_max: float = 0.5,
                             count: int = 4096) -> "ThetaSpec":
        ts = np.linspace(0.0, t_max, count)
        atoms = [GroupElement(1 + 0j, 0j, complex(t), 1 + 0j) for t in ts]
        return cls(atoms, [1.0 / count] * count, "lower-triangular-arc")

    def max_dist_to_identity(self) -> float:
        ident = GroupElement.identity()
        return max(dist_g_proxy(ident, a) for a in self.atoms)

    def chart_measure(self) -> EmpiricalMeasure:
        coords = np.array([chart_g(a) for a in self.atoms])
        return EmpiricalMeasure.on_group_chart(coords, np.array(self.weights))

    def chart_entropy(self, level: int) -> float:
        return self.chart_measure().entropy(level).entropy


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _plane_cloud(cloud) -> Tuple[EmpiricalMeasure, int, str]:
    """(finite plane measure, sample count, tag) of a boundary cloud or a
    measure."""
    if isinstance(cloud, BoundaryCloud):
        nu, tag = cloud.measure, cloud.system.tag()
    else:
        nu, tag = cloud, "measure"
    count = nu.size
    if nu.space == CP1:
        nu = sphere_to_plane(nu).drop_infinity()
    return nu, count, tag


def apply_atoms_to_sphere(measure: EmpiricalMeasure, theta: ThetaSpec,
                          seed: int) -> EmpiricalMeasure:
    """Pushforward of theta x measure under the action map (one random atom
    per sample point): the action convolution on the sphere."""
    rng = block_rng(seed, TAG_EXPERIMENT, 0)
    letters = draw_letters(rng, np.asarray(theta.weights), measure.size)
    rows = measure.points.copy()
    for k, g in enumerate(theta.atoms):
        mask = letters == k
        if not mask.any():
            continue
        m = np.array([[g.a, g.b], [g.c, g.d]])
        rows[mask] = rows[mask] @ m.T
    return EmpiricalMeasure(CP1, canonicalize_rows(rows), measure.weights)


# ---------------------------------------------------------------------------
# uniform entropy dimension
# ---------------------------------------------------------------------------

def exp_uniform_entropy_dim(cloud, m: int = 8,
                            levels: Tuple[int, int] = (2, 5),
                            eps: float = 0.25, seed: int = 0,
                            comps_per_level: int = 48,
                            min_component_points: int = 2000,
                            dim_hint: Optional[float] = None) -> ExperimentReport:
    """Fraction of level components whose normalized m-deeper entropy lies
    within eps of the measure's dimension (mass-weighted, averaged uniformly
    over levels); consistent when it reaches UNIFORM_MIN_FRACTION.

    Component entropy at m extra levels saturates below ~2^(m dim) points,
    so the level range must keep typical components above
    min_component_points; undersampled components are skipped and tracked.
    `cloud` is a BoundaryCloud or a measure; its size is reported as `count`.
    """
    nu, count, tag = _plane_cloud(cloud)

    window = (max(2, levels[0]), max(levels[1], levels[0] + 3))
    dim_est = entropy_slope_dimension(nu, window)
    dim_val = dim_hint if dim_hint is not None else dim_est.value

    rng = block_rng(seed, TAG_EXPERIMENT, 2)
    rows = []
    fractions = []
    unresolved_total = []
    for lev in range(levels[0], levels[1] + 1):
        comps = nu.components(lev)
        pick = rng.choice(len(comps), size=min(comps_per_level, 4 * len(comps)),
                          replace=True, p=comps.masses / comps.masses.sum())
        picked = pick.tolist()
        vals = {}                 # each distinct pick once; None: too small
        for k in dict.fromkeys(picked):
            comp = comps[k][1]
            vals[k] = (comp.entropy(lev + m).entropy / m
                       if comp.size >= min_component_points else None)
        resolved = [vals[k] for k in picked if vals[k] is not None]
        used = len(resolved)
        unresolved = len(picked) - used
        hits = sum(abs(v - dim_val) < eps for v in resolved)
        frac = hits / used if used else 0.0
        rows.append({"level": lev, "components": len(comps),
                     "sampled": int(len(pick)), "resolved": used,
                     "fraction": frac,
                     "unresolved_fraction": unresolved / len(pick)})
        fractions.append(frac)
        unresolved_total.append(unresolved / len(pick))

    fraction = float(np.mean(fractions))
    undersampled = float(np.mean(unresolved_total)) > 0.5
    verdict = (VERDICT_CONSISTENT if fraction >= UNIFORM_MIN_FRACTION
               else VERDICT_INCONSISTENT)
    return ExperimentReport(
        "uniform-entropy-dimension", tag,
        {"m": m, "levels": list(levels), "count": count, "eps": eps,
         "comps_per_level": comps_per_level,
         "min_fraction": UNIFORM_MIN_FRACTION},
        seed, rows,
        {"fraction": fraction, "dimension": dim_val,
         "dimension_stderr": dim_est.stderr},
        verdict, undersampled=undersampled)


# ---------------------------------------------------------------------------
# projection entropy of components
# ---------------------------------------------------------------------------

def _projected_entropy_min(comp: EmpiricalMeasure, level: int, m: int,
                           directions: int) -> Tuple[float, float]:
    """(min over the direction grid of (1/m) H(projection, D_{level+m}),
    argmin angle)."""
    best = math.inf
    best_angle = 0.0
    angles = [k * math.pi / directions for k in range(directions)]
    for ang, ent in zip(angles, projection_entropies(comp, level + m, angles)):
        h = ent / m
        if h < best:
            best, best_angle = h, ang
    return best, best_angle


def exp_projection_entropy(cloud, m: int = 8,
                           levels: Tuple[int, int] = (4, 10),
                           directions: int = 180, seed: int = 0,
                           comps_per_level: int = 24,
                           min_component_points: int = 64) -> ExperimentReport:
    """Distribution over mass-sampled components of the worst-direction
    normalized projection entropy; gamma-hat is its 5th percentile above
    dim - 1. `cloud` is a BoundaryCloud or a measure; its size is reported
    as `count`."""
    nu, count, tag = _plane_cloud(cloud)

    window = (2, max(8, levels[0] + 4))
    dim_est = entropy_slope_dimension(nu, window)

    rng = block_rng(seed, TAG_EXPERIMENT, 3)
    minima = []
    rows = []
    unresolved = 0
    sampled = 0
    for lev in range(levels[0], levels[1] + 1):
        comps = nu.components(lev)
        pick = rng.choice(len(comps), size=comps_per_level, replace=True,
                          p=comps.masses / comps.masses.sum())
        found = {}                # each distinct pick once
        for k in pick.tolist():
            sampled += 1
            if k not in found:
                mass, comp = comps[k]
                found[k] = (mass, comp.size,
                            _projected_entropy_min(comp, lev, m, directions)
                            if comp.size >= min_component_points else None)
            mass, size, res = found[k]
            if res is None:
                unresolved += 1
                continue
            val, ang = res
            minima.append(val)
            rows.append({"level": lev, "mass": mass, "points": size,
                         "min_entropy": val, "argmin_angle": ang})
    if len(minima) < 8:
        return ExperimentReport(
            "projection-entropy", tag,
            {"m": m, "levels": list(levels), "directions": directions,
             "count": count}, seed, rows, {"resolved": len(minima)},
            VERDICT_INCONCLUSIVE, undersampled=True)

    minima_arr = np.array(minima)
    p5 = float(np.percentile(minima_arr, 5))
    gamma = p5 - (dim_est.value - 1.0)
    stronger_gap = p5 - min(1.0, dim_est.value)
    undersampled = unresolved / max(1, sampled) > 0.5
    verdict = VERDICT_CONSISTENT if gamma > 0 else VERDICT_INCONSISTENT
    return ExperimentReport(
        "projection-entropy", tag,
        {"m": m, "levels": list(levels), "directions": directions,
         "count": count, "comps_per_level": comps_per_level},
        seed, rows,
        {"gamma_hat": gamma, "p5_min_entropy": p5, "dimension": dim_est.value,
         "dimension_stderr": dim_est.stderr, "resolved": len(minima),
         "stronger_bound_gap": stronger_gap,
         "mean_min_entropy": float(minima_arr.mean())},
        verdict, undersampled=undersampled)


# ---------------------------------------------------------------------------
# direction cocycle
# ---------------------------------------------------------------------------

@dataclass
class CocycleTrace:
    """Angles of the derivative cocycle along one path, with the tail
    boundary points approximated at a given bit level."""

    length: int
    angles: np.ndarray            # alpha_1 .. alpha_n in [0, pi)
    tail_bits: float
    max_chain_defect: float       # worst |direct - cumulative| angle gap
    pole_events: int


def _build_trace(sys: System, n: int, q_bits: float, rng,
                 fixed_point: Optional[ProjPoint] = None) -> CocycleTrace:
    """The cocycle along one path of n letters. The points, the angles and
    the chain-rule product are plain complex numbers, formed by the float
    operations of `proj_act` (with `ProjPoint.from_vector`), `psi` and
    `scaled_step`, in their order."""
    letters = draw_letters(rng, sys.probs_array(), n).tolist()
    if fixed_point is None:
        # tail boundary point: the first-passage word past chi = 2*q_bits
        tail = sample_word(sys, rng, first_passage=(0, 1, 2 * q_bits))
        fixed_point = boundary_direction(scaled_product(sys, tail).g)
    entries = [g.entries() for g in sys.generators]
    path = [entries[i] for i in letters]

    # backward pass: boundary points p_k = phi_{w_k}(p_{k+1}), kept as
    # charts[k] = psi(p_k) for k = 1..n
    z1, z2 = fixed_point.z1, fixed_point.z2
    charts = [None] * (n + 1)
    charts[n] = psi(fixed_point)
    for k in range(n - 1, 0, -1):
        a, b, c, d = path[k]
        x1, x2 = a * z1 + b * z2, c * z1 + d * z2
        norm = math.sqrt(abs(x1) ** 2 + abs(x2) ** 2)
        x1, x2 = x1 / norm, x2 / norm
        if abs(x1) > TAU_PHASE:
            z1, z2 = complex(abs(x1), 0.0), x2 * (x1.conjugate() / abs(x1))
        else:
            z1, z2 = 0j, complex(abs(x2), 0.0)
        charts[k] = INFINITY if z2 == 0 else z1 / z2

    # forward pass: cumulative derivative angles, checked every
    # CHAIN_CHECK_STRIDE steps against the renormalised product's own
    angles = []
    cum = 0.0
    pa, pb, pc, pd = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    max_defect = 0.0
    pole_events = 0
    for k in range(n):
        a, b, c, d = path[k]
        z = charts[k + 1]
        if z is INFINITY:
            step = 0.0          # convention: derivative direction is real
            pole_events += 1
        else:
            den = c * z + d
            if abs(den) < 1e-12:
                step = 0.0
                pole_events += 1
            else:
                step = cmath.phase(1.0 / (den * den))
        cum = math.fmod(cum + step, math.pi)
        if cum < 0:
            cum += math.pi
        angles.append(cum)
        (pa, pb, pc, pd), _ = scaled_step((pa, pb, pc, pd), path[k])
        if (k + 1) % CHAIN_CHECK_STRIDE == 0 and z is not INFINITY:
            dden = pc * z + pd
            if abs(dden) > 1e-12:
                ref = math.fmod(cmath.phase(1.0 / (dden * dden)), math.pi)
                if ref < 0:
                    ref += math.pi
                gap = abs(ref - cum)
                max_defect = max(max_defect, min(gap, math.pi - gap))
    if max_defect > 1e-6:
        raise RuntimeError(
            f"cocycle chain-rule defect {max_defect:.2e} exceeds 1e-6")
    return CocycleTrace(n, np.array(angles), q_bits, max_defect, pole_events)


def _ball_counts(angles: np.ndarray, delta: float) -> np.ndarray:
    """For each point c of a delta/2-net of [0, pi), the number of angles
    in the metric ball {a : |sin(a - c)| <= delta}; angles in [0, pi) and
    0 < delta < 1.

    A ball is three arcs, with alpha = asin(delta): |a - c| <= alpha, and
    a - c within alpha of pi or of -pi. They are counted on the sorted
    angles; an angle within `slack` of an arc end takes the sine test
    itself, so every count is that of the test on all the angles."""
    net = np.arange(0.0, math.pi, delta / 2.0)
    alpha = math.asin(delta)
    # rounding moves the sine test's edge by about an ulp / cos(alpha)
    slack = 1e-9 + 1e-14 / math.cos(alpha)
    s = np.sort(angles)
    ends = np.stack([net - alpha, net + alpha,
                     net + (math.pi - alpha), net + math.pi,
                     net - math.pi, net - (math.pi - alpha)], axis=1)
    # open arc cores, clear of every end by more than the slack
    counts = np.maximum(
        np.searchsorted(s, ends[:, 1::2] - slack, "left")
        - np.searchsorted(s, ends[:, 0::2] + slack, "right"), 0).sum(axis=1)
    # closed windows around the ends; near ends may share angles
    first = np.searchsorted(s, ends - slack, "left")
    last = np.searchsorted(s, ends + slack, "right")
    for j in np.flatnonzero((last > first).any(axis=1)):
        near = np.unique(np.concatenate(
            [np.arange(lo, hi) for lo, hi in zip(first[j], last[j])]))
        counts[j] += np.count_nonzero(np.abs(np.sin(s[near] - net[j]))
                                      <= delta)
    return counts


def _concentration_score(angles: np.ndarray, delta: float) -> float:
    """Max over a delta/2-net of the empirical mass of metric delta-balls."""
    return float(_ball_counts(angles, delta).max() / len(angles))


def exp_direction_cocycle(sys: System, n: int = 10_000, q: int = 30,
                          delta: float = 0.1, trials: int = 8,
                          seed: int = 0) -> ExperimentReport:
    """Concentration of the derivative-direction cocycle along typical paths:
    score = max ball mass among the trace angles. Non-concentration means
    score < 1 - delta for every ball."""
    if n < 1 or trials < 1:
        raise UndersampledError("direction-cocycle needs n >= 1 and "
                                f"trials >= 1, got n={n}, trials={trials}")
    # asin needs delta <= 1 and the verdict 1 - delta > 0; NaN fails too
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"direction-cocycle needs delta in (0, 1), "
                          f"got delta={delta}")
    if math.ceil(math.pi / (delta / 2.0)) > MAX_COCYCLE_NET:
        raise ConfigError(f"direction-cocycle delta={delta} makes a "
                          f"delta/2-net of more than {MAX_COCYCLE_NET} points")
    fixed_point = None
    if sys.size == 1:
        g = sys.generators[0]
        t = g.trace()
        if abs(t.imag) < 1e-12 and abs(t.real) <= 2.0:
            # elliptic single generator: use its finite fixed direction
            cands = eig_directions(g)
            fixed_point = next((p for p in cands if psi(p) is not INFINITY),
                               cands[0])

    rows = []
    scores = []
    scores_keyed = []
    chain_defects = []
    poles = 0
    offsets = np.array([j * math.pi / (2 * sys.size + 1)
                        for j in range(sys.size)])
    for t_idx in range(trials):
        rng = block_rng(seed, TAG_COCYCLE, t_idx)
        trace = _build_trace(sys, n, q, rng, fixed_point=fixed_point)
        sc = _concentration_score(trace.angles, delta)
        scores.append(sc)
        chain_defects.append(trace.max_chain_defect)
        poles += trace.pole_events
        rng2 = block_rng(seed, TAG_COCYCLE, 10_000 + t_idx)
        letters = draw_letters(rng2, sys.probs_array(), n)
        keyed = np.mod(trace.angles + offsets[letters], math.pi)
        sck = _concentration_score(keyed, delta)
        scores_keyed.append(sck)
        rows.append({"trial": t_idx, "score": sc,
                     "chain_defect": trace.max_chain_defect,
                     "pole_events": trace.pole_events,
                     "score_letter_keyed": sck})

    score = float(np.mean(scores))
    verdict = VERDICT_CONSISTENT if score < 1.0 - delta else VERDICT_INCONSISTENT
    summary = {"score": score, "score_max": float(np.max(scores)),
               "max_chain_defect": float(np.max(chain_defects)),
               "pole_events": poles, "threshold": 1.0 - delta,
               "score_letter_keyed": float(np.mean(scores_keyed))}
    return ExperimentReport(
        "direction-cocycle", sys.tag(),
        {"n": n, "q": q, "delta": delta, "trials": trials}, seed,
        rows, summary, verdict)


# ---------------------------------------------------------------------------
# entropy increase under convolution
# ---------------------------------------------------------------------------

def check_theta_reach(theta: ThetaSpec, r: float) -> float:
    """theta's largest distance to the identity, after checking that
    entropy-increase may use it: ConfigError when it passes r."""
    reach = theta.max_dist_to_identity()
    if not reach <= r + 1e-9:          # NaN fails as well
        raise ConfigError(f"entropy-increase needs theta atoms within r, "
                          f"but they reach {reach:.4f} > r = {r}")
    return reach


def exp_entropy_increase(cloud: BoundaryCloud, theta: ThetaSpec,
                         r: float = 0.25, n: int = 14,
                         seed: int = 0) -> ExperimentReport:
    """Gap between the dyadic entropy of the convolved cloud theta.nu and the
    matched-level entropy of nu itself (both at level n, on the sphere)."""
    reach = check_theta_reach(theta, r)
    nu_plane = sphere_to_plane(cloud.measure).drop_infinity()
    dim_est = entropy_slope_dimension(nu_plane, (2, max(10, n - 2)))

    base = cloud.measure.entropy(n).entropy / n
    convolved = apply_atoms_to_sphere(cloud.measure, theta, seed)
    conv = convolved.entropy(n).entropy / n
    gap = conv - base

    theta_entropy = theta.chart_entropy(n) / n
    vacuous = dim_est.value >= 1.95
    degenerate_theta = theta_entropy * n < MIN_THETA_ENTROPY
    verdict = VERDICT_CONSISTENT if gap > 0 else VERDICT_INCONSISTENT
    if vacuous or degenerate_theta:
        verdict = VERDICT_INCONCLUSIVE

    rows = [{"level": n, "entropy_nu": base, "entropy_conv": conv,
             "gap": gap}]
    return ExperimentReport(
        "entropy-increase", cloud.system.tag(),
        {"theta": theta.label, "r": r, "n": n, "count": cloud.measure.size},
        seed, rows,
        {"gap": gap, "dimension": dim_est.value,
         "theta_reach": reach, "theta_chart_entropy": theta_entropy * n,
         "vacuous_regime": vacuous},
        verdict)


# ---------------------------------------------------------------------------
# group entropy transfers to orbit entropy
# ---------------------------------------------------------------------------

def check_transfer_k(k: int) -> None:
    """ConfigError unless k >= 1: action-entropy-transfer normalises its
    orbit entropies by k."""
    if k < 1:
        raise ConfigError(f"action-entropy-transfer needs k >= 1, got k={k}")


def exp_action_entropy_transfer(xi, theta: ThetaSpec, k: int = 8, n: int = 6,
                                seed: int = 0) -> ExperimentReport:
    """Largest eps0 such that, averaging over scales and xi-sampled base
    points, components of theta give orbit clouds of normalized entropy
    above eps0 with probability above eps0. `xi` is a BoundaryCloud, whose
    finite plane part is used, or a plane measure."""
    check_transfer_k(k)
    if isinstance(xi, BoundaryCloud):
        tag = xi.system.tag()
        xi = sphere_to_plane(xi.measure).drop_infinity()
    else:
        tag = "fixture"

    rng = block_rng(seed, TAG_EXPERIMENT, 4)
    zs = rng.choice(xi.points, size=min(TRANSFER_Z_SAMPLES, xi.size),
                    replace=False, p=xi.weights / xi.weights.sum())

    chart = theta.chart_measure()
    # per level: list of (mass, matrix-entry vectors) for each component
    comps_by_level = []
    for lev in range(1, n + 1):
        entries = []
        for mass, comp in chart.components(lev):
            mats = [chart_g_inverse(c) for c in comp.points]
            a = np.array([g.a for g in mats])
            b = np.array([g.b for g in mats])
            c = np.array([g.c for g in mats])
            d = np.array([g.d for g in mats])
            entries.append((mass, a, b, c, d, comp.weights))
        comps_by_level.append(entries)

    rows = []
    # per (z, level): (mass, normalized orbit entropy) for each component
    per_z_level_vals: List[List[List[Tuple[float, float]]]] = []
    for z in zs:
        z = complex(z)
        vals_levels = []
        for lev, entries in enumerate(comps_by_level, start=1):
            pairs = []
            for mass, a, b, c, d, wts in entries:
                den = c * z + d
                ok = np.abs(den) > 1e-12
                if not ok.any():
                    pairs.append((mass, 0.0))
                    continue
                imgs = (a[ok] * z + b[ok]) / den[ok]
                em = EmpiricalMeasure.on_plane(imgs, wts[ok])
                h = em.entropy(lev + k).entropy / k
                pairs.append((mass, h))
            vals_levels.append(pairs)
        per_z_level_vals.append(vals_levels)

    def integral(eps0: float) -> float:
        total = 0.0
        for vals_levels in per_z_level_vals:
            probs = [sum(mass for mass, h in pairs if h > eps0)
                     for pairs in vals_levels]
            total += float(np.mean(probs))
        return total / len(per_z_level_vals)

    grid = np.linspace(0.0, 2.0, 201)
    eps_hat = 0.0
    for e in grid:
        if e > 0 and integral(float(e)) > e:
            eps_hat = float(e)
    rows.append({"eps0": eps_hat, "integral_at_eps0": integral(eps_hat)})

    verdict = VERDICT_CONSISTENT if eps_hat > 0 else VERDICT_INCONSISTENT
    return ExperimentReport(
        "action-entropy-transfer", tag,
        {"theta": theta.label, "k": k, "n": n, "z_samples": int(len(zs))},
        seed, rows, {"eps0_hat": eps_hat}, verdict)


# ---------------------------------------------------------------------------
# linearization of the action at small scales
# ---------------------------------------------------------------------------

def exp_linearization_check(k: int = 8, delta: float = 2.0 ** -10,
                            theta_count: int = 512, xi_count: int = 2048,
                            seed: int = 0) -> ExperimentReport:
    """Entropy of the action cloud versus its first-order surrogate
    (orbit of the center convolved with the scaled fiber measure), both at
    the scale where the Taylor remainder should be subdyadic; centered at
    the identity of the group and at z = 0."""
    if not 0.0 < delta <= 1.0:          # NaN fails as well
        raise ConfigError(f"linearization needs delta in (0, 1], "
                          f"got delta={delta}")
    g = GroupElement.identity()
    z_center = 0j
    rng = block_rng(seed, TAG_EXPERIMENT, 5)

    # theta: atoms within group-distance delta of g = identity (chart origin)
    atoms = []
    while len(atoms) < theta_count:
        cand = chart_g_inverse((rng.random(6) - 0.5) * delta)
        if dist_g_proxy(g, cand) <= delta:
            atoms.append(cand)
    # xi: uniform square of side delta centered at z_center
    w = (rng.random(xi_count) - 0.5) * delta
    v = (rng.random(xi_count) - 0.5) * delta
    xi_pts = z_center + w + 1j * v

    level = k + int(round(math.log2(1.0 / delta)))

    # action cloud: all pairs phi_h(w)
    imgs = np.empty((len(atoms), xi_count), dtype=complex)
    for i, h in enumerate(atoms):
        imgs[i] = (h.a * xi_pts + h.b) / (h.c * xi_pts + h.d)
    h_action = EmpiricalMeasure.on_plane(imgs.ravel()).entropy(level).entropy

    # linear surrogate: (theta.z) * (S_{phi'_g(z)} xi)
    fg = mobius_derivative(g, z_center)
    orbit = np.array([(h.a * z_center + h.b) / (h.c * z_center + h.d)
                      for h in atoms])
    lin = orbit[:, None] + fg * xi_pts[None, :]
    h_lin = EmpiricalMeasure.on_plane(lin.ravel()).entropy(level).entropy

    gap = abs(h_action - h_lin)
    verdict = (VERDICT_CONSISTENT if gap < LINEARIZATION_EPS_BITS
               else VERDICT_INCONSISTENT)
    return ExperimentReport(
        "linearization", "fixture",
        {"k": k, "delta": delta, "theta_count": theta_count,
         "xi_count": xi_count, "eps_bits": LINEARIZATION_EPS_BITS,
         "z_center": [z_center.real, z_center.imag]},
        seed,
        [{"level": level, "entropy_action": h_action, "entropy_linear": h_lin,
          "gap_bits": gap}],
        {"gap_bits": gap}, verdict)


# ---------------------------------------------------------------------------
# boundary convergence rate
# ---------------------------------------------------------------------------

def _walk_until(tail: Walk, steps, s: np.ndarray,
                log2_inv_norm2: np.ndarray, target_chi: float, top: float,
                step: int) -> int:
    """Extend `tail` = h by rows of `steps` until every row has
    2 log2 ||diag(1, s) h|| - log2_inv_norm2 > target_chi, raising
    StallError at path length 100 000; returns the path length, counted on
    from `step`. `top` is the largest log2 ||g_i||, and s = sigma^-2 <= 1.

    The walk renormalises every RENORM_EVERY steps and before each test.
    Its entries are below 1 after a renorm, so k steps later a row's test
    value is at most 2 (log2s + k top) + 2 - log2_inv_norm2; while that
    bound, plus a bit of slack, leaves some row at or below target_chi, the
    test would not stop the walk and is skipped. The tests that are made
    read the entries of a renorm after every step (see `Walk`)."""
    k = 0                       # steps since the last renorm
    low = np.min(2.0 * tail.log2s - log2_inv_norm2)
    while True:
        if low + 2.0 * k * top + 3.0 > target_chi:
            if k:
                tail.renorm()
                k = 0
                low = np.min(2.0 * tail.log2s - log2_inv_norm2)
            if not (2.0 * tail.log2_opnorm(s) - log2_inv_norm2
                    <= target_chi).any():
                return step
        if step >= 100_000:
            raise StallError("path norm growth stalled")
        tail.right(next(steps))
        step += 1
        k += 1
        if k == RENORM_EVERY:
            tail.renorm()
            k = 0
            low = np.min(2.0 * tail.log2s - log2_inv_norm2)


def exp_boundary_convergence(sys: System, n_values: Sequence[int] = (30, 60, 100),
                             eta: float = 0.2, trials: int = 1024,
                             seed: int = 0, workers: int = 1) -> ExperimentReport:
    """Fraction of paths with d(L(w), L(g_{w|n})) <= 2^{-n(2 chi - eta)},
    where L(w) is resolved by running the path far beyond length n.

    The lemma promises a fraction >= 1 - eta only for n large enough (it
    tends to 1 as n grows); at short lengths the central-limit fluctuation of
    log ||g_n|| can hold it below 1 - eta. The default lengths start at 30:
    on the twist preset the n = 10 fraction sits on 1 - eta itself.

    d is computed without subtracting two nearby unit vectors, so it is
    resolved far below 2^-52. g_{w|n} = U diag(sigma, 1/sigma) V* is frozen
    at step n and the tail product h is carried as V* h; then
    d = d(e1, L(diag(1, sigma^-2) V* h)) = sigma^-2 r, with sigma^-2 taken
    from the walk's power-of-two exponent and r from
    `Walk.frame_distance_ratio`, both to relative precision.

    Each row also reports `norm_fraction`, the share of paths with
    ||g_{w|n}||^-2 <= bound. Since log2 d = -2 log2 ||g_{w|n}|| + log2 r,
    a fraction close to `norm_fraction` puts a shortfall in the norm's
    growth, not in the direction's convergence."""
    chi = lyapunov_estimate(sys, n=2000, trials=256, seed=seed).value
    if chi < 0.02:
        return ExperimentReport(
            "boundary-convergence", sys.tag(),
            {"n_values": list(n_values), "eta": eta, "trials": trials},
            seed, [], {"chi": chi, "note": "vacuous bound at chi ~ 0"},
            VERDICT_INCONCLUSIVE)

    probs = sys.probs_array()
    top = lazy_walk_top(sys)
    rows = []
    all_pass = True
    for n in n_values:
        log2_bound = -n * (2.0 * chi - eta)
        target_chi = 2.0 * n * chi + 80.0

        def block(start, m, index, n=n, target_chi=target_chi):
            rng = block_rng(seed, TAG_EXPERIMENT, 100_000 + 1000 * n + index)
            steps = letter_steps(rng, probs, m)
            head = Walk.identity(sys, m)
            head.right_steps(steps, n)
            # g_n = 2^log2s head, so sigma^-2 = 2^exps / sig2 to rounding
            sig2 = head.sig2()
            exps = (-2.0 * head.log2s).astype(np.int64)
            s = np.ldexp(1.0 / sig2, exps)
            log2_inv_norm2 = exps - np.log2(sig2)
            tail = Walk(head.gens, head.right_frame())
            _walk_until(tail, steps, s, log2_inv_norm2, target_chi, top, n)
            d_mant = tail.frame_distance_ratio(s) / sig2  # d = 2^exps d_mant
            with np.errstate(divide="ignore"):
                log2_d = exps + np.log2(d_mant)
            return np.stack([np.ldexp(d_mant, exps), log2_d, log2_inv_norm2],
                            axis=1)

        out = np.concatenate(run_blocks(block, trials, workers,
                                        block_size=1024))
        dists, log2_d, log2_inv_norm2 = out[:, 0], out[:, 1], out[:, 2]
        frac = float((log2_d <= log2_bound).mean())
        rows.append({"n": n, "bound": 2.0 ** log2_bound, "fraction": frac,
                     "median_dist": float(np.median(dists)),
                     "norm_fraction":
                         float((log2_inv_norm2 <= log2_bound).mean())})
        if frac < 1.0 - eta:
            all_pass = False

    verdict = VERDICT_CONSISTENT if all_pass else VERDICT_INCONSISTENT
    return ExperimentReport(
        "boundary-convergence", sys.tag(),
        {"n_values": list(n_values), "eta": eta, "trials": trials},
        seed, rows, {"chi": chi,
                     "min_fraction": min(r["fraction"] for r in rows)},
        verdict)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineBudget:
    """Sampling budget and tolerances for the full consistency pipeline.

    The tolerances are estimator-noise budgets calibrated on synthetic
    fixtures with known dimension, not theoretical constants."""

    boundary_samples: int = 1_000_000
    target_bits: float = DEFAULT_TARGET_BITS
    chi_n: int = 10_000
    chi_trials: int = 1000
    hrw_nmax: int = 9
    hrw_cap: int = 2_000_000
    delta_qmax: int = 14
    dim_window: Tuple[int, int] = (2, 12)
    tol_upper: float = 0.10
    tol: float = 0.15
    tol_ly: float = 0.20
    local_dim_centers: int = 600
    pair_check_words: int = 1500
    pair_check_level: int = 8
    pair_diameter_budget: float = 8.0
    scaling_check_slack: float = 0.5

    def small(self, n: int = 50_000) -> "PipelineBudget":
        return PipelineBudget(boundary_samples=n, chi_n=2000, chi_trials=256,
                              hrw_nmax=7, delta_qmax=10, dim_window=(2, 10),
                              local_dim_centers=200, pair_check_words=600)


def _matched_norm_pair_check(sys: System, budget: PipelineBudget,
                             seed: int) -> dict:
    """Sampled pairs with comparable norms and nearly equal top directions
    must sit at bounded group distance."""
    from scipy.spatial import cKDTree

    rng = block_rng(seed, TAG_EXPERIMENT, 6)
    lev = budget.pair_check_level
    seen = set()
    mats = []
    for _ in range(budget.pair_check_words):
        w = sample_word(sys, rng, first_passage=(0, 1, lev))
        if w in seen:                      # repeated draws are uninformative
            continue
        seen.add(w)
        mats.append(product_of_word(sys, w))
    if len(mats) < 2:
        return {"pairs": 0, "max_distance": None, "passes": None}
    norms = np.array([g.op_norm() for g in mats])
    dirs = np.array([[p.z1, p.z2] for p in
                     (boundary_direction(g) for g in mats)])
    emb = sphere_embedding(dirs)
    tree = cKDTree(emb)
    radius = float(np.median(norms) ** -2)
    cand = tree.query_pairs(r=radius, output_type="ndarray")
    dists = []
    n_pairs = 0
    for i, j in cand:
        g1, g2 = mats[int(i)], mats[int(j)]
        ratio = norms[int(i)] / norms[int(j)]
        if not (0.5 <= ratio <= 2.0):
            continue
        d_dir = float(np.abs(dirs[int(i), 0] * dirs[int(j), 1]
                             - dirs[int(i), 1] * dirs[int(j), 0]))
        if d_dir > min(norms[int(i)], norms[int(j)]) ** -2:
            continue
        n_pairs += 1
        try:
            dists.append(dist_g_proxy(g1, g2))
        except LogBranchError:
            dists.append(math.pi * math.sqrt(2.0) + 4.0)   # across the cut
    if not dists:
        return {"pairs": 0, "max_distance": None, "passes": None}
    return {"pairs": n_pairs, "max_distance": float(np.max(dists)),
            "passes": bool(np.max(dists) <= budget.pair_diameter_budget)}


def _entropy_scaling_check(cloud: BoundaryCloud, chi_hat: float,
                           budget: PipelineBudget, seed: int) -> dict:
    """Entropy of the cloud pushed by a typical large element, read 2*chi*n
    levels deeper, versus the entropy of the cloud itself."""
    sys = cloud.system
    rng = block_rng(seed, TAG_EXPERIMENT, 7)
    n_w = 12
    g = None
    for _ in range(400):
        acc = product_of_word(sys, sample_word(sys, rng, length=n_w))
        rate = math.log2(acc.op_norm()) / n_w
        if abs(rate - chi_hat) < max(0.1 * chi_hat, 0.05):
            g = acc
            break
    if g is None:
        return {"skipped": "no word with typical norm growth found"}

    m_level = 6
    deep = int(round(m_level + 2.0 * chi_hat * n_w))
    base = cloud.measure.entropy(m_level).entropy / n_w
    mat = np.array([[g.a, g.b], [g.c, g.d]])
    rows = cloud.measure.points @ mat.T
    pushed = EmpiricalMeasure(CP1, canonicalize_rows(rows),
                              cloud.measure.weights)
    moved = pushed.entropy(deep).entropy / n_w
    diff = abs(moved - base)
    return {"levels": [m_level, deep], "normalized_diff": diff,
            "passes": bool(diff <= budget.scaling_check_slack)}


def exp_main_theorem(sys: System, budget: Optional[PipelineBudget] = None,
                     seed: int = 7, workers: int = 1) -> ExperimentReport:
    """Full pipeline: assumption certification, Lyapunov exponent, random
    walk entropy, boundary cloud, first-letter conditional entropy, and the
    dimension-formula verdicts:

    (i)   dim <= min(2, h/(2 chi)) + tol_upper   (unconditional upper bound)
    (ii)  |dim - min(2, h/(2 chi))| <= tol       (needs all assumptions)
    (iii) |dim - (H(p) - Delta)/(2 chi)| <= tol_ly
    """
    budget = budget or PipelineBudget()
    report = certify(sys)
    rows: List[dict] = []
    summary: dict = {"assumptions": report.to_dict()}

    sampleable = report.proximal_status == "pass"
    undersampled = False
    verdicts = {}

    if not sampleable:
        summary["note"] = "norm growth check failed; sampling skipped"
        return ExperimentReport("main-theorem", sys.tag(),
                                {"budget": budget.__dict__}, seed, rows,
                                summary, VERDICT_INCONCLUSIVE)

    ly = lyapunov_estimate(sys, budget.chi_n, budget.chi_trials, seed,
                           workers)
    chi_hat = ly.op_norm.value
    summary["chi"] = {"value": chi_hat, "stderr": ly.op_norm.stderr,
                      "telescoped": ly.telescoped.value,
                      "telescoped_stderr": ly.telescoped.stderr,
                      "estimators_agree": ly.consistent()}

    table = random_walk_entropy(sys, budget.hrw_nmax, budget.hrw_cap)
    h_hat = table.h_rw_estimate
    summary["h_rw"] = {"value": h_hat, "free": table.free,
                       "letter_entropy": table.letter_entropy,
                       "ambiguity_warning": table.ambiguity_warning}
    for n_, h_, hn_ in table.rows:
        rows.append({"kind": "hrw", "n": n_, "H_n": h_, "H_n_over_n": hn_})

    cloud = sample_boundary(sys, budget.target_bits, budget.boundary_samples,
                            seed, workers)
    # one sort of the cloud serves the slope's levels and the ladder's
    levels = DyadicLevels(cloud.measure,
                          max(budget.dim_window[1], budget.delta_qmax))
    try:
        dim_slope = entropy_slope_dimension(levels, budget.dim_window)
    except UndersampledError:
        dim_slope = None
        undersampled = True
    dim_local = local_dimension(cloud.measure,
                                centers=budget.local_dim_centers, seed=seed)
    summary["dim"] = {
        "slope": None if dim_slope is None else dim_slope.value,
        "slope_stderr": None if dim_slope is None else dim_slope.stderr,
        "local": dim_local.value, "local_stderr": dim_local.stderr,
        "inf_mass": sphere_to_plane(cloud.measure).inf_mass()}

    ladder = delta_ladder(cloud, budget.delta_qmax, levels)
    for r in ladder.rows:
        rows.append({"kind": "delta", **r})
    try:
        finest = ladder.finest_well_sampled()
        delta_hat, delta_q = finest["delta"], finest["q"]
    except UndersampledError:
        delta_hat = delta_q = None
        undersampled = True
    summary["delta"] = {"value": delta_hat, "q": delta_q}

    formula = min(2.0, h_hat / (2.0 * chi_hat)) if chi_hat > 0 else 2.0
    summary["formula"] = {"min_2_h_over_2chi": formula}

    if dim_slope is not None:
        dim_hat = dim_slope.value
        verdicts["upper_bound"] = bool(dim_hat <= formula + budget.tol_upper)
        if report.zariski_dense:
            verdicts["dimension_formula"] = \
                bool(abs(dim_hat - formula) <= budget.tol)
        else:
            summary["dimension_formula_skipped"] = [
                k for k, v in
                [("strongly_irreducible", report.strongly_irreducible),
                 ("proximal", report.proximal_status == "pass"),
                 ("no_fixed_circle", report.no_fixed_circle)]
                if not v]
        if delta_hat is not None and report.strongly_irreducible:
            ly_dim = (table.letter_entropy - delta_hat) / (2.0 * chi_hat)
            summary["formula"]["ledrappier_young"] = ly_dim
            verdicts["ledrappier_young"] = \
                bool(abs(dim_hat - ly_dim) <= budget.tol_ly)

    summary["pair_diameter_check"] = _matched_norm_pair_check(sys, budget, seed)
    summary["entropy_scaling_check"] = _entropy_scaling_check(
        cloud, chi_hat, budget, seed)
    summary["verdicts"] = verdicts

    if undersampled or not verdicts:
        verdict = VERDICT_INCONCLUSIVE
    elif all(verdicts.values()):
        verdict = VERDICT_CONSISTENT
    else:
        verdict = VERDICT_INCONSISTENT
    return ExperimentReport(
        "main-theorem", sys.tag(), {"budget": budget.__dict__}, seed,
        rows, summary, verdict, undersampled=undersampled)


EXPERIMENTS = {
    "uniform-entropy-dim": exp_uniform_entropy_dim,
    "projection-entropy": exp_projection_entropy,
    "direction-cocycle": exp_direction_cocycle,
    "entropy-increase": exp_entropy_increase,
    "action-entropy-transfer": exp_action_entropy_transfer,
    "linearization": exp_linearization_check,
    "boundary-convergence": exp_boundary_convergence,
    "main-theorem": exp_main_theorem,
}
