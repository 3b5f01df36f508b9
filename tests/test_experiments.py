"""Seeded experiments: controls with known outcomes, determinism, and the
pipeline's structural guarantees at reduced budgets."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furstlab as fl
from furstlab.engine import RENORM_EVERY, Walk
from furstlab.dyadic import dyadic_grid_square, uniform_segment, uniform_square, EmpiricalMeasure
from furstlab.errors import ConfigError, StallError
from furstlab.experiments import (PipelineBudget, ThetaSpec,
                                  _ball_counts, _concentration_score,
                                  _walk_until,
                                  exp_action_entropy_transfer,
                                  exp_boundary_convergence,
                                  exp_direction_cocycle, exp_entropy_increase,
                                  exp_linearization_check, exp_main_theorem,
                                  exp_projection_entropy,
                                  exp_uniform_entropy_dim)
from furstlab.reporting import (VERDICT_CONSISTENT, VERDICT_INCONCLUSIVE,
                                VERDICT_INCONSISTENT)
from furstlab.sl2 import GroupElement
from furstlab.words import System, letter_steps

TWIST = fl.get_preset("twist")
SANOV = fl.get_preset("sanov")


@pytest.fixture(scope="module")
def clouds():
    # one boundary cloud per system, shared by the entropy-increase tests
    return {name: fl.sample_boundary(fl.get_preset(name), 40, 60_000, seed=3)
            for name in ("twist", "sanov")}


# -- uniform entropy dimension ---------------------------------------------------

def test_uniform_entropy_dim_grid_oracle():
    # exact dyadic grid: every component entropy equals 2 exactly
    grid = dyadic_grid_square(9)
    rep = exp_uniform_entropy_dim(grid, m=4, levels=(2, 5), eps=0.25,
                                  seed=1, min_component_points=64)
    assert rep.summary["fraction"] == 1.0
    assert abs(rep.summary["dimension"] - 2.0) <= 1e-9
    assert rep.verdict == VERDICT_CONSISTENT


def test_uniform_entropy_dim_atom_control():
    atoms = EmpiricalMeasure.on_plane(np.full(5000, 0.3 + 0.4j))
    rep = exp_uniform_entropy_dim(atoms, m=4, levels=(2, 4), eps=0.25,
                                  seed=1, min_component_points=64,
                                  dim_hint=2.0)
    assert rep.summary["fraction"] == 0.0
    assert rep.verdict == VERDICT_INCONSISTENT


# -- projection entropy ------------------------------------------------------------

def test_projection_entropy_grid_boundary_case():
    grid = dyadic_grid_square(9)
    rep = exp_projection_entropy(grid, m=4, levels=(2, 4), directions=24,
                                 seed=1, comps_per_level=8,
                                 min_component_points=64)
    # projections of square components are one-dimensional; the worst
    # direction (diagonal, triangular density) carries an O(1/m) shape
    # offset below 1, so this is the gamma ~ 0 boundary case
    p5 = rep.summary["p5_min_entropy"]
    assert 0.85 <= p5 <= 1.02
    assert abs(rep.summary["gamma_hat"]) <= 0.15


def test_projection_entropy_segment_control():
    seg = uniform_segment(200_000, seed=2)        # horizontal segment
    rep = exp_projection_entropy(seg, m=4, levels=(2, 4), directions=24,
                                 seed=1, comps_per_level=8,
                                 min_component_points=64)
    # worst direction is the vertical one and the projection collapses
    assert rep.summary["p5_min_entropy"] <= 0.02
    assert abs(rep.summary["gamma_hat"]) <= 0.05
    assert all(abs(r["argmin_angle"] - math.pi / 2) <= 0.2 for r in rep.rows)


# -- direction cocycle ----------------------------------------------------------------

def test_cocycle_sanov_concentrated():
    rep = exp_direction_cocycle(SANOV, n=2000, q=25, delta=0.1, trials=2,
                                seed=7)
    assert rep.summary["score"] >= 0.999
    assert rep.verdict == VERDICT_INCONSISTENT
    assert rep.summary["max_chain_defect"] <= 1e-6


def test_cocycle_twist_spread():
    rep = exp_direction_cocycle(TWIST, n=3000, q=25, delta=0.1, trials=3,
                                seed=7)
    assert rep.summary["score"] < 0.9
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.summary["max_chain_defect"] <= 1e-6


def test_cocycle_rotation_equidistributes():
    phi = 0.5
    rot = GroupElement(complex(math.cos(phi)), complex(-math.sin(phi)),
                       complex(math.sin(phi)), complex(math.cos(phi)))
    sys_ = System((rot,), (1.0,), name="rotation")
    rep = exp_direction_cocycle(sys_, n=4000, q=25, delta=0.1, trials=2,
                                seed=7)
    # rigid rotation orbit: ball mass on the 2*delta/pi scale
    assert rep.summary["score"] <= 3 * (2 * 0.1 / math.pi)


def _dense_ball_hits(angles, delta):
    # the n x net formula: every angle against every net point
    net = np.arange(0.0, math.pi, delta / 2.0)
    return np.abs(np.sin(angles[:, None] - net[None, :])) <= delta


_BELOW_PI = math.nextafter(math.pi, 0.0)


# offsets from an arc end: ulps, and the band where the sine's rounding
# moves its edge as delta nears 1 (sin flattens near pi/2)
_END_OFFSETS = (0.0, 4.4e-16, -4.4e-16, 1e-12, -1e-12, 2e-9, -2e-9,
                5e-9, -5e-9, 1.2e-8, -1.2e-8)


@st.composite
def _ball_count_cases(draw):
    delta = draw(st.one_of(
        st.floats(1e-3, 1.0, exclude_max=True),
        st.sampled_from([0.1, 0.5, 1.0 - 1e-12, math.nextafter(1.0, 0.0)])))
    net = np.arange(0.0, math.pi, delta / 2.0)
    alpha = math.asin(delta)
    # angles on and near the arc ends of the balls at 0, just below pi and
    # at drawn net points
    centers = [0.0, _BELOW_PI] + draw(st.lists(
        st.sampled_from(net.tolist()), max_size=3))
    ends = [c + sgn * alpha + shift for c in centers
            for sgn in (-1.0, 1.0) for shift in (0.0, -math.pi, math.pi)]
    near = [e + t for e in ends for t in _END_OFFSETS]
    pool = [a for a in near if 0.0 <= a < math.pi] + [0.0, _BELOW_PI]
    anywhere = st.floats(0.0, math.pi, exclude_max=True)
    angles = draw(st.one_of(
        st.lists(st.sampled_from(pool), min_size=1, max_size=80),
        st.lists(anywhere | st.sampled_from(pool), min_size=1, max_size=80),
        st.builds(lambda a, k: [a] * k, st.sampled_from(pool),
                  st.integers(1, 40)),
        st.builds(lambda a: [a], anywhere)))
    return np.array(angles, dtype=float), delta


@settings(max_examples=300, deadline=None)
@given(_ball_count_cases())
def test_ball_counts_match_dense_formula(case):
    angles, delta = case
    hits = _dense_ball_hits(angles, delta)
    assert np.array_equal(_ball_counts(angles, delta), hits.sum(axis=0))
    assert (_concentration_score(angles, delta)
            == float(hits.mean(axis=0).max()))


def test_ball_counts_on_spread_and_clustered_angles():
    rng = np.random.default_rng(5)
    angles = np.concatenate([rng.random(5000) * math.pi,
                             rng.normal(1.0, 0.01, 3000) % math.pi])
    for delta in (0.1, 0.03, 0.7):
        hits = _dense_ball_hits(angles, delta)
        assert np.array_equal(_ball_counts(angles, delta), hits.sum(axis=0))
        assert (_concentration_score(angles, delta)
                == float(hits.mean(axis=0).max()))


# -- entropy increase --------------------------------------------------------------------

def test_entropy_increase_identity_is_noop(clouds):
    rep = exp_entropy_increase(clouds["twist"], ThetaSpec.identity_atom(),
                               r=0.2, n=12, seed=3)
    assert rep.summary["gap"] == 0.0
    assert rep.verdict == VERDICT_INCONCLUSIVE     # zero-entropy theta


def test_entropy_increase_four_atoms_positive(clouds):
    rep = exp_entropy_increase(clouds["twist"],
                               ThetaSpec.four_ball_atoms(0.08), r=0.2, n=12,
                               seed=3)
    assert rep.summary["gap"] > 0
    assert rep.verdict == VERDICT_CONSISTENT
    assert rep.summary["theta_reach"] <= 0.2


def test_entropy_increase_sanov_larger_margin(clouds):
    tw = exp_entropy_increase(clouds["twist"],
                              ThetaSpec.four_ball_atoms(0.08), r=0.2, n=12,
                              seed=3)
    sv = exp_entropy_increase(clouds["sanov"],
                              ThetaSpec.four_ball_atoms(0.08), r=0.2, n=12,
                              seed=3)
    # a circle-supported measure gains transverse entropy faster
    assert sv.summary["gap"] > tw.summary["gap"]


def test_entropy_increase_rejects_far_atoms(clouds):
    with pytest.raises(ConfigError, match="r = 0.2"):
        exp_entropy_increase(clouds["twist"], ThetaSpec.four_ball_atoms(0.5),
                             r=0.2, n=10, seed=0)


# -- action entropy transfer ----------------------------------------------------------------

def test_transfer_atom_control_zero():
    rep = exp_action_entropy_transfer(uniform_square(5000, seed=5),
                                      ThetaSpec.identity_atom(), k=6, n=4,
                                      seed=2)
    assert rep.summary["eps0_hat"] == 0.0
    assert rep.verdict == VERDICT_INCONSISTENT


def test_transfer_translation_arc_positive():
    rep = exp_action_entropy_transfer(uniform_square(5000, seed=5),
                                      ThetaSpec.translation_arc(0.5, 2048),
                                      k=6, n=4, seed=2)
    assert rep.summary["eps0_hat"] > 0.0
    assert rep.verdict == VERDICT_CONSISTENT


def test_transfer_stabilizer_average_still_positive():
    # lower-triangular maps fix z = 0; mass of xi near zero contributes
    # nothing, but the xi-average stays positive through other base points
    xi = uniform_square(5000, seed=5, side=2.0, origin=-1 - 1j)
    rep = exp_action_entropy_transfer(xi,
                                      ThetaSpec.lower_triangular_arc(0.5, 2048),
                                      k=6, n=4, seed=2)
    assert rep.summary["eps0_hat"] > 0.0


# -- linearization ---------------------------------------------------------------------------

def test_linearization_fine_scale_matches():
    rep = exp_linearization_check(k=8, delta=2.0 ** -10, seed=7)
    assert rep.summary["gap_bits"] < 0.1
    assert rep.verdict == VERDICT_CONSISTENT


def test_linearization_gap_grows_at_coarse_scale():
    fine = exp_linearization_check(k=8, delta=2.0 ** -10, seed=7)
    coarse = exp_linearization_check(k=8, delta=2.0 ** -1, seed=7)
    assert coarse.summary["gap_bits"] > 10 * fine.summary["gap_bits"]


def test_linearization_atoms_degenerate():
    rep = exp_linearization_check(k=4, delta=2.0 ** -10, theta_count=1,
                                  xi_count=1, seed=0)
    assert rep.summary["gap_bits"] == 0.0


# -- boundary convergence ----------------------------------------------------------------------

def test_boundary_convergence_single_matrix():
    sys_ = System((GroupElement(2 + 0j, 0j, 0j, 0.5 + 0j),), (1.0,),
                  name="single")
    rep = exp_boundary_convergence(sys_, n_values=(5, 10), eta=0.2,
                                   trials=64, seed=1)
    assert all(r["fraction"] == 1.0 for r in rep.rows)

    # The diagonal matrix gives d = 0 exactly; a conjugated shear
    # G = R A R*, A = [[2, 1], [0, 1/2]], R unitary, has L(w) = R e1 and
    # d(L(w), L(G^n)) = sin theta_n, tan theta_n = H12 / (lam_max - H22) with
    # H = A^n A^n*. These distances lie far below 2^-52 and must still come
    # out to relative precision.
    rot = np.array([[math.cos(0.7), -math.sin(0.7)],
                    [math.sin(0.7), math.cos(0.7)]]) @ np.diag([1, np.exp(0.3j)])
    g = rot @ np.array([[2, 1], [0, 0.5]]) @ rot.conj().T
    shear = System((GroupElement(*map(complex, g.ravel())),), (1.0,), name="shear")
    rep = exp_boundary_convergence(shear, n_values=(20, 30, 40), eta=0.2,
                                   trials=64, seed=1)
    assert len(rep.rows) == 3
    for row, approx in zip(rep.rows, (4.1977e-13, 4.0032e-19, 3.8178e-25)):
        n = row["n"]
        b = (2.0 ** n - 2.0 ** -n) / 1.5           # A^n = [[2^n, b], [0, 2^-n]]
        h11, h12, h22 = 4.0 ** n + b * b, b * 2.0 ** -n, 4.0 ** -n
        half = 0.5 * (h11 - h22)
        tan = h12 / (half + math.sqrt(half * half + h12 * h12))
        sin = tan / math.sqrt(1.0 + tan * tan)
        assert abs(sin / approx - 1.0) < 1e-4
        assert abs(row["median_dist"] / sin - 1.0) < 1e-9
        assert row["fraction"] == 1.0


def _every_step_tail(tail, steps, s, log2_inv_norm2, target_chi, step):
    # the tail loop with a renorm and a test after every step
    while (2.0 * tail.log2_opnorm(s) - log2_inv_norm2
           <= target_chi).any():
        if step >= 100_000:
            raise StallError("path norm growth stalled")
        tail.right(next(steps))
        tail.renorm()
        step += 1
    return step


def _walk_bits(walk):
    return [x.tobytes() for x in (*walk.entries(), walk.log2s)]


@pytest.mark.parametrize("name", ["twist", "sanov", "discrete-gaussian"])
@pytest.mark.parametrize("n", [RENORM_EVERY, RENORM_EVERY + 1, 30])
def test_lazy_walks_match_every_step_walks(name, n):
    # the boundary-convergence walks: head and tail, lazily renormalised
    # and tested, against the same walks renormalised and tested every step
    sys_ = fl.get_preset(name)
    probs = sys_.probs_array()
    top = max(math.log2(g.op_norm()) for g in sys_.generators)
    chi = fl.lyapunov_estimate(sys_, n=2000, trials=256, seed=2).value
    target_chi = 2.0 * n * chi + 80.0
    lazy_steps = letter_steps(np.random.default_rng(n), probs, 256)
    ref_steps = letter_steps(np.random.default_rng(n), probs, 256)
    lazy = Walk.identity(sys_, 256)
    lazy.right_steps(lazy_steps, n)
    ref = Walk.identity(sys_, 256)
    for _ in range(n):
        ref.right(next(ref_steps))
        ref.renorm()
    assert _walk_bits(lazy) == _walk_bits(ref)
    sig2 = ref.sig2()
    exps = (-2.0 * ref.log2s).astype(np.int64)
    s = np.ldexp(1.0 / sig2, exps)
    log2_inv_norm2 = exps - np.log2(sig2)
    lazy = Walk(ref.gens, ref.right_frame())
    ref = Walk(ref.gens, ref.right_frame())
    got = _walk_until(lazy, lazy_steps, s, log2_inv_norm2, target_chi, top, n)
    want = _every_step_tail(ref, ref_steps, s, log2_inv_norm2, target_chi, n)
    assert got == want > n + RENORM_EVERY
    assert _walk_bits(lazy) == _walk_bits(ref)


def test_boundary_convergence_twist_tracks_bound():
    rep = exp_boundary_convergence(TWIST, n_values=(10, 20), eta=0.25,
                                   trials=512, seed=1)
    assert min(r["fraction"] for r in rep.rows) >= 0.7
    assert rep.summary["chi"] > 0.3


def test_boundary_convergence_su2_inconclusive():
    rep = exp_boundary_convergence(fl.get_preset("su2-control"),
                                   n_values=(10,), eta=0.2, trials=32, seed=1)
    assert rep.verdict == VERDICT_INCONCLUSIVE


# -- the pipeline ------------------------------------------------------------------------------

def test_main_theorem_twist_small_budget():
    rep = exp_main_theorem(TWIST, PipelineBudget().small(60_000), seed=7)
    v = rep.summary["verdicts"]
    assert v["upper_bound"] and v["dimension_formula"]
    assert rep.verdict in (VERDICT_CONSISTENT, VERDICT_INCONCLUSIVE)


def test_main_theorem_sanov_skips_formula_checks_circle():
    rep = exp_main_theorem(SANOV, PipelineBudget().small(40_000), seed=7)
    assert "dimension_formula" not in rep.summary["verdicts"]
    assert rep.summary["verdicts"]["upper_bound"]
    assert "no_fixed_circle" in rep.summary["dimension_formula_skipped"]
    assert rep.summary["dim"]["slope"] <= 1.05


def test_main_theorem_su2_refuses():
    rep = exp_main_theorem(fl.get_preset("su2-control"),
                           PipelineBudget().small(1000), seed=7)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert "note" in rep.summary


def test_upper_bound_never_fails_on_sampleable_presets():
    for name in ("sanov", "twist", "discrete-gaussian"):
        rep = exp_main_theorem(fl.get_preset(name),
                               PipelineBudget().small(40_000), seed=11)
        assert rep.summary["verdicts"]["upper_bound"], name


def test_verdict_monotone_in_budget():
    levels = []
    for n in (20_000, 60_000):
        rep = exp_main_theorem(TWIST, PipelineBudget().small(n), seed=7)
        levels.append(rep.verdict)
    for a, b in zip(levels, levels[1:]):
        assert not (a == VERDICT_CONSISTENT and b == VERDICT_INCONSISTENT)


# -- determinism --------------------------------------------------------------------------------

def test_experiment_reports_are_pure():
    a = exp_direction_cocycle(TWIST, n=500, q=20, delta=0.1, trials=2, seed=3)
    b = exp_direction_cocycle(TWIST, n=500, q=20, delta=0.1, trials=2, seed=3)
    assert a.to_json() == b.to_json()


def test_pipeline_worker_invariance():
    a = exp_main_theorem(TWIST, PipelineBudget().small(30_000), seed=5,
                         workers=1)
    b = exp_main_theorem(TWIST, PipelineBudget().small(30_000), seed=5,
                         workers=4)
    assert a.to_json() == b.to_json()


def test_report_json_numbers_are_strings():
    rep = exp_linearization_check(k=4, delta=2.0 ** -8, seed=0)
    doc = json.loads(rep.to_json())
    assert isinstance(doc["summary"]["gap_bits"], str)
    assert set(doc.keys()) == {"experiment", "system", "params", "seed",
                               "rows", "summary", "verdict"}


def test_main_theorem_discrete_case_consistency():
    # Gaussian-integer preset: a fixed circle blocks the full formula
    # verdict, but the conditional-entropy route needs only strong
    # irreducibility and norm growth, so the discrete-case identity
    # dim = (H(p) - Delta)/(2 chi) is still checked and passes
    rep = exp_main_theorem(fl.get_preset("discrete-gaussian"),
                           PipelineBudget().small(100_000), seed=11)
    s = rep.summary
    assert "dimension_formula" not in s["verdicts"]
    assert s["verdicts"]["ledrappier_young"]
    assert abs(s["dim"]["slope"] - s["formula"]["ledrappier_young"]) <= 0.2


def test_main_theorem_sanov_ly_route_passes():
    rep = exp_main_theorem(SANOV, PipelineBudget().small(100_000), seed=11)
    assert rep.summary["verdicts"]["ledrappier_young"]
