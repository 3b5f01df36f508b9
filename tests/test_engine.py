"""Monte-Carlo samplers and estimators: determinism, controls with known
answers, and self-consistency oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furstlab as fl
from furstlab._parallel import TAG_LYAPUNOV, block_rng, run_blocks
from furstlab.cli import main
from furstlab.dyadic import (DyadicLevels, EmpiricalMeasure,
                             dyadic_grid_square, shannon_entropy,
                             sphere_to_plane, uniform_square, uniform_segment)
from furstlab.engine import (DEFAULT_TARGET_BITS, MIN_BIN_COUNT, Walk,
                             _conditional_letter_entropy, delta_estimate,
                             delta_ladder, dim_estimate, lyapunov_estimate,
                             sample_boundary)
from furstlab.errors import (ConfigError, FloatOverflowError, StallError,
                             UndersampledError)
from furstlab.experiments import ThetaSpec, apply_atoms_to_sphere
from furstlab.presets import PRESETS
from furstlab.sl2 import (E1, GroupElement, ProjPoint, dist_cp1,
                          random_element)
from furstlab.words import System, draw_letters

SANOV = fl.get_preset("sanov")
TWIST = fl.get_preset("twist")

SINGLE = System((GroupElement(2 + 0j, 0j, 0j, 0.5 + 0j),), (1.0,),
                name="single")
# two equal loxodromic generators: the boundary point is deterministic, so
# it carries no information about the first letter
REPEATED = System((GroupElement(2 + 0j, 1 + 0j, 0j, 0.5 + 0j),
                   GroupElement(2 + 0j, 1 + 0j, 0j, 0.5 + 0j)),
                  (0.5, 0.5), name="repeated-loxodromic")


# -- walk kernel ---------------------------------------------------------------

def _rel_gap(walk, row, direct):
    got = [complex(np.ldexp(z.real, int(walk.log2s[row])),
                   np.ldexp(z.imag, int(walk.log2s[row])))
           for z in (x[row] for x in walk.entries())]
    gap = sum(abs(u - v) ** 2 for u, v in zip(got, direct.entries()))
    return (gap / direct.frobenius2()) ** 0.5


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.booleans(), st.integers(0, 60),
       st.integers(1, 4), st.integers(1, 9), st.data())
def test_walk_matches_direct_product(name, transpose, length, rows, every,
                                     data):
    # the renormalised product times 2^log2s is the GroupElement product,
    # on the right (sampler) and on the left (Lyapunov) at any schedule
    sys_ = fl.get_preset(name)
    if transpose:
        sys_ = sys_.transposed()
    gens = sys_.generators
    letter = st.integers(0, sys_.size - 1)
    words = np.array(data.draw(st.lists(
        st.lists(letter, min_size=length, max_size=length),
        min_size=rows, max_size=rows)), dtype=np.intp).reshape(rows, length)
    right = Walk.identity(sys_, rows)
    left = Walk.identity(sys_, rows)
    for t in range(length):
        right.right(words[:, t])
        right.renorm()
        left.left(words[:, t])
        if t % every == every - 1:
            left.renorm()
    for i in range(rows):
        head = tail = GroupElement.identity()
        for k in words[i]:
            head = head @ gens[k]
            tail = gens[k] @ tail
        assert _rel_gap(right, i, head) <= 1e-12
        assert _rel_gap(left, i, tail) <= 1e-12


def test_walk_sig2_keeps_its_bits_away_from_norm_one():
    # away from norm one, sig2 is the closed form bit for bit
    rng = np.random.default_rng(21)
    mats = [random_element(rng, 30.0) for _ in range(2000)]
    a, b, c, d = (np.array(x) for x in zip(*(g.entries() for g in mats)))
    walk = Walk((), (a, b, c, d))
    walk.renorm()
    a, b, c, d = walk.entries()
    f2 = np.abs(a) ** 2 + np.abs(b) ** 2 + np.abs(c) ** 2 + np.abs(d) ** 2
    adet2 = np.abs(a * d - b * c) ** 2
    old = 0.5 * (f2 + np.sqrt(np.maximum(f2 * f2 - 4.0 * adet2, 0.0)))
    assert walk.sig2().tobytes() == old.tobytes()


# -- boundary sampling ---------------------------------------------------------

def test_boundary_sanov_stays_real():
    cloud = sample_boundary(SANOV, 30, 20_000, seed=1)
    nu = sphere_to_plane(cloud.measure)
    fin = nu.finite_mask()
    assert nu.inf_mass() == 0.0
    assert np.abs(nu.points[fin].imag).max() <= 1e-8


def test_boundary_single_matrix_attractor():
    cloud = sample_boundary(SINGLE, 20, 50, seed=0)
    for row in cloud.measure.points:
        assert dist_cp1(ProjPoint.from_vector(*row), E1) <= 1e-12


def test_boundary_stalls_on_su2():
    with pytest.raises(StallError):
        sample_boundary(fl.get_preset("su2-control"), 40, 512, seed=0)


def test_boundary_worker_invariance():
    a = sample_boundary(TWIST, 30, 20_000, seed=5, workers=1)
    b = sample_boundary(TWIST, 30, 20_000, seed=5, workers=4)
    c = sample_boundary(TWIST, 30, 20_000, seed=5, workers=16)
    assert a.measure.points.tobytes() == b.measure.points.tobytes()
    assert b.measure.points.tobytes() == c.measure.points.tobytes()
    assert np.array_equal(a.first_letters, c.first_letters)


def test_default_stop_keeps_the_cells_of_a_deeper_stop():
    # the walks stop at chi > 60 by default; stopping at chi > 80 moves the
    # points by about 1e-13 at most, and no cell at levels 2 to 16
    assert DEFAULT_TARGET_BITS == 30.0
    a = sample_boundary(TWIST, count=8192, seed=4)
    b = sample_boundary(TWIST, 40.0, 8192, seed=4)
    assert np.array_equal(a.first_letters, b.first_letters)
    assert np.abs(a.measure.points - b.measure.points).max() < 1e-12
    assert a.steps.mean() < b.steps.mean()
    for q in range(2, 17):
        assert np.array_equal(a.measure.cell_keys(q), b.measure.cell_keys(q))


def _push_one_step(m, sys, seed):
    """Every sample moved by one generator drawn with the system's weights:
    a sample of the generator-weighted average of the cloud."""
    theta = ThetaSpec(list(sys.generators), list(sys.probs), "one-step")
    return apply_atoms_to_sphere(m, theta, seed)


def _total_variation(a, b, level):
    """TV distance between the level-`level` cell masses of two measures,
    labelled together as the cells of their even mixture."""
    both = EmpiricalMeasure(a.space, np.concatenate([a.points, b.points]),
                            np.concatenate([a.weights, b.weights]) / 2)
    labels = both.cell_labels(level)
    cells = labels.max() + 1
    wa = np.bincount(labels[:a.size], weights=a.weights, minlength=cells)
    wb = np.bincount(labels[a.size:], weights=b.weights, minlength=cells)
    return 0.5 * float(np.abs(wa - wb).sum())


def test_boundary_stationarity_matched_seeds():
    # pushing every sample by one extra random generator resamples the same
    # stationary cloud: cell weights at level 8 agree within the Monte-Carlo
    # noise floor measured from two independent draws
    n = 60_000
    base = sample_boundary(TWIST, 30, n, seed=11).measure
    pushed = _push_one_step(base, TWIST, seed=12)
    indep1 = sample_boundary(TWIST, 30, n, seed=13).measure
    indep2 = sample_boundary(TWIST, 30, n, seed=14).measure
    drift = _total_variation(base, pushed, 8)
    floor = _total_variation(indep1, indep2, 8)
    assert drift <= 1.5 * floor + 0.01


def test_stop_chi_respects_target():
    cloud = sample_boundary(TWIST, 25, 5000, seed=3)
    assert (cloud.stop_chi > 50.0).all()


# -- Lyapunov exponent -----------------------------------------------------------

def test_lyapunov_single_diag_exact():
    est = lyapunov_estimate(SINGLE, n=200, trials=32, seed=0)
    assert abs(est.op_norm.value - 1.0) <= 1e-12
    assert est.op_norm.stderr <= 1e-14


def test_lyapunov_su2_zero():
    # 1.3e-16: the generators' rounded |det| is a little above one
    est = lyapunov_estimate(fl.get_preset("su2-control"), n=500, trials=64,
                            seed=0)
    assert abs(est.op_norm.value) <= 1e-15


def test_lyapunov_su2_rates_match_mpmath():
    # replay the estimator's paths; each product is a scalar multiple of a
    # unitary matrix, so its sigma^2 root is all rounding in floats, and a
    # 40-digit product gives the exact per-path rate
    mpmath = pytest.importorskip("mpmath")
    su2, n, trials, checked = fl.get_preset("su2-control"), 500, 64, 16
    est = lyapunov_estimate(su2, n=n, trials=trials, seed=0)
    rng = block_rng(0, TAG_LYAPUNOV, 0)
    walk = Walk.identity(su2, trials)
    words = []
    for step in range(n):
        words.append(draw_letters(rng, su2.probs_array(), trials))
        walk.left(words[-1])
        if step % 8 == 7 or step == n - 1:
            walk.renorm()
    rates = walk.log2_opnorm() / n
    assert float(np.mean(rates)) == est.op_norm.value
    mpmath.mp.dps = 40
    gens = [mpmath.matrix([[g.a, g.b], [g.c, g.d]]) for g in su2.generators]
    for i in range(checked):
        acc = mpmath.eye(2)
        for letters in words:
            acc = gens[letters[i]] * acc
        f2 = sum(abs(x) ** 2 for x in acc)
        adet = abs(mpmath.det(acc))
        sig2 = (f2 + mpmath.sqrt(max(f2 * f2 - 4 * adet ** 2, 0))) / 2
        exact = mpmath.log(sig2, 2) / (2 * n)
        # the sigma^2 root alone reads up to 2e-8 in log2 ||g||
        assert abs(rates[i] - float(exact)) * n <= 1e-13


def test_lyapunov_estimators_agree():
    for sys_ in (SANOV, TWIST):
        est = lyapunov_estimate(sys_, n=3000, trials=256, seed=2)
        assert est.consistent()
        assert est.op_norm.value > 0.3


def test_lyapunov_worker_invariance():
    a = lyapunov_estimate(TWIST, n=500, trials=2048, seed=9, workers=1)
    b = lyapunov_estimate(TWIST, n=500, trials=2048, seed=9, workers=8)
    assert a.op_norm == b.op_norm and a.telescoped == b.telescoped


def _steep_pair(k):
    """diag(2^k, 2^-k) and [[2^k, 1], [0, 2^-k]], whose walk grows by k
    bits a step."""
    return System((GroupElement(2.0 ** k, 0j, 0j, 2.0 ** -k),
                   GroupElement(2.0 ** k, 1 + 0j, 0j, 2.0 ** -k)),
                  (0.5, 0.5), name=f"steep-{k}")


def test_lazy_walks_refuse_an_overflowing_cadence():
    # 8 steps of norm 2^63 keep squared entries below 2^1024, of 2^64 not;
    # at 64 the telescoped estimate read nan, at 130 both did
    est = lyapunov_estimate(_steep_pair(63), n=100, trials=10)
    assert abs(est.op_norm.value - 63.0) <= 1e-9
    assert abs(est.telescoped.value - 63.0) <= 1e-9
    for k in (64, 130):
        with pytest.raises(FloatOverflowError):
            lyapunov_estimate(_steep_pair(k), n=100, trials=10)
        with pytest.raises(FloatOverflowError):
            fl.exp_boundary_convergence(_steep_pair(k), n_values=(8,),
                                        trials=8)


@pytest.mark.parametrize("call", [
    lambda: run_blocks(lambda start, n, index: n, 0),
    lambda: sample_boundary(SANOV, count=0),
    lambda: lyapunov_estimate(SANOV, n=0, trials=8),
    lambda: lyapunov_estimate(SANOV, n=10, trials=0),
    lambda: delta_estimate(SANOV, q_max=4, count=-1),
    lambda: fl.exp_direction_cocycle(SANOV, trials=0),
    lambda: fl.exp_direction_cocycle(TWIST, n=0, trials=1),
    lambda: fl.random_walk_entropy(TWIST, 0),
    lambda: fl.diophantine_probe(TWIST, 0),
], ids=["run-blocks", "boundary-count", "lyapunov-n", "lyapunov-trials",
        "delta-count", "cocycle-trials", "cocycle-n", "hrw-n-max",
        "dio-n-max"])
def test_empty_sizes_raise_undersampled(call):
    # an empty sample has nothing to merge, and n = 0 steps has no rate
    with pytest.raises(UndersampledError):
        call()


# -- first-letter conditional entropy ----------------------------------------------

def test_delta_degenerate_single_letter():
    ladder = delta_estimate(SINGLE, q_max=4, count=2000, seed=0)
    assert all(r["delta"] == 0.0 for r in ladder.rows)


def test_delta_equal_generators_full_entropy():
    ladder = delta_estimate(REPEATED, q_max=4, count=4000, seed=0,
                            target_bits=20.0)
    # boundary point carries no information about the first letter
    assert all(abs(r["delta"] - 1.0) <= 0.05 for r in ladder.rows)


def test_delta_sanov_schottky_decay():
    ladder = delta_estimate(SANOV, q_max=10, count=30_000, seed=1)
    vals = [r["delta"] for r in ladder.rows]
    assert vals[-1] <= 0.05
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5000), st.integers(2, 6), st.floats(0.001, 0.5),
       st.integers(0, 2 ** 32 - 1))
def test_conditional_letter_entropy_matches_masses(n, k, p, seed):
    # geometric labels: one cell holding many points, a tail of small cells
    rng = np.random.default_rng(seed)
    labels = rng.geometric(p, n) - 1
    letters = rng.integers(0, k, n)
    w = np.full(n, 1.0 / n)
    h = (shannon_entropy(np.bincount(labels * k + letters, weights=w))
         - shannon_entropy(np.bincount(labels, weights=w)))
    assert _conditional_letter_entropy(labels, letters, k) == max(0.0, h)


def test_delta_ladder_matches_masked_chunks():
    # reference: per-level sorted labels of cell_keys and one boolean mask
    # per chunk; 4100 samples leave a short 17th chunk
    cloud = sample_boundary(TWIST, 30, 4100, seed=9)
    letters, k = cloud.first_letters, TWIST.size
    chunk_ids = np.arange(len(letters)) // (len(letters) // 16)
    rows = []
    for q in range(2, 11):
        labels = np.unique(cloud.measure.cell_keys(q), return_inverse=True)[1]
        counts = np.bincount(labels)
        med = float(np.median(counts[labels]))
        sub = [_conditional_letter_entropy(labels[chunk_ids == c],
                                           letters[chunk_ids == c], k)
               for c in range(chunk_ids.max() + 1)]
        rows.append({"q": q,
                     "delta": _conditional_letter_entropy(labels, letters, k),
                     "stderr": float(np.std(sub, ddof=1) / np.sqrt(len(sub))),
                     "bins": int(np.count_nonzero(counts)),
                     "median_bin_count": med,
                     "undersampled": med < MIN_BIN_COUNT})
    for q_max in (10, 12, 31):     # one sort at 10 and 12; per level at 31
        assert delta_ladder(cloud, 10,
                            DyadicLevels(cloud.measure, q_max)).rows == rows


# -- dimension estimators -----------------------------------------------------------

def test_dim_grid_square_exact_slope():
    grid = dyadic_grid_square(9)
    est = dim_estimate(grid, "entropy-slope", window=(2, 8))
    assert abs(est.value - 2.0) <= 1e-9


def test_dim_square_and_segment():
    sq = uniform_square(300_000, seed=21)
    est = dim_estimate(sq, "entropy-slope", window=(2, 7))
    assert abs(est.value - 2.0) <= 0.06
    seg = uniform_segment(300_000, seed=22)
    est2 = dim_estimate(seg, "entropy-slope", window=(2, 9))
    assert abs(est2.value - 1.0) <= 0.06
    loc = dim_estimate(sq, "local-dimension", centers=300, seed=4)
    assert abs(loc.value - 2.0) <= 0.1
    loc2 = dim_estimate(seg, "local-dimension", centers=300, seed=4)
    assert abs(loc2.value - 1.0) <= 0.1


def test_local_dimension_refuses_unequal_weights():
    sq = uniform_square(2000, seed=3)
    weighted = EmpiricalMeasure.on_plane(sq.points,
                                         np.linspace(1.0, 2.0, sq.size))
    with pytest.raises(ConfigError, match="equal weights"):
        dim_estimate(weighted, "local-dimension", centers=50)


def test_dim_window_guard():
    tiny = uniform_square(200, seed=23)
    with pytest.raises(UndersampledError):
        dim_estimate(tiny, "entropy-slope", window=(6, 12))


def test_boundary_transpose_flag(tmp_path):
    # `sample --param transpose=...` samples the transpose system's cloud
    t = SANOV.transposed()
    a = sample_boundary(t, 20, 2000, seed=8)
    assert a.system == t and t.name == "sanov-transpose"
    # slots 3-4 (b) swap with slots 5-6 (c) of each (D, Re a, ..., Im d)
    assert t.exact == tuple((den, ar, ai, cr, ci, br, bi, dr, di)
                            for den, ar, ai, br, bi, cr, ci, dr, di
                            in SANOV.exact)
    b = sample_boundary(SANOV, 20, 2000, seed=8)
    assert a.measure.points.tobytes() != b.measure.points.tobytes()
    sphere_to_plane(a.measure).to_csv(str(tmp_path / "direct.csv"))
    assert main(["sample", "--preset", "sanov", "--seed", "8",
                 "--param", "bits=20", "--param", "count=2000",
                 "--param", "transpose=True",
                 "--out", str(tmp_path / "cli.csv")]) == 0
    assert ((tmp_path / "cli.csv").read_bytes()
            == (tmp_path / "direct.csv").read_bytes())
