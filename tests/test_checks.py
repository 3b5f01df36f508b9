"""Assumption certifiers, the circle detector, the separation probe, and the
exact entropy table."""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, log2

import numpy as np
import pytest

import furstlab as fl
from furstlab import checks
from furstlab.checks import (DiophantineReport, _group_products,
                             _grouped_products, _level_product, certify,
                             check_proximality, check_strong_irreducibility,
                             diophantine_probe, find_common_fixed_points,
                             find_fixed_circles, random_walk_entropy)
from furstlab.errors import FloatOverflowError, LogBranchError
from furstlab.sl2 import (E1, E2, EXACT_IDENTITY, GroupElement, dist_cp1,
                          exact_matrix, exact_mul, principal_log_norm,
                          random_element)
from furstlab.words import System, draw_letters, product_of_word

SANOV = fl.get_preset("sanov")
TWIST = fl.get_preset("twist")
INV = fl.get_preset("inverse-pair")
SU2 = fl.get_preset("su2-control")


def _real(a, b, c, d):
    """Exact tuple of a matrix with real rational entries a, b, c, d."""
    return exact_matrix([a, 0, b, 0, c, 0, d, 0])


UPPER_PAIR = System.from_exact(
    (_real(2, 1, 0, "1/2"), _real(3, 1, 0, "1/3")), (0.5, 0.5), "upper-pair")

SINGLE_DIAG = System.from_exact((_real(2, 0, 0, "1/2"),), (1.0,),
                                "single-diag")

DIAG_AND_SWAP = System(
    (GroupElement(2 + 0j, 0j, 0j, 0.5 + 0j),
     GroupElement(0j, -1 + 0j, 1 + 0j, 0j)),
    (0.5, 0.5), name="diag-swap")

PARABOLIC = System((GroupElement(1 + 0j, 1 + 0j, 0j, 1 + 0j),), (1.0,),
                   name="parabolic")

IDENTITY_SYS = System((GroupElement.identity(),), (1.0,), name="identity")


# -- fixed points and strong irreducibility ----------------------------------

def test_common_fixed_points_upper_pair():
    pts = find_common_fixed_points(UPPER_PAIR)
    assert len(pts) == 1
    assert dist_cp1(pts[0], E1) <= 1e-9


def test_common_fixed_points_sanov_empty():
    assert find_common_fixed_points(SANOV) == []


def test_common_fixed_points_single_diag():
    pts = find_common_fixed_points(SINGLE_DIAG)
    assert len(pts) == 2
    assert min(dist_cp1(p, E1) for p in pts) <= 1e-9
    assert min(dist_cp1(p, E2) for p in pts) <= 1e-9


def test_strong_irreducibility_sanov_passes():
    rep = check_strong_irreducibility(SANOV)
    assert rep.passes and rep.witness is None
    assert rep.candidates_checked >= 1


def test_strong_irreducibility_swap_pair_fails():
    rep = check_strong_irreducibility(DIAG_AND_SWAP)
    assert not rep.passes
    assert len(rep.witness) == 2
    found = {min(dist_cp1(w, E1) for w in rep.witness),
             min(dist_cp1(w, E2) for w in rep.witness)}
    assert max(found) <= 1e-9


def test_strong_irreducibility_upper_pair_fails():
    rep = check_strong_irreducibility(UPPER_PAIR)
    assert not rep.passes
    assert len(rep.witness) == 1


# -- exact common fixed direction, against constructions ---------------------

def _inv(x):
    """Inverse of an exact tuple of determinant 1: its adjugate."""
    den, ar, ai, br, bi, cr, ci, dr, di = x
    return (den, dr, di, -br, -bi, -cr, -ci, ar, ai)


def _conj(p, x):
    return exact_mul(exact_mul(p, x), _inv(p))


def _gauss(rng):
    """A Gaussian rational with small nonzero parts, so that eigenvalues (and
    the root of the discriminant) are not real."""
    parts = [-4, -3, -2, -1, 1, 2, 3, 4]
    return [Fraction(int(rng.choice(parts)), int(rng.integers(1, 4)))
            for _ in range(2)]


def _triangular(a, b=(0, 0), lower=False):
    """[[a, b], [0, 1/a]], or [[a, 0], [b, 1/a]] when lower."""
    ar, ai = map(Fraction, a)
    n = ar * ar + ai * ai
    off = [0, 0, *b] if lower else [*b, 0, 0]
    return exact_matrix([ar, ai, *off, ar / n, -ai / n])


def _shears(rng, k):
    g = EXACT_IDENTITY
    for _ in range(k):
        for lower in (False, True):
            g = exact_mul(g, _triangular((1, 0), _gauss(rng), lower))
    return g


def _oracle_cases():
    """(generators, expected) pairs whose answer is known by construction:
    conjugating by p moves the eigenlines of diagonal and triangular
    matrices to p e1 and p e2."""
    rng = np.random.default_rng(23)
    golden = exact_matrix([2, 0, 1, 0, 1, 0, 1, 0])  # trace 3, disc 5

    def tri(lower=False):
        return _triangular(_gauss(rng), _gauss(rng), lower)

    for _ in range(12):
        p = _shears(rng, 2)
        diag = _conj(p, _triangular(_gauss(rng)))
        upper = [_conj(p, tri()) for _ in range(2)]
        lower = _conj(p, tri(lower=True))
        parabolic = _conj(p, _triangular((1, 0), _gauss(rng)))
        g = _conj(p, golden)
        generic = _shears(rng, 3)
        yield [upper[0], upper[1], parabolic], True
        yield [parabolic, upper[0]], True
        yield [diag, upper[0]], True          # one eigenline of diag
        yield [diag, lower], True             # the other one
        yield [diag, upper[0], lower], False  # one eigenline each
        yield [g, exact_mul(g, g), exact_mul(exact_mul(g, g), g)], True
        yield [generic, exact_mul(generic, generic)], True
        yield [g, generic], False
        yield [g, exact_mul(g, g), upper[0]], False
        yield [parabolic, lower], False
        yield [EXACT_IDENTITY, upper[0]], False


def test_exact_common_direction_matches_constructions():
    expected, got = [], []
    for gens, want in _oracle_cases():
        sys_ = System.from_exact(gens, [1.0 / len(gens)] * len(gens), "oracle")
        expected.append(want)
        got.append(checks._exact_common_direction(sys_))
    assert got == expected


# -- proximality ---------------------------------------------------------------

def test_proximality_sanov():
    rep = check_proximality(SANOV)
    assert rep.status == "pass"
    assert rep.strict
    assert abs(rep.strict_trace) >= 6 - 1e-9


def test_proximality_su2_fails():
    rep = check_proximality(SU2)
    assert rep.status == "fail"
    assert not rep.strict


def test_proximality_parabolic():
    rep = check_proximality(PARABOLIC)
    assert rep.status == "pass"      # unbounded by repeated squaring
    assert not rep.strict            # every trace equals 2


def _ref_random_word_traces(sys_, rng):
    """The random words of check_proximality, multiplied as GroupElements."""
    for _ in range(checks.PROXIMALITY_TRIALS):
        length = int(rng.integers(2, checks.PROXIMALITY_DEPTH // 2))
        word = tuple(draw_letters(rng, sys_.probs_array(), length).tolist())
        g = GroupElement.identity()
        for i in word:
            g = g @ sys_.generators[i]
            if g.frobenius2() > 1e100:
                break
        yield word, g.trace()


@pytest.mark.parametrize("name", sorted(fl.presets.PRESETS))
def test_proximality_words_match_group_element_reference(name):
    # the same words and traces, bit for bit, and the same draws
    sys_ = fl.get_preset(name)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = list(checks._random_word_traces(sys_, rng))
    want = list(_ref_random_word_traces(sys_, ref_rng))
    assert [(w, t.real.hex(), t.imag.hex()) for w, t in got] \
        == [(w, t.real.hex(), t.imag.hex()) for w, t in want]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- circle detector -----------------------------------------------------------

def test_circles_sanov_real_line():
    fam = find_fixed_circles(SANOV)
    assert not fam.degenerate
    assert len(fam.classes) == 1
    c = fam.classes[0]
    assert c.det_sign == "negative"
    target = np.array([0.0, 0.0, 0.0, 1.0])
    v = np.array([c.h11, c.h22, c.h12.real, c.h12.imag])
    assert min(np.abs(v - target).max(), np.abs(v + target).max()) <= 1e-10


def test_circles_twist_empty():
    fam = find_fixed_circles(TWIST)
    assert fam.classes == [] and not fam.degenerate


def test_circles_identity_degenerate():
    fam = find_fixed_circles(IDENTITY_SYS)
    assert fam.degenerate


def test_circles_conjugation_covariance():
    rng = np.random.default_rng(21)
    base = find_fixed_circles(SANOV).classes[0]

    def hermitian(c):
        return np.array([[c.h11, c.h12], [np.conj(c.h12), c.h22]])

    for _ in range(5):
        h = random_element(rng, 1.5)
        hm = np.array([[h.a, h.b], [h.c, h.d]])
        conj = tuple(
            GroupElement(*(hm @ np.array([[g.a, g.b], [g.c, g.d]])
                           @ np.linalg.inv(hm)).ravel())
            for g in SANOV.generators)
        sys_c = System(conj, SANOV.probs, name="conj")
        fam = find_fixed_circles(sys_c)
        assert len(fam.classes) == 1
        got = hermitian(fam.classes[0])
        want = np.linalg.inv(hm).conj().T @ hermitian(base) @ np.linalg.inv(hm)
        want = want / np.abs(want).max()
        got = got / np.abs(got).max()
        align = got / want[np.unravel_index(np.abs(want).argmax(), want.shape)] \
            * np.abs(want).max()
        scale = align[np.unravel_index(np.abs(want).argmax(), want.shape)]
        assert np.abs(got / scale - want).max() <= 1e-8


# -- Diophantine probe -----------------------------------------------------------

def test_dio_sanov_no_collisions_flat_separation():
    rep = diophantine_probe(SANOV, 6)
    assert rep.collisions_total == 0
    seps = [r["min_separation"] for r in rep.rows if r["min_separation"]]
    assert min(seps) >= 0.5
    assert 0.9 <= rep.fitted_c <= 1.1


def test_dio_inverse_pair_collisions():
    rep = diophantine_probe(INV, 6)
    assert rep.collisions_total > 0
    assert rep.min_separation() > 0


def test_dio_exact_table_rational_preset():
    rep = diophantine_probe(fl.get_preset("discrete-gaussian"), 6)
    assert all(r["min_separation"] is None or r["min_separation"] > 0
               for r in rep.rows)


# -- separation screen against the all-pairs scalar loop -------------------------

def _probe_all_pairs(system, n_max):
    """The probe as a loop of `principal_log_norm` over every pair."""
    rows = []
    for n, reps, _, _ in _grouped_products(system, n_max, 2_000_000):
        grouped = [GroupElement(*z) for z in reps.view(complex).tolist()]
        min_sep, branch_pairs = None, 0
        for i, gi in enumerate(grouped):
            for gj in grouped[i + 1:]:
                try:
                    sep = principal_log_norm(gi.inverse() @ gj)
                except LogBranchError:
                    branch_pairs += 1
                    continue
                if min_sep is None or sep < min_sep:
                    min_sep = sep
        k = len(grouped)
        rows.append({"n": n, "words": system.size ** n, "distinct": k,
                     "collisions": system.size ** n - k,
                     "pairs": k * (k - 1) // 2, "branch_pairs": branch_pairs,
                     "min_separation": min_sep})
    xs = [r["n"] for r in rows if r["min_separation"]]
    ys = [math.log(r["min_separation"]) for r in rows if r["min_separation"]]
    fitted_c = math.exp(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else None
    return DiophantineReport(rows, fitted_c,
                             sum(r["collisions"] for r in rows),
                             sum(r["branch_pairs"] for r in rows))


@pytest.mark.parametrize("name", sorted(fl.presets.PRESETS))
def test_dio_screen_matches_all_pairs_on_presets(name):
    system = fl.get_preset(name)
    assert diophantine_probe(system, 5) == _probe_all_pairs(system, 5)


def _unit(g):
    r = cmath.sqrt(g.a * g.d - g.b * g.c)
    return GroupElement(g.a / r, g.b / r, g.c / r, g.d / r)


def _ratio_eigenvalues():
    """Eigenvalues on, beside and across the log branch test and the
    near-parabolic switch |delta| = 1e-6 |t| of `principal_log_norm`."""
    out = []
    for eps in (0.0, 1e-15, 1e-13, 1e-9,
                *(1e-14 * (1 + k * 1e-3) for k in range(-2, 3))):
        for r in (1.0, 2.0, 30.0):
            out += [-r * cmath.exp(1j * eps), -r * cmath.exp(-1j * eps)]
        out.append(cmath.exp(1j * (math.pi - eps)))
    for x in (0.0, 1e-7, *(2e-6 * (1 + k * 1e-9) for k in range(-2, 3))):
        out += [cmath.exp(x), -cmath.exp(x), cmath.exp(1j * x),
                cmath.exp(1j * (math.pi - x))]
    return out


def test_dio_screen_matches_all_pairs_near_branch_and_parabolic():
    # generators a, a m, b: level-n ratios include m and its conjugates
    rng = np.random.default_rng(23)
    for lam in _ratio_eigenvalues():
        a, b, p = (random_element(rng, lg) for lg in (1.0, 3.0, 1.0))
        m = p @ GroupElement(lam, 0j, 0j, 1 / lam) @ p.inverse()
        system = System((a, _unit(a @ _unit(m)), b), (0.3, 0.3, 0.4))
        assert diophantine_probe(system, 3) == _probe_all_pairs(system, 3), lam


def test_dio_screen_matches_all_pairs_at_large_norms():
    # |trace| up to about 2^50: cancellation in the small eigenvalue
    rng = np.random.default_rng(29)
    for _ in range(8):
        system = System(tuple(_unit(random_element(rng, 8.0)) for _ in range(3)),
                     (0.2, 0.3, 0.5))
        assert diophantine_probe(system, 3) == _probe_all_pairs(system, 3)


def test_dio_screen_keeps_scalar_overflow():
    # the ratio of the last two generators has |b| about 1e6 and an entry
    # 1e150: numpy squares the entry alone, the scalar routine the product,
    # which overflows, so the all-pairs loop raises and the screen must too
    lam = -cmath.exp(3e-6j)
    system = System((GroupElement(1 + 0j, 0j, 0j, 1 + 0j),
                     GroupElement(lam, 1e150 + 0j, 0j, 1 / lam),
                     GroupElement(1 + 0j, 1e-3 + 0j, 0j, 1 + 0j)),
                    (0.3, 0.3, 0.4))
    with pytest.raises(FloatOverflowError, match="length 1"):
        diophantine_probe(system, 1)
    with pytest.raises(OverflowError):
        _probe_all_pairs(system, 1)


def test_dio_screen_duplicate_representatives():
    # distinct exact generators with equal float entries: ratio I, sep 0
    tiny = Fraction(1, 10 ** 30)
    system = System.from_exact(
        (_real(1, 1, 0, 1), _real(1 + tiny, 1, 0, 1 / (1 + tiny)),
         _real(1, 0, 2, 1)),
        (0.3, 0.3, 0.4), "float-twins")
    rep = diophantine_probe(system, 4)
    assert rep == _probe_all_pairs(system, 4)
    assert rep.rows[0]["min_separation"] == 0.0


def test_dio_screen_window_covers_screen_errors(monkeypatch):
    # ratios m and m' of two pairs whose separations differ by 5e-10
    # relative; a screen off by just under SCREEN_REL, up on the least value
    # and down on the rest, must still send the least pair to the scalar
    # routine
    rng = np.random.default_rng(31)
    a, b, p = (random_element(rng, lg) for lg in (1.0, 1.0, 1.0))

    def ratio(x):
        return _unit(p @ GroupElement(cmath.exp(x), 0j, 0j, cmath.exp(-x))
                     @ p.inverse())

    system = System((a, _unit(a @ ratio(1e-3)), b,
                     _unit(b @ ratio(1e-3 * (1 + 5e-10)))),
                    (0.25, 0.25, 0.25, 0.25))
    err = checks.SCREEN_REL * (1 - 1e-3)
    screen = checks._screen_ratios

    def skewed(m):
        # slabs hold the ratios g_i^-1 g_i too, at separation 0
        on_cut, clear, sep = screen(m)
        least = sep[clear & (sep > 0)].min()
        return on_cut, clear, sep * np.where(sep <= least * (1 + 1e-10),
                                             1 + err, 1 - err)

    monkeypatch.setattr(checks, "_screen_ratios", skewed)
    rep = diophantine_probe(system, 1)
    assert rep == _probe_all_pairs(system, 1)
    assert rep.rows[0]["min_separation"] < 1e-2


_CAPPED_PROBE = """
import resource
import scipy.spatial  # the grouping's import, loaded before the cap
import furstlab as fl
with open("/proc/self/status") as fh:
    vm = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
limit = vm * 1024 + ({headroom} << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
print(fl.diophantine_probe(fl.get_preset("twist"), 6).rows[-1]["pairs"])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmSize from /proc")
def test_dio_screen_bounds_memory():
    # 265 356 pairs at n = 6; screening them in one piece needs about
    # 160 MiB more address space, the slabs about 35 MiB
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_PROBE.format(headroom=64)], env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.stdout.strip() == "265356", proc.stderr


# -- grouping of equal float products --------------------------------------------

def _group(rows, weights):
    """(representative rows, group weights, ambiguity flag) of hand-built
    float items with rows (Re a, Im a, Re b, Im b) and c = 0, d = 1."""
    mats = np.array([r + [0.0, 0.0, 1.0, 0.0] for r in rows])
    first, sums, ambiguous = _group_products(mats, np.array(weights), None)
    return mats[first, :4].tolist(), sums.tolist(), ambiguous


# items in order; the grid cell of Re a is floor(Re a / TAU_EQ + 0.5)
GROUP_ROWS = [
    [0.5e-8 - 1e-12, 0.25, 0.0, 0.0],   # cell 0
    [1.0, 0.25, 0.0, 0.0],              # far from the rest
    [0.5e-8 + 1e-12, 0.25, 0.0, 0.0],   # cell 1, 2e-12 from item 0
    [2.0, 0.25, 0.0, 0.0],              # chain start
    [0.5e-8 - 1e-12, 0.25, 0.0, 0.0],   # cell 0 again
    [2.0 + 1.6e-8, 0.25, 0.0, 0.0],     # chain end, 1.6e-8 from its start
    [2.0 + 0.8e-8, 0.25, 0.0, 0.0],     # chain middle, joins both ends
    [1.0, 0.25, 4.5e-8, 0.0],           # 4.5e-8 from item 1
]
GROUP_WEIGHTS = [0.1, 0.2, 0.4, 0.7, 0.2, 0.11, 0.13, 0.17]


def _rows(mats):
    return np.array([[v for z in g.entries() for v in (z.real, z.imag)]
                     for g in mats])


def test_level_product_matches_matmul_bits():
    # byte equality, so signed zeros count too
    rng = np.random.default_rng(17)
    words = [tuple(rng.integers(0, TWIST.size, size=rng.integers(0, 12)))
             for _ in range(40)]
    lefts = [random_element(rng, 8.0) for _ in range(40)] \
        + [product_of_word(TWIST, u) for u in words]
    for rights in ([random_element(rng, 8.0) for _ in range(5)],
                   list(TWIST.generators), list(SANOV.generators)):
        got = _level_product(_rows(lefts), _rows(rights))
        want = _rows([x @ y for x in lefts for y in rights])
        assert got.tobytes() == want.tobytes()


def test_float_overflow_raises_only_past_the_float_range():
    huge = System((GroupElement(1e200 + 0j, 0j, 0j, 1e-200 + 0j),), (1.0,),
                  name="huge")
    with pytest.raises(FloatOverflowError, match="length 2"):
        random_walk_entropy(huge, 3)
    # finite entries whose squares overflow still group (the kd-tree query
    # stops at its distance bound)
    wide = System((GroupElement(1e160 + 0j, 0j, 0j, 1e-160 + 0j),
                   PARABOLIC.generators[0]), (0.5, 0.5), name="wide")
    assert random_walk_entropy(wide, 1).rows == [(1, 1.0, 1.0)]
    # exact mode groups by integers, so overflowing floats do not stop it
    big = Fraction(2 ** 600)
    exact = System.from_exact((_real(big, 0, 0, 1 / big),), (1.0,),
                              "huge-exact")
    assert [h for _, h, _ in random_walk_entropy(exact, 3).rows] == [0.0] * 3


def test_group_products_grid_then_tree_merge():
    # items 0 and 4 share a grid cell; item 2 straddles into the next cell
    # and joins them through the kd-tree, so its weight is added last:
    # (0.1 + 0.2) + 0.4, not (0.1 + 0.4) + 0.2. The chain merges by
    # transitivity though its ends are 1.6e-8 apart.
    reps, weights, ambiguous = _group(GROUP_ROWS[:7], GROUP_WEIGHTS[:7])
    assert reps == [GROUP_ROWS[0], GROUP_ROWS[1], GROUP_ROWS[3]]
    assert weights == [0.7000000000000001, 0.2, 0.94]
    assert not ambiguous


def test_group_products_ambiguity_flag():
    # a pair at distance 4.5e-8, within [TAU_EQ, 10 TAU_EQ], stays apart
    # and sets the flag
    reps, weights, ambiguous = _group(GROUP_ROWS, GROUP_WEIGHTS)
    assert reps == [GROUP_ROWS[0], GROUP_ROWS[1], GROUP_ROWS[3],
                    GROUP_ROWS[7]]
    assert weights == [0.7000000000000001, 0.2, 0.94, 0.17]
    assert ambiguous


# -- random walk entropy -----------------------------------------------------------

def test_hrw_sanov_free():
    t = random_walk_entropy(SANOV, 8)
    for n, h, _ in t.rows:
        assert abs(h - n) <= 1e-12
    assert t.free and t.h_rw_estimate == 1.0


def test_hrw_repeated_matrix_zero():
    g = _real(2, 0, 0, "1/2")
    sys_ = System.from_exact((g, g), (0.5, 0.5), "rep")
    t = random_walk_entropy(sys_, 8)
    assert all(h == 0.0 for _, h, _ in t.rows)


def test_hrw_inverse_pair_binomial():
    t = random_walk_entropy(INV, 10)
    for n, h, _ in t.rows:
        closed = n - sum(comb(n, k) * 2.0 ** -n * log2(comb(n, k))
                         for k in range(n + 1))
        assert abs(h - closed) <= 1e-12


def test_hrw_subadditivity_and_letter_bound():
    for sys_ in (SANOV, INV, TWIST):
        t = random_walk_entropy(sys_, 8)
        hs = {n: h for n, h, _ in t.rows}
        for m in range(1, 5):
            for n in range(1, 4):
                assert hs[m + n] <= hs[m] + hs[n] + 1e-10
        for n, h, hn in t.rows:
            assert h <= n * t.letter_entropy + 1e-10
        ratios = [hn for _, _, hn in t.rows]
        assert all(a >= b - 1e-10 for a, b in zip(ratios, ratios[1:]))


# -- assembled report ------------------------------------------------------------

def test_certify_twist_zariski_dense():
    rep = certify(TWIST)
    assert rep.strongly_irreducible
    assert rep.proximal_status == "pass"
    assert rep.circles.classes == []
    assert rep.zariski_dense


def test_certify_sanov_circle_blocks_density():
    rep = certify(SANOV)
    assert rep.strongly_irreducible and rep.proximal_status == "pass"
    assert any(c.det_sign == "negative" for c in rep.circles.classes)
    assert not rep.zariski_dense


def test_certify_report_serializes():
    d = certify(SU2).to_dict()
    assert d["proximal"] == "fail"
    assert d["zariski_dense"] is False


def test_hrw_equality_iff_distinct():
    free = random_walk_entropy(SANOV, 8)
    assert free.free
    h_n = dict(r[:2] for r in free.rows)          # n -> H_n
    assert abs(h_n[8] - 8 * free.letter_entropy) <= 1e-12
    collided = random_walk_entropy(TWIST, 9, cap=2_000_000)
    assert not collided.free
    h_n = dict(r[:2] for r in collided.rows)
    assert h_n[9] < 9 * collided.letter_entropy - 1e-6
