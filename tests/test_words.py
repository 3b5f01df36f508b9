"""Word products, the norm cocycle, first-passage families, samplers, and
norm-doubling words."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import furstlab as fl
from furstlab.errors import CapExceededError, ExactOverflowError
from furstlab.sl2 import (EXACT_IDENTITY, GaussianRational, GroupElement,
                          dist_cp1, exact_mul)
from furstlab.words import (ScaledMatrix, System, _exact_chi_tie, chi_word,
                            doubling_word_sets, draw_letters,
                            enumerate_first_passage, exact_product,
                            is_doubling_word, product_of_word, sample_word)


def _exact_diag(top):
    t = Fraction(top)
    return (GaussianRational(t, Fraction(0)), GaussianRational.of(0),
            GaussianRational.of(0), GaussianRational(1 / t, Fraction(0)))


SINGLE = System.from_exact((_exact_diag(2),), (1.0,), "single")
SANOV = fl.get_preset("sanov")
INV = fl.get_preset("inverse-pair")
TWIST = fl.get_preset("twist")


def test_product_empty_word():
    g = product_of_word(SANOV, ())
    assert g.entries() == (1, 0, 0, 1)
    assert exact_product(SANOV, ()) == EXACT_IDENTITY


def test_product_sanov_hand():
    g = product_of_word(SANOV, (0, 1))
    assert g.entries() == (5, 2, 2, 1)
    assert exact_product(SANOV, (0, 1)) == (1, 5, 0, 2, 0, 2, 0, 1, 0)


def test_product_associativity_sampled():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = tuple(rng.integers(0, 2, size=rng.integers(0, 6)))
        v = tuple(rng.integers(0, 2, size=rng.integers(1, 6)))
        lhs = exact_product(SANOV, u + v)
        rhs = exact_mul(exact_product(SANOV, u), exact_product(SANOV, v))
        assert lhs == rhs


@pytest.mark.parametrize("gens, probs", [
    (TWIST.generators, (float("nan"), 0.5, 0.5)),
    (TWIST.generators, (float("inf"), 0.5, 0.5)),
    ((GroupElement(float("nan"), 0j, 0j, 1 + 0j),), (1.0,)),
    ((GroupElement(1 + 0j, complex(float("nan")), 0j, 1 + 0j),), (1.0,)),
], ids=["nan-probability", "inf-probability", "nan-entry", "nan-det"])
def test_system_rejects_nan(gens, probs):
    with pytest.raises(ValueError):
        System(gens, probs)


def test_chi_word_values():
    assert chi_word(SANOV, ()) == 0.0
    assert abs(chi_word(SINGLE, (0,)) - 2.0) <= 1e-12
    expected = math.log2(17 + 12 * math.sqrt(2))
    assert abs(chi_word(SANOV, (0, 1)) - expected) <= 1e-10


def test_chi_word_long_no_overflow():
    # 400 letters of the sanov pair: far beyond float range for raw products
    word = tuple([0, 1] * 200)
    val = chi_word(SANOV, word)
    assert np.isfinite(val) and val > 400


def test_exact_overflow_cap():
    with pytest.raises(ExactOverflowError):
        exact_product(SANOV, tuple([0, 1] * 200), bits_cap=64)


def test_exact_chi_tie_matches_fractions():
    # reference: frobenius^2 == 2^n + 2^-n on a Gaussian-rational product
    def tie(sys_, u, n):
        one, zero = GaussianRational.of(1), GaussianRational.of(0)
        acc = (one, zero, zero, one)
        for i in u:
            xa, xb, xc, xd = acc
            ya, yb, yc, yd = sys_.exact[i]
            acc = (xa * ya + xb * yc, xa * yb + xb * yd,
                   xc * ya + xd * yc, xc * yb + xd * yd)
        f2 = sum(x.re * x.re + x.im * x.im for x in acc)
        return f2 == Fraction(2) ** n + Fraction(1, 2 ** n)

    rng = np.random.default_rng(5)
    hits = 0
    for sys_ in (SINGLE, SANOV, INV):
        for _ in range(60):
            u = tuple(rng.integers(0, sys_.size, size=rng.integers(0, 7)))
            g = exact_product(sys_, u)
            for n in range(0, 13):
                hits += _exact_chi_tie(g, n)
                assert _exact_chi_tie(g, n) == tie(sys_, u, n)
    assert hits > 0
    assert _exact_chi_tie(exact_product(SINGLE, (0, 0, 0)), 6)
    assert not _exact_chi_tie(exact_product(SINGLE, (0, 0, 0)), 5)


def test_first_passage_single_matrix():
    ws = enumerate_first_passage(SINGLE, 0, 1, 3, cap=100)
    assert ws.words == [(0, 0)]
    assert abs(ws.total_weight() - 1.0) <= 1e-12


def test_first_passage_sanov_level0():
    ws = enumerate_first_passage(SANOV, 0, 1, 0, cap=100)
    assert sorted(ws.words) == [(0,), (1,)]


def test_first_passage_weights_and_bounds():
    ws = enumerate_first_passage(SANOV, 1, 2, 12, cap=200_000)
    assert abs(ws.total_weight() - 1.0) <= 1e-10
    # norm bounds: 2^(n/2) < ||g_u|| <= C_l 2^(n/2)
    for u in ws.words:
        nrm = 2.0 ** (0.5 * chi_word(SANOV, u))
        assert nrm > 2.0 ** 6
        assert nrm <= ws.block_norm_const * 2.0 ** 6 * (1 + 1e-12)


def test_first_passage_block_prefix_free():
    ws = enumerate_first_passage(SANOV, 0, 2, 10, cap=200_000)
    words = set(ws.words)
    for u in ws.words:
        for cut in range(0, len(u), 2):
            if cut and tuple(u[:cut]) in words:
                pytest.fail(f"{u[:cut]} is a block prefix of {u}")


PAIR = System.from_exact((_exact_diag(2), _exact_diag(4)), (0.5, 0.5), "pair")


@pytest.mark.parametrize("sys_, jln, digest", [
    (SANOV, (1, 2, 12),
     "ad2fa5ff533a3dbee445237dfcaceb62cebf2fb4b9ea81976755290d51ea1d74"),
    (SANOV, (1, 2, 16),
     "acf25be1c502e94562828ddeb57e7c0447582e493e854da6f9f227e16bbe23f3"),
    (PAIR, (1, 2, 12),
     "96e5559d0ab6b7912de616c45a9ec09e398ff1de02205f7bcddac11d9a142b55"),
], ids=["sanov-12", "sanov-16", "diag-pair-12"])
def test_first_passage_carried_exact_ties(sys_, jln, digest):
    # digests of (words, weights, exact_ties) when every frontier word's
    # exact product was formed from scratch
    j, l, n = jln
    ws = enumerate_first_passage(sys_, j, l, n)
    text = repr((ws.words, ws.weights, ws.exact_ties)).encode()
    assert hashlib.sha256(text).hexdigest() == digest
    # the frontier words are the proper block prefixes of the family
    prefixes = {u[:k] for u in ws.words for k in range(j, len(u), l)}
    assert ws.exact_ties == sum(_exact_chi_tie(exact_product(sys_, u), n)
                                for u in prefixes)


def test_first_passage_cap_error():
    with pytest.raises(CapExceededError):
        enumerate_first_passage(SANOV, 0, 1, 40, cap=50)


# Child process: cap its own address space at `headroom` MiB above what it
# has mapped after the imports, then run one enumeration at its default cap.
# It must stop with CapExceededError, not run out of memory.
_CAPPED_CHILD = """
import resource
import furstlab as fl
from furstlab.errors import CapExceededError
with open("/proc/self/status") as fh:
    vm = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
limit = vm * 1024 + ({headroom} << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
try:
    {call}
except CapExceededError:
    print("cap")
except MemoryError:
    print("memory")
"""


def _run_capped(call: str, headroom: int) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    child = _CAPPED_CHILD.format(call=call, headroom=headroom)
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.strip() == "cap", proc.stderr


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmSize from /proc")
def test_first_passage_cap_bounds_memory_on_norm_one_generator():
    # twist's rotation generator has norm one, so its powers never pass the
    # level and the family at (j, l, n) = (0, 1, 1) is infinite
    _run_capped('fl.enumerate_first_passage(fl.get_preset("twist"), 0, 1, 1)',
                512)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmSize from /proc")
def test_doubling_cap_bounds_memory():
    # the frontier keeps every block word, about 3^k words of k letters at
    # depth k on twist; counting examined words would let it reach about
    # 7.6 GB before the default cap
    _run_capped('fl.doubling_word_sets(fl.get_preset("twist"), 0, 1, 40)',
                768)


class _FixedUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u


def _searchsorted_letters(probs, u):
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u, side="right")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 2048])
@pytest.mark.parametrize("size", [0, 1, 7, 1024])
def test_draw_letters_matches_searchsorted(k, size):
    rng = np.random.default_rng(k)
    for trial in range(20):
        probs = rng.random(k) * (rng.random(k) < 0.7)   # zero letters too
        probs[rng.integers(k)] += 0.1
        probs /= probs.sum()
        got, want = np.random.default_rng(trial), np.random.default_rng(trial)
        letters = draw_letters(got, probs, size)
        expect = _searchsorted_letters(probs, want.random(size))
        assert letters.dtype == expect.dtype
        assert np.array_equal(letters, expect)
        assert got.random() == want.random()     # the stream moved alike
        # uniforms on the cdf entries themselves, and at 0
        cdf = np.cumsum(probs)[:-1]
        u = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0)])
        u = np.resize(u[u < 1.0], size)
        assert np.array_equal(draw_letters(_FixedUniforms(u), probs, size),
                              _searchsorted_letters(probs, u))


def test_sample_word_degenerate():
    assert sample_word(SINGLE, np.random.default_rng(0), length=5) == (0,) * 5


def test_sample_word_letter_frequencies():
    rng = np.random.default_rng(5)
    draws = 200_000
    counts = np.zeros(2)
    for _ in range(draws // 10):
        w = sample_word(SANOV, rng, length=10)
        for i in w:
            counts[i] += 1
    # 4 sigma band for Binomial(draws, 1/2)
    p_hat = counts[0] / draws
    sigma = math.sqrt(0.25 / draws)
    assert abs(p_hat - 0.5) <= 4 * sigma


def test_sample_word_first_passage_membership():
    ws = enumerate_first_passage(SANOV, 0, 1, 8, cap=100_000)
    words = set(ws.words)
    rng = np.random.default_rng(2)
    for _ in range(200):
        assert sample_word(SANOV, rng, first_passage=(0, 1, 8)) in words


def test_norm_lower_bound_outside_repelling_ball():
    # ||g_u z|| >= eta ||g_u|| ||z|| whenever z*C avoids B(L(g_u^-1), eta)
    from furstlab.sl2 import boundary_direction
    rng = np.random.default_rng(3)
    eta = 0.2
    for _ in range(200):
        u = tuple(rng.integers(0, 2, size=8))
        g = product_of_word(SANOV, u)
        rep = boundary_direction(g.inverse())
        v = rng.standard_normal(4)
        z = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
        z /= np.linalg.norm(z)
        from furstlab.sl2 import ProjPoint
        p = ProjPoint.from_vector(z[0], z[1])
        if dist_cp1(p, rep) <= eta:
            continue
        img = np.array([g.a * z[0] + g.b * z[1], g.c * z[0] + g.d * z[1]])
        assert np.linalg.norm(img) >= eta * g.op_norm() - 1e-9


def test_doubling_single_matrix_all_words():
    v, m = doubling_word_sets(SINGLE, 0, 1, 4, cap=100)
    assert sorted(len(w) for w in v.words) == [1, 2, 3, 4]
    assert m >= 1


def test_doubling_excludes_cancellation():
    v, _ = doubling_word_sets(INV, 0, 1, 2, cap=100)
    assert (0, 1) not in v.words
    assert (1, 0) not in v.words
    assert (0, 0) in v.words


def test_doubling_empty_at_zero():
    v, _ = doubling_word_sets(SINGLE, 0, 1, 0, cap=100)
    assert v.words == []


def test_doubling_mass_on_twist():
    # sampled block words are norm-doubling with high probability
    tw = fl.get_preset("twist")
    rng = np.random.default_rng(12)
    j, l, n = 0, 6, 40
    hits = 0
    trials = 200
    for _ in range(trials):
        k = int(rng.integers(1, n + 1))
        w = sample_word(tw, rng, length=j + l * k)
        hits += is_doubling_word(tw, w, j, l)
    assert hits / trials >= 0.9


def test_scaled_matrix_matches_direct_product():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = tuple(rng.integers(0, 2, size=10))
        acc = ScaledMatrix.identity()
        for i in u:
            acc = acc.times(SANOV.generators[i])
        direct = product_of_word(SANOV, u)
        assert abs(acc.chi() - 2 * math.log2(direct.op_norm())) <= 1e-9
