"""Word products, the norm cocycle, first-passage families, samplers, and
norm-doubling words."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import furstlab as fl
from furstlab.errors import CapExceededError, ExactOverflowError, StallError
from furstlab.presets import PRESETS
from furstlab.sl2 import (EXACT_IDENTITY, GroupElement, dist_cp1,
                          exact_matrix, exact_mul, random_element)
from furstlab.words import (ScaledMatrix, System, _exact_chi_tie, chi_word,
                            doubling_word_sets, draw_letters,
                            enumerate_first_passage, exact_product,
                            letter_steps, product_of_word, sample_word,
                            scaled_product)


def _exact_diag(top):
    return exact_matrix([top, 0, 0, 0, 0, 0, 1 / Fraction(top), 0])


SINGLE = System.from_exact((_exact_diag(2),), (1.0,), "single")
SANOV = fl.get_preset("sanov")
INV = fl.get_preset("inverse-pair")
TWIST = fl.get_preset("twist")
# float generators whose first-passage families at the levels below are
# finite: 806 words at (j, l, n) = (1, 2, 8)
_PAIR_RNG = np.random.default_rng(2)
RANDOM_PAIR = System(tuple(random_element(_PAIR_RNG, 2.0) for _ in range(2)),
                     (0.5, 0.5), name="random-pair")


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


@pytest.mark.parametrize("x, message", [
    ((2, 2, 0, 0, 0, 0, 0, 2, 0), "not canonical"),      # I as 2I / 2
    ((-1, -1, 0, 0, 0, 0, 0, -1, 0), "not canonical"),   # I with D < 0
    ((1, 2, 0, 0, 0, 0, 0, 1, 0), "determinant"),
], ids=["common-factor", "negative-denominator", "det-2"])
def test_system_rejects_bad_exact_tuple(x, message):
    with pytest.raises(ValueError, match=message):
        System.from_exact((x,), (1.0,), "bad")


def test_chi_word_values():
    assert chi_word(SANOV, ()) == 0.0
    assert abs(chi_word(SINGLE, (0,)) - 2.0) <= 1e-12
    expected = math.log2(17 + 12 * math.sqrt(2))
    assert abs(chi_word(SANOV, (0, 1)) - expected) <= 1e-10


def test_rotation_powers_read_chi_zero():
    # g_2 of twist is the pi/7 rotation, so every power has norm one and
    # chi is 0, where sqrt(f2^2 - 4|det|^2) alone reads 2.1e-8 at k = 4
    assert [chi_word(TWIST, (2,) * k) for k in range(1, 15)] == [0.0] * 14


def test_first_passage_with_norm_one_generator_hits_cap():
    # (2,) * k never passes chi = 0, so the family is infinite
    with pytest.raises(CapExceededError):
        enumerate_first_passage(TWIST, 0, 1, 0)


def test_norms_keep_their_bits_away_from_norm_one():
    # away from norm one, both norms are the closed forms bit for bit
    rng = np.random.default_rng(20)
    for _ in range(2000):
        g = random_element(rng, 30.0)
        f2 = g.frobenius2()
        assert f2 - 2.0 > 1e-9
        assert g.op_norm() == math.sqrt(0.5 * (f2 + math.sqrt(f2 * f2 - 4.0)))
        acc = ScaledMatrix.identity().times(g).times(g)
        f2, adet2 = acc.g.frobenius2(), abs(acc.g.det()) ** 2
        sig2 = 0.5 * (f2 + math.sqrt(max(f2 * f2 - 4.0 * adet2, 0.0)))
        assert acc.log2_op_norm() == acc.log2_scale + 0.5 * math.log2(sig2)


def test_chi_word_long_no_overflow():
    # 400 letters of the sanov pair: far beyond float range for raw products
    word = tuple([0, 1] * 200)
    val = chi_word(SANOV, word)
    assert np.isfinite(val) and val > 400


def test_exact_overflow_cap():
    with pytest.raises(ExactOverflowError):
        exact_product(SANOV, tuple([0, 1] * 200), bits_cap=64)


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def test_exact_chi_tie_matches_fractions():
    # reference: frobenius^2 == 2^n + 2^-n on a product of Fraction pairs
    def tie(sys_, u, n):
        one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
        acc = (one, zero, zero, one)
        for i in u:
            den, *parts = sys_.exact[i]
            ya, yb, yc, yd = ((Fraction(re, den), Fraction(im, den))
                              for re, im in zip(parts[::2], parts[1::2]))
            xa, xb, xc, xd = acc
            acc = (_add(_mul(xa, ya), _mul(xb, yc)),
                   _add(_mul(xa, yb), _mul(xb, yd)),
                   _add(_mul(xc, ya), _mul(xd, yc)),
                   _add(_mul(xc, yb), _mul(xd, yd)))
        f2 = sum(re * re + im * im for re, im in acc)
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
    assert abs(math.fsum(ws.weights) - 1.0) <= 1e-12


def test_first_passage_sanov_level0():
    ws = enumerate_first_passage(SANOV, 0, 1, 0, cap=100)
    assert sorted(ws.words) == [(0,), (1,)]


def test_first_passage_weights_and_bounds():
    ws = enumerate_first_passage(SANOV, 1, 2, 12, cap=200_000)
    assert abs(math.fsum(ws.weights) - 1.0) <= 1e-10
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


@pytest.mark.parametrize("sys_, jln", [
    (SANOV, (1, 2, 6)), (SANOV, (0, 1, 5)),
    (fl.get_preset("discrete-gaussian"), (0, 2, 4)), (PAIR, (1, 2, 12)),
    (RANDOM_PAIR, (2, 3, 10)),
], ids=["sanov-1-2-6", "sanov-0-1-5", "dgauss-0-2-4", "diag-pair-1-2-12",
        "random-pair-2-3-10"])
def test_first_passage_cap_boundary(sys_, jln):
    # the stored words are the family and its proper block prefixes
    j, l, _ = jln
    ws = enumerate_first_passage(sys_, *jln)
    opened = {u[:k] for u in ws.words for k in range(j, len(u), l)}
    stored = sum(map(len, ws.words)) + sum(map(len, opened))
    assert enumerate_first_passage(sys_, *jln, cap=stored).words == ws.words
    with pytest.raises(CapExceededError):
        enumerate_first_passage(sys_, *jln, cap=stored - 1)


@pytest.mark.parametrize("sys_, jln", [
    (TWIST, (0, 1, 4)), (SANOV, (1, 2, 3)), (INV, (2, 3, 2)),
    (RANDOM_PAIR, (1, 2, 3)),
], ids=["twist-0-1-4", "sanov-1-2-3", "inverse-pair-2-3-2",
        "random-pair-1-2-3"])
def test_doubling_cap_boundary(sys_, jln):
    # every block word of up to n blocks is stored
    j, l, n = jln
    stored = sum(sys_.size ** (j + k * l) * (j + k * l) for k in range(n + 1))
    words = doubling_word_sets(sys_, *jln)[0].words
    assert doubling_word_sets(sys_, *jln, cap=stored)[0].words == words
    with pytest.raises(CapExceededError):
        doubling_word_sets(sys_, *jln, cap=stored - 1)


def test_cap_counts_prefix_level_from_first_block_level():
    # at n = 0 every sanov prefix of two letters passes, so no block level
    # follows and the four prefixes (8 letters) are returned whatever the cap
    ws = enumerate_first_passage(SANOV, 2, 3, 0, cap=0)
    assert ws.words == list(itertools.product(range(2), repeat=2))
    assert doubling_word_sets(SANOV, 2, 3, 0, cap=0)[0].words == []
    # with one block level: 8 prefix letters and 32 words of 5 letters
    with pytest.raises(CapExceededError):
        doubling_word_sets(SANOV, 2, 3, 1, cap=8 + 32 * 5 - 1)


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


@pytest.mark.parametrize("size", [1, 3, 1024])
def test_letter_steps_match_draw_letters(size):
    # 70 steps cross two chunk boundaries of letter_steps
    for probs in (TWIST.probs_array(), np.full(6, 1.0 / 6.0)):
        steps = letter_steps(np.random.default_rng(size), probs, size)
        rng = np.random.default_rng(size)
        for _ in range(70):
            got = next(steps)
            want = draw_letters(rng, probs, size)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


# sha256 of 200 first-passage words at (1, 2, 12), None for a stall, then
# 200 words of length 12, from default_rng(13); recorded before sample_word
# drew its letters by binary search
SAMPLE_WORD_DIGESTS = {
    "discrete-gaussian": "4a7a4f05233304b44b7669535966a27b2ccb56e8f5d5467006802ad0921426a1",
    "inverse-pair": "445a51db1d7385c04308598698b370890b1bacfe63e685703493d449df067135",
    "sanov": "255d42ee8b60cc517f73d9f5c18ac1bd1b6849bff83c4520e4762630b851ab0e",
    "su2-control": "0094a59e9112b5ce12b246865c3f3d0d0c41750d1fdfbbda8bf4d3db09fad1b2",
    "twist": "a811ca14f19d8746b12a62a5aea1c4a50f24a6b42cee2cbd501faca3ec65c08d",
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sample_word_keeps_its_words(name):
    sys_ = fl.get_preset(name)
    rng = np.random.default_rng(13)
    passage = []
    for _ in range(200):
        try:
            passage.append(sample_word(sys_, rng, first_passage=(1, 2, 12)))
        except StallError:
            passage.append(None)
    fixed = [sample_word(sys_, rng, length=12) for _ in range(200)]
    text = json.dumps([passage, fixed], sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == SAMPLE_WORD_DIGESTS[name]


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


@pytest.mark.parametrize("jln", [(1, 2, 8), (0, 3, 8), (2, 3, 10)])
def test_sample_word_first_passage_membership_float_blocks(jln):
    # float generators and blocks of several letters: the sampler and the
    # enumeration apply a block by the same scaled product
    words = set(enumerate_first_passage(RANDOM_PAIR, *jln).words)
    rng = np.random.default_rng(4)
    for _ in range(200):
        assert sample_word(RANDOM_PAIR, rng, first_passage=jln) in words


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


def _is_doubling_word(sys, word, j, l):
    """The full product more than doubles the squared norm of every block
    prefix: ||g_v||^2 > 2 ||g_{u_0...u_i}||^2, i.e. a log2 gap above 1/2."""
    acc = scaled_product(sys, word[:j])
    prefixes = [acc.log2_op_norm()]
    for s in range(j, len(word), l):
        acc = scaled_product(sys, word[s:s + l], acc)
        prefixes.append(acc.log2_op_norm())
    full = prefixes.pop()
    return all(full > q + 0.5 for q in prefixes)


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
        hits += _is_doubling_word(tw, w, j, l)
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
