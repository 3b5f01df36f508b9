"""Word products, the norm cocycle, letter draws and the word sampler,
whose first-passage words are checked against the family's definition."""

import functools
import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import furstlab as fl
from furstlab.errors import StallError
from furstlab.presets import PRESETS
from furstlab.sl2 import (EXACT_IDENTITY, GroupElement, dist_cp1,
                          exact_matrix, exact_mul, random_element, sigma2)
from furstlab.words import (STALL_CHECK_STEPS, STALL_CHI_FRACTION,
                            ScaledMatrix, System, draw_letters, letter_steps,
                            product_of_word, sample_word, scaled_product)


def _exact_diag(top):
    return exact_matrix([top, 0, 0, 0, 0, 0, 1 / Fraction(top), 0])


SINGLE = System.from_exact((_exact_diag(2),), (1.0,), "single")
SANOV = fl.get_preset("sanov")
TWIST = fl.get_preset("twist")
# float generators, for the first passage through blocks of several letters
_PAIR_RNG = np.random.default_rng(2)
RANDOM_PAIR = System(tuple(random_element(_PAIR_RNG, 2.0) for _ in range(2)),
                     (0.5, 0.5), name="random-pair")


def _exact_fold(sys_, u):
    """Exact left-to-right product of u over `sys_.exact`."""
    return functools.reduce(exact_mul, (sys_.exact[i] for i in u),
                            EXACT_IDENTITY)


def test_product_empty_word():
    g = product_of_word(SANOV, ())
    assert g.entries() == (1, 0, 0, 1)
    assert _exact_fold(SANOV, ()) == EXACT_IDENTITY


def test_product_sanov_hand():
    g = product_of_word(SANOV, (0, 1))
    assert g.entries() == (5, 2, 2, 1)
    assert _exact_fold(SANOV, (0, 1)) == (1, 5, 0, 2, 0, 2, 0, 1, 0)


def test_product_associativity_sampled():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = tuple(rng.integers(0, 2, size=rng.integers(0, 6)))
        v = tuple(rng.integers(0, 2, size=rng.integers(1, 6)))
        lhs = _exact_fold(SANOV, u + v)
        rhs = exact_mul(_exact_fold(SANOV, u), _exact_fold(SANOV, v))
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


def _chi(sys_, u):
    return scaled_product(sys_, u).chi()


def test_chi_values():
    assert _chi(SANOV, ()) == 0.0
    assert abs(_chi(SINGLE, (0,)) - 2.0) <= 1e-12
    expected = math.log2(17 + 12 * math.sqrt(2))
    assert abs(_chi(SANOV, (0, 1)) - expected) <= 1e-10


def test_rotation_powers_read_chi_zero():
    # g_2 of twist is the pi/7 rotation, so every power has norm one and
    # chi is 0, where sqrt(f2^2 - 4|det|^2) alone reads 2.1e-8 at k = 4
    assert [_chi(TWIST, (2,) * k) for k in range(1, 15)] == [0.0] * 14


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


def test_chi_long_no_overflow():
    # 400 letters of the sanov pair: far beyond float range for raw products
    word = tuple([0, 1] * 200)
    val = _chi(SANOV, word)
    assert np.isfinite(val) and val > 400


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


def _ref_first_passage(sys_, rng, j, l, n):
    """sample_word's first passage through GroupElement products: each step
    is `@`, then a division by the power of two of the largest entry, and
    chi is read through frobenius2, det and sigma2."""
    cdf = np.cumsum(sys_.probs_array())
    cdf[-1] = 1.0

    def letters(k):
        return tuple(int(np.searchsorted(cdf, u, side="right"))
                     for u in rng.random(k))

    def chi(g, log2_scale):
        s2 = sigma2(g.frobenius2(), abs(g.det()) ** 2)
        return 0.0 if s2 is None else 2.0 * (log2_scale
                                             + 0.5 * math.log2(s2))

    word, g, log2_scale, blocks = [], GroupElement.identity(), 0.0, 0
    block = letters(j)
    while True:
        blocks += 1
        word += block
        for i in block:
            p = g @ sys_.generators[i]
            e = math.frexp(max(abs(x) for x in p.entries()))[1]
            f = math.ldexp(1.0, -e)
            g = GroupElement(p.a * f, p.b * f, p.c * f, p.d * f)
            log2_scale += e
        c = chi(g, log2_scale)
        if c > n:
            return tuple(word)
        if blocks == STALL_CHECK_STEPS and c < STALL_CHI_FRACTION * n:
            raise StallError("norm cocycle is not growing; "
                             "system looks non-proximal")
        block = letters(l)


@pytest.mark.parametrize("passage", [(0, 1, 8), (1, 2, 12)])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_sample_word_matches_group_element_reference(name, passage):
    # the same words, and the same uniforms drawn, up to a stall
    sys_ = fl.get_preset(name)
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(50):
        try:
            got = sample_word(sys_, rng, first_passage=passage)
        except StallError as exc:
            got = str(exc)
        try:
            want = _ref_first_passage(sys_, ref_rng, *passage)
        except StallError as exc:
            want = str(exc)
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    if name == "su2-control":
        assert got == "norm cocycle is not growing; system looks non-proximal"


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


def _in_first_passage(sys_, word, j, l, n):
    """The family's definition: j letters, then whole blocks of l letters,
    with chi above n at the full word and at or below n at every earlier
    block prefix; each block applied by the samplers' `scaled_product`."""
    if len(word) < j or (len(word) - j) % l:
        return False
    acc = scaled_product(sys_, word[:j])
    for s in range(j, len(word), l):
        if acc.chi() > n:
            return False
        acc = scaled_product(sys_, word[s:s + l], acc)
    return acc.chi() > n


def test_sample_word_first_passage_membership():
    rng = np.random.default_rng(2)
    for _ in range(200):
        u = sample_word(SANOV, rng, first_passage=(0, 1, 8))
        assert _in_first_passage(SANOV, u, 0, 1, 8)


@pytest.mark.parametrize("jln", [(1, 2, 8), (0, 3, 8), (2, 3, 10)])
def test_sample_word_first_passage_membership_float_blocks(jln):
    # float generators and blocks of several letters
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = sample_word(RANDOM_PAIR, rng, first_passage=jln)
        assert _in_first_passage(RANDOM_PAIR, u, *jln)


def test_first_passage_single_matrix():
    # diag(2, 1/2) adds 2 to chi per letter, so the family at level 3 is
    # the one word 00
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_word(SINGLE, rng, first_passage=(0, 1, 3)) == (0, 0)


def test_first_passage_sanov_level0():
    # both sanov letters have chi > 0, so the family at level 0 is the
    # alphabet
    rng = np.random.default_rng(1)
    words = {sample_word(SANOV, rng, first_passage=(0, 1, 0))
             for _ in range(100)}
    assert words == {(0,), (1,)}


def test_first_passage_weights_and_bounds():
    # each family word u is drawn with its weight p_u, and its norm lies in
    # 2^(n/2) < ||g_u|| <= C 2^(n/2), C the largest norm of a block
    j, l, n = 1, 2, 12
    const = max(2.0 ** (0.5 * _chi(SANOV, b))
                for b in itertools.product(range(SANOV.size), repeat=l))
    rng = np.random.default_rng(3)
    draws = 4000
    counts = Counter(sample_word(SANOV, rng, first_passage=(j, l, n))
                     for _ in range(draws))
    for u, k in counts.items():
        nrm = 2.0 ** (0.5 * _chi(SANOV, u))
        assert 2.0 ** (n / 2) < nrm <= const * 2.0 ** (n / 2) * (1 + 1e-12)
        # 5 sigma band for Binomial(draws, p_u), plus one draw of slack for
        # words too rare to expect once
        p_u = 0.5 ** len(u)
        assert abs(k - draws * p_u) <= 5 * math.sqrt(draws * p_u) + 1
    assert max(counts.values()) >= 100     # the band checks common words


def test_first_passage_block_prefix_free():
    rng = np.random.default_rng(5)
    words = {sample_word(SANOV, rng, first_passage=(0, 2, 10))
             for _ in range(500)}
    for u in words:
        for cut in range(2, len(u), 2):
            assert u[:cut] not in words, f"{u[:cut]} is a block prefix of {u}"


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
