"""Assumption certifiers, the circle detector, the separation probe, and the
exact entropy table."""

from fractions import Fraction
from math import comb, log2

import numpy as np

import furstlab as fl
from furstlab.checks import (certify, check_proximality,
                             check_strong_irreducibility, diophantine_probe,
                             find_common_fixed_points, find_fixed_circles,
                             random_walk_entropy)
from furstlab.sl2 import (E1, E2, GaussianRational, GroupElement, dist_cp1,
                          random_element)
from furstlab.words import System

SANOV = fl.get_preset("sanov")
TWIST = fl.get_preset("twist")
INV = fl.get_preset("inverse-pair")
SU2 = fl.get_preset("su2-control")


def _gr(x):
    return GaussianRational(Fraction(x), Fraction(0))


UPPER_PAIR = System.from_exact(
    ((_gr(2), _gr(1), _gr(0), _gr("1/2")),
     (_gr(3), _gr(1), _gr(0), _gr("1/3"))),
    (0.5, 0.5), "upper-pair")

SINGLE_DIAG = System.from_exact(
    ((_gr(2), _gr(0), _gr(0), _gr("1/2")),), (1.0,), "single-diag")

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


# -- circle detector -----------------------------------------------------------

def test_circles_sanov_real_line():
    fam = find_fixed_circles(SANOV)
    assert not fam.degenerate
    assert len(fam.classes) == 1
    c = fam.classes[0]
    assert c.det_sign == "negative"
    target = np.array([0.0, 0.0, 0.0, 1.0])
    v = c.vec4()
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


# -- random walk entropy -----------------------------------------------------------

def test_hrw_sanov_free():
    t = random_walk_entropy(SANOV, 8)
    for n, h, _ in t.rows:
        assert abs(h - n) <= 1e-12
    assert t.free and t.h_rw_estimate == 1.0


def test_hrw_repeated_matrix_zero():
    g = (_gr(2), _gr(0), _gr(0), _gr("1/2"))
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
    assert abs(free.h_at(8) - 8 * free.letter_entropy) <= 1e-12
    collided = random_walk_entropy(TWIST, 9, cap=2_000_000)
    assert not collided.free
    assert collided.h_at(9) < 9 * collided.letter_entropy - 1e-6
