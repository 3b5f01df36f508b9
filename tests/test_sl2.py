"""Core matrix/sphere arithmetic against hand-computed and independent
numeric oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from furstlab.errors import ChartError, LogBranchError, PoleError
from furstlab.sl2 import (E1, E2, INFINITY, GroupElement, ProjPoint,
                          boundary_direction, chart_g, chart_g_inverse,
                          dist_cp1, dist_g_proxy, exact_matrix, exact_mul,
                          mobius_derivative, proj_act, psi, random_element,
                          random_su2, svd2)

RNG = np.random.default_rng(20240811)

IDENT = GroupElement.identity()
SWAP = GroupElement(0j, -1 + 0j, 1 + 0j, 0j)          # [[0,-1],[1,0]]
DIAG2 = GroupElement(2 + 0j, 0j, 0j, 0.5 + 0j)
SHEAR = GroupElement(1 + 0j, 1 + 0j, 0j, 1 + 0j)      # [[1,1],[0,1]]


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol


def mobius(g, z):
    """(az + b)/(cz + d), the Moebius map of g in the ratio chart; INFINITY
    at infinity and at the pole, where the equivariance checks skip."""
    if z is INFINITY or g.c * z + g.d == 0:
        return INFINITY
    return (g.a * z + g.b) / (g.c * z + g.d)


# -- Moebius derivative --------------------------------------------------------

def test_mobius_derivative_cases():
    assert close(mobius_derivative(IDENT, 3 + 1j), 1)
    assert close(mobius_derivative(DIAG2, 7 - 2j), 4)
    assert close(mobius_derivative(SWAP, 1 + 0j), 1)
    with pytest.raises(PoleError):
        mobius_derivative(SWAP, 0j)


# -- projective points -------------------------------------------------------

def test_proj_act_cases():
    p = ProjPoint.from_vector(0.3 + 0.4j, 1.0)
    q = proj_act(IDENT, p)
    assert close(dist_cp1(p, q), 0)
    assert close(dist_cp1(proj_act(DIAG2, E1), E1), 0)
    assert close(dist_cp1(proj_act(SWAP, E1), E2), 0)


def test_canonical_phase():
    p = ProjPoint.from_vector(-2j, 1 + 1j)
    assert p.z1.imag == 0 and p.z1.real > 0
    assert close(abs(p.z1) ** 2 + abs(p.z2) ** 2, 1)
    q = ProjPoint.from_vector(0, 5j)
    assert q.z1 == 0 and q.z2 == 1


def test_dist_cp1_values():
    assert close(dist_cp1(E1, E2), 1)
    assert close(dist_cp1(E1, E1), 0)
    p = ProjPoint.from_vector(1, 1)
    assert close(dist_cp1(p, E1), 1 / math.sqrt(2))


def test_psi_roundtrip():
    assert psi(E1) is INFINITY
    assert close(psi(ProjPoint.from_vector(3 + 1j, 1)), 3 + 1j)
    assert close(dist_cp1(ProjPoint.from_vector(0j, 1), E2), 0)
    z = 0.7 - 0.2j
    assert close(psi(ProjPoint.from_vector(z, 1)), z)


def test_psi_equivariance_sampled():
    for _ in range(300):
        g = random_element(RNG, 6.0)
        p = ProjPoint.from_vector(complex(RNG.standard_normal(), RNG.standard_normal()),
                                  complex(RNG.standard_normal(), RNG.standard_normal()))
        img = psi(proj_act(g, p))
        via = mobius(g, psi(p))
        if img is INFINITY or via is INFINITY:
            continue
        if abs(via) > 1e8:      # too near the pole for a relative check
            continue
        assert abs(img - via) <= 1e-9 * max(1.0, abs(via))


# -- SVD and the direction map ------------------------------------------------

def test_svd_values():
    assert close(svd2(IDENT).sigma, 1)
    s = svd2(GroupElement(3 + 0j, 0j, 0j, 1 / 3 + 0j))
    assert close(s.sigma, 3)
    assert close(dist_cp1(proj_act(s.u, E1), E1), 0, 1e-9)
    s2 = svd2(GroupElement(1 + 0j, 2 + 0j, 0j, 1 + 0j))
    assert close(s2.sigma, 1 + math.sqrt(2), 1e-12)


def test_svd_reconstruction_and_unitarity():
    for _ in range(500):
        g = random_element(RNG, 18.0)
        s = svd2(g)
        r = s.reconstruct()
        scale = max(1.0, g.op_norm())
        err = max(abs(r.a - g.a), abs(r.b - g.b), abs(r.c - g.c),
                  abs(r.d - g.d))
        assert err <= 1e-9 * scale
        for u in (s.u, s.v):
            uu = u.adjoint() @ u
            assert max(abs(uu.a - 1), abs(uu.b), abs(uu.c),
                       abs(uu.d - 1)) <= 1e-9
        assert s.sigma >= 1


def test_boundary_direction_conventions():
    assert close(dist_cp1(boundary_direction(GroupElement(3 + 0j, 0j, 0j, 1 / 3 + 0j)), E1), 0)
    for _ in range(50):
        u = random_su2(RNG)
        assert close(dist_cp1(boundary_direction(u), E1), 0)


def test_boundary_direction_vs_numpy_svd():
    mats = [GroupElement(1 + 0j, 0j, 5 + 0j, 1 + 0j)]
    mats += [random_element(RNG, 12.0) for _ in range(200)]
    for g in mats:
        if g.op_norm() < 1.1:
            continue
        left = boundary_direction(g)
        arr = np.array([[g.a, g.b], [g.c, g.d]])
        u, _, _ = np.linalg.svd(arr)
        oracle = ProjPoint.from_vector(u[0, 0], u[1, 0])
        assert dist_cp1(left, oracle) <= 1e-9


# -- group distance -----------------------------------------------------------

def test_dist_g_values():
    assert close(dist_g_proxy(IDENT, IDENT), 0)
    assert close(dist_g_proxy(IDENT, DIAG2), math.sqrt(2) * math.log(2), 1e-12)


def test_dist_g_left_invariance():
    for _ in range(100):
        g1 = random_element(RNG, 2.0)
        g2 = random_element(RNG, 2.0)
        h = random_element(RNG, 2.0)
        d0 = dist_g_proxy(g1, g2)
        d1 = dist_g_proxy(h @ g1, h @ g2)
        assert abs(d0 - d1) <= 1e-9 * (1.0 + d0)


def test_dist_g_branch_error():
    minus = GroupElement(-1 + 0j, 0j, 0j, -1 + 0j)
    with pytest.raises(LogBranchError):
        dist_g_proxy(IDENT, minus)


def test_dist_g_parabolic_branch():
    # log of [[1,1],[0,1]] is [[0,1],[0,0]]: distance 1 exactly
    assert close(dist_g_proxy(IDENT, SHEAR), 1.0, 1e-12)


# -- chart --------------------------------------------------------------------

def test_chart_values():
    assert chart_g(IDENT) == (0, 0, 0, 0, 0, 0)
    assert chart_g(SHEAR) == (0, 0, 1, 0, 0, 0)
    with pytest.raises(ChartError):
        chart_g(SWAP)


def test_chart_roundtrip():
    for _ in range(200):
        g = random_element(RNG, 1.0)
        if abs(g.a) < 1e-3:
            continue
        back = chart_g_inverse(chart_g(g))
        assert abs(back.det() - 1) <= 1e-12
        assert max(abs(back.a - g.a), abs(back.b - g.b), abs(back.c - g.c),
                   abs(back.d - g.d)) <= 1e-9


# -- metric properties (hypothesis) -------------------------------------------

unit_complex = st.tuples(
    st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False),
).filter(lambda t: t[0] ** 2 + t[1] ** 2 + t[2] ** 2 + t[3] ** 2 > 1e-4)


def _pp(t):
    return ProjPoint.from_vector(complex(t[0], t[1]), complex(t[2], t[3]))


@settings(max_examples=200, deadline=None)
@given(unit_complex, unit_complex, unit_complex)
def test_cp1_triangle_inequality(a, b, c):
    p, q, r = _pp(a), _pp(b), _pp(c)
    assert dist_cp1(p, r) <= dist_cp1(p, q) + dist_cp1(q, r) + 1e-12
    assert abs(dist_cp1(p, q) - dist_cp1(q, p)) <= 1e-15
    assert dist_cp1(p, q) <= 1.0 + 1e-15


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_su2_isometry(seed):
    rng = np.random.default_rng(seed)
    u = random_su2(rng)
    p = _pp(tuple(rng.standard_normal(4)))
    q = _pp(tuple(rng.standard_normal(4)))
    assert abs(dist_cp1(proj_act(u, p), proj_act(u, q))
               - dist_cp1(p, q)) <= 1e-12


# -- sandwich bounds for the ratio chart (sampled) -----------------------------

@pytest.mark.parametrize("radius", [1.0, 10.0])
def test_psi_inverse_sandwich(radius):
    rng = np.random.default_rng(7)
    for _ in range(2000):
        z = complex(*rng.uniform(-radius, radius, 2))
        w = complex(*rng.uniform(-radius, radius, 2))
        if abs(z) >= radius or abs(w) >= radius:
            continue
        d = dist_cp1(ProjPoint.from_vector(z, 1), ProjPoint.from_vector(w, 1))
        assert d <= abs(z - w) + 1e-12
        assert d >= abs(z - w) / (1 + radius ** 2) - 1e-12


def test_operator_norm_inverse_symmetry():
    for _ in range(500):
        g = random_element(RNG, 19.0)
        n1 = g.op_norm()
        n2 = g.inverse().op_norm()
        assert abs(n1 - n2) <= 1e-9 * n1


@pytest.mark.parametrize("radius", [1.0, 10.0])
def test_psi_forward_sandwich(radius):
    # the chart is bi-Lipschitz away from the pole direction:
    # d <= |psi(w) - psi(w')| <= (1 + R^2) d outside B(e1, 1/R)
    rng = np.random.default_rng(13)
    for _ in range(2000):
        v = rng.standard_normal(8)
        w1 = ProjPoint.from_vector(complex(v[0], v[1]), complex(v[2], v[3]))
        w2 = ProjPoint.from_vector(complex(v[4], v[5]), complex(v[6], v[7]))
        if dist_cp1(w1, E1) <= 1 / radius or dist_cp1(w2, E1) <= 1 / radius:
            continue
        gap = abs(psi(w1) - psi(w2))
        d = dist_cp1(w1, w2)
        assert d <= gap + 1e-12
        assert gap <= (1 + radius ** 2) * d + 1e-9


def test_metric_axioms_bulk():
    # 10^4 random triples, vectorized
    rng = np.random.default_rng(41)
    def cloud():
        rows = rng.standard_normal((10_000, 4))
        z = rows[:, 0] + 1j * rows[:, 1]
        w = rows[:, 2] + 1j * rows[:, 3]
        n = np.sqrt(np.abs(z) ** 2 + np.abs(w) ** 2)
        return z / n, w / n
    (a1, a2), (b1, b2), (c1, c2) = cloud(), cloud(), cloud()
    dab = np.abs(a1 * b2 - a2 * b1)
    dbc = np.abs(b1 * c2 - b2 * c1)
    dac = np.abs(a1 * c2 - a2 * c1)
    assert np.all(dac <= dab + dbc + 1e-12)
    assert np.all(dab <= 1 + 1e-15)


def test_equivariance_bulk():
    # psi(g z*C) = phi_g(psi(z*C)) on 10^5 sampled pairs, relative 1e-9
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100_000:
        g = random_element(rng, 6.0)
        block = rng.standard_normal((256, 4))
        for v in block:
            p = ProjPoint.from_vector(complex(v[0], v[1]), complex(v[2], v[3]))
            img = psi(proj_act(g, p))
            via = mobius(g, psi(p))
            checked += 1
            if img is INFINITY or via is INFINITY or abs(via) > 1e8:
                continue
            assert abs(img - via) <= 1e-9 * max(1.0, abs(via))


# -- exact products ------------------------------------------------------------

def _random_gaussian_matrix(rng):
    """Eight row-major Fraction parts Re a, Im a, ..., Im d."""
    return [Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))
            for _ in range(8)]


def _gaussian_product(x, y):
    """Row-major product of two matrices given as eight Fraction parts."""
    xa, xb, xc, xd = zip(x[::2], x[1::2])
    ya, yb, yc, yd = zip(y[::2], y[1::2])

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def add(u, v):
        return (u[0] + v[0], u[1] + v[1])

    out = (add(mul(xa, ya), mul(xb, yc)), add(mul(xa, yb), mul(xb, yd)),
           add(mul(xc, ya), mul(xd, yc)), add(mul(xc, yb), mul(xd, yd)))
    return [f for z in out for f in z]


def _canonical(m):
    return m[0] > 0 and math.gcd(*m) == 1


def test_exact_mul_matches_gaussian_rationals():
    # random Gaussian-rational matrices with denominators, not of det 1
    rng = np.random.default_rng(31)
    for _ in range(300):
        x, y, z = (_random_gaussian_matrix(rng) for _ in range(3))
        mx, my, mz = map(exact_matrix, (x, y, z))
        assert _canonical(mx) and _canonical(my)
        xy = exact_mul(mx, my)
        assert xy == exact_matrix(_gaussian_product(x, y))
        assert _canonical(xy)
        assert exact_mul(xy, mz) == exact_mul(mx, exact_mul(my, mz))


def test_exact_matrix_is_unique():
    # the same matrix reached through different denominators gives one tuple
    diag = exact_matrix(["1/2", 0, 0, 0, 0, 0, 2, 0])
    assert diag == (2, 1, 0, 0, 0, 0, 0, 4, 0)
    inverse = exact_matrix([2, 0, 0, 0, 0, 0, Fraction(1, 2), 0])
    assert exact_mul(diag, inverse) == (1, 1, 0, 0, 0, 0, 0, 1, 0)
