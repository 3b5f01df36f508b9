"""Dyadic partitions, entropies, components, and measure arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from furstlab.dyadic import (C_INF, CP1, G_CHART, RP1, EmpiricalMeasure,
                             component_average, dyadic_grid_square,
                             project_component, shannon_entropy,
                             sphere_embedding, total_variation,
                             uniform_square, uniform_segment)
from furstlab.sl2 import dist_cp1, ProjPoint

RNG = np.random.default_rng(99)


def _random_sphere_cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 4))
    z = rows[:, 0] + 1j * rows[:, 1]
    w = rows[:, 2] + 1j * rows[:, 3]
    return EmpiricalMeasure.on_sphere(np.stack([z, w], axis=1))


# -- cells ---------------------------------------------------------------------

def test_cinf_cell_values():
    m = EmpiricalMeasure.on_plane(np.array([0.3 + 0.7j]))
    cell = m.cell_of(0, 1)
    assert cell.index == (0, 1) and not cell.atom


def test_infinity_atom():
    m = EmpiricalMeasure.on_plane(np.array([1.0 + 0j, np.inf + 0j]))
    cell = m.cell_of(1, 5)
    assert cell.atom
    assert cell.parent().atom
    assert abs(m.inf_mass() - 0.5) <= 1e-15


def test_refinement_floor_halving():
    spaces = {
        C_INF: EmpiricalMeasure.on_plane(
            (RNG.standard_normal(10_000) * 3 + 1j * RNG.standard_normal(10_000) * 3)),
        CP1: _random_sphere_cloud(10_000, 1),
        RP1: EmpiricalMeasure.on_lines(RNG.random(10_000) * math.pi),
    }
    for space, m in spaces.items():
        for lev in (1, 4, 7):
            fine = m.cell_keys(lev + 1)
            coarse = m.cell_keys(lev)
            for i in range(0, m.size, 977):
                cell = m.cell_of(i, lev + 1)
                assert cell.parent() == m.cell_of(i, lev), space
            # vectorized check of the complex-key halving rule
            if space in (C_INF, CP1):
                assert np.all(np.floor(fine.real / 2) == coarse.real)
                assert np.all(np.floor(fine.imag / 2) == coarse.imag)


def test_cp1_cell_count_bound():
    for seed in range(3):
        m = _random_sphere_cloud(50_000, seed)
        for lev in range(0, 7):
            keys = m.cell_keys(lev)
            assert len(np.unique(keys)) <= 2 * 4 ** lev + 2


def test_sphere_embedding_is_isometric():
    m = _random_sphere_cloud(500, 3)
    pts = sphere_embedding(m.points)
    for _ in range(300):
        i, j = RNG.integers(0, 500, 2)
        d1 = np.linalg.norm(pts[i] - pts[j])
        p = ProjPoint.from_vector(*m.points[i])
        q = ProjPoint.from_vector(*m.points[j])
        assert abs(d1 - dist_cp1(p, q)) <= 1e-12


def _random_measure(space, n, seed):
    """Weighted cloud in `space` with some points on cell and chart edges."""
    rng = np.random.default_rng(seed)
    w = rng.random(n) + 0.01
    scale = 2.0 ** rng.integers(-4, 5)
    if space == C_INF:
        zs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
        zs[::7] = np.round(zs[::7] * 8) / 8           # on grid lines
        zs[::11] = np.inf + 0j                        # the infinity atom
        return EmpiricalMeasure.on_plane(zs, w)
    if space == CP1:
        rows = rng.standard_normal((n, 4))
        pairs = np.stack([rows[:, 0] + 1j * rows[:, 1],
                          rows[:, 2] + 1j * rows[:, 3]], axis=1)
        pairs[::5, 1] = pairs[::5, 0]                 # |z1| = |z2|
        pairs[::13, 0] = 0.0                          # e2
        return EmpiricalMeasure.on_sphere(pairs, w)
    if space == RP1:
        t = rng.random(n) * math.pi
        t[::6] = 0.0
        return EmpiricalMeasure.on_lines(t, w)
    return EmpiricalMeasure.on_group_chart(rng.standard_normal((n, 6)) * scale,
                                           w)


@pytest.mark.parametrize("space", [C_INF, CP1, RP1, G_CHART])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(0, 10), st.integers(0, 2 ** 32 - 1))
def test_cells_labels_and_entropy_agree(space, n, level, seed):
    m = _random_measure(space, n, seed)
    labels = m.cell_labels(level)
    comps = m.components(level)
    # all weights are positive, so component k is the cell labelled k
    assert len(comps) == labels.max() + 1
    for i in range(n):
        assert comps[labels[i]][0] == m.cell_of(i, level)
    masses = np.bincount(labels, weights=m.weights)
    assert m.entropy(level).entropy == shannon_entropy(masses)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_plane_entropy_refinement_bounds(n, level, seed):
    m = _random_measure(C_INF, n, seed)
    h0 = m.entropy(level).entropy
    h1 = m.entropy(level + 1).entropy
    assert h0 <= h1 + 1e-12
    assert h1 <= h0 + 2.0 + 1e-12


# -- entropy ---------------------------------------------------------------------

def test_entropy_exact_uniform_grid():
    grid = dyadic_grid_square(5)           # 1024 atoms, exactly uniform
    for n in range(0, 6):
        rep = grid.entropy(n)
        assert abs(rep.entropy - 2 * n) <= 1e-12


def test_entropy_single_atom_zero():
    m = EmpiricalMeasure.on_plane(np.full(100, 0.25 + 0.25j))
    assert m.entropy(6).entropy == 0.0


def test_entropy_conditional_uniform4():
    pts = np.array([0.25 + 0.25j, 0.75 + 0.25j, 0.25 + 0.75j, 0.75 + 0.75j])
    m = EmpiricalMeasure.on_plane(pts)
    assert abs(m.entropy(1).entropy - 2.0) <= 1e-12
    rep = m.entropy(1, cond=0)
    assert abs(rep.entropy - 2.0) <= 1e-12


def test_conditional_entropy_rate_bound():
    # (1/k) H(xi, D_{n+k} | D_n) <= 2 on the plane
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = EmpiricalMeasure.on_plane(
            rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
        for n, k in ((0, 3), (2, 4), (5, 2)):
            rep = m.entropy(n + k, cond=n)
            assert rep.entropy / k <= 2.0 + 1e-9


def test_entropy_concavity_and_almost_convexity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        parts = [EmpiricalMeasure.on_plane(
            rng.standard_normal(400) * s + 1j * rng.standard_normal(400) + t)
            for s, t in zip(rng.uniform(0.2, 2, 3), rng.uniform(-2, 2, 3))]
        q = rng.dirichlet(np.ones(3))
        mix = EmpiricalMeasure.on_plane(
            np.concatenate([p.points for p in parts]),
            np.concatenate([qi * p.weights for qi, p in zip(q, parts)]))
        for lev in (2, 5):
            hs = [p.entropy(lev).entropy for p in parts]
            hmix = mix.entropy(lev).entropy
            hq = -sum(x * math.log2(x) for x in q if x > 0)
            assert sum(qi * h for qi, h in zip(q, hs)) <= hmix + 1e-9
            assert hmix <= sum(qi * h for qi, h in zip(q, hs)) + hq + 1e-9


def test_bias_note_guard():
    m = uniform_square(500, seed=1)
    assert m.entropy(8).bias_note is not None
    assert m.entropy(1).bias_note is None


# -- bi-Lipschitz and close-function stability ------------------------------------

def test_entropy_scaling_stability():
    # H(f m, D_L) tracks H(m, D_{L + log2 s}) for f(z) = s z + t
    m = uniform_square(20_000, seed=2)
    for k in (-10, -3, 0, 3, 10):
        s = 2.0 ** k
        t = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
        pushed = EmpiricalMeasure.on_plane(m.points * s + t, m.weights)
        lev = max(0, -k) + 2
        h_pushed = pushed.entropy(lev).entropy
        h_base = m.entropy(lev + k).entropy
        assert abs(h_pushed - h_base) <= 6.0


def test_entropy_close_functions():
    rng = np.random.default_rng(8)
    n = 7
    base_pts = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
    wiggle = (rng.random(20_000) - 0.5 + 1j * (rng.random(20_000) - 0.5))
    close_pts = base_pts + wiggle * (2.0 ** -n / abs(wiggle).max())
    h1 = EmpiricalMeasure.on_plane(base_pts).entropy(n).entropy
    h2 = EmpiricalMeasure.on_plane(close_pts).entropy(n).entropy
    assert abs(h1 - h2) <= 6.0


# -- components --------------------------------------------------------------------

def test_components_single_cell():
    m = EmpiricalMeasure.on_plane(np.array([0.1 + 0.1j, 0.2 + 0.2j]))
    comps = m.components(0)
    assert len(comps) == 1
    _, mass, sub = comps[0]
    assert abs(mass - 1.0) <= 1e-15 and sub.size == 2


def test_components_masses_sum_to_one():
    m = uniform_square(5000, seed=4)
    for lev in (1, 3, 5):
        total = sum(mass for _, mass, _ in m.components(lev))
        assert abs(total - 1.0) <= 1e-10


def test_global_to_local_entropy():
    # (1/n) H(m, D_{i+n}) matches the level-averaged component entropies up
    # to O(m'/n) on a uniform fixture
    grid = dyadic_grid_square(9)
    i, n, mprime = 1, 6, 2
    lhs = (grid.entropy(i + n).entropy - grid.entropy(i).entropy) / n

    def comp_ent(cell, mass, comp):
        return comp.entropy(cell.level + mprime).entropy / mprime

    rhs = component_average(grid, range(i, i + n + 1), comp_ent)
    assert abs(lhs - rhs) <= 0.5 + 2.0 * mprime / n


# -- projections --------------------------------------------------------------------

def test_project_component_identity_on_real_line():
    m = EmpiricalMeasure.on_plane(RNG.random(100).astype(complex))
    p = project_component(m, 0.0)
    assert np.allclose(p.points, m.points)


def test_project_two_atoms_collapse():
    m = EmpiricalMeasure.on_plane(np.array([1j, -1j]))
    p = project_component(m, 0.0)
    assert np.allclose(p.points, 0)


def test_projection_entropy_upper_bound():
    m = uniform_square(20_000, seed=6)
    for ang in (0.0, 0.4, 1.1):
        p = project_component(m, ang)
        for lev in (3, 6):
            assert p.entropy(lev).entropy <= m.entropy(lev).entropy + 2.0


def test_project_component_rejects_infinity():
    m = EmpiricalMeasure.on_plane(np.array([0j, np.inf + 0j]))
    with pytest.raises(ValueError):
        project_component(m, 0.0)


# -- misc ----------------------------------------------------------------------------

def test_total_variation_self_zero():
    m = uniform_square(1000, seed=7)
    assert total_variation(m, m, 6) == 0.0


def test_csv_export_format(tmp_path):
    m = EmpiricalMeasure.on_plane(np.array([0.5 + 0.25j, 1.0 / 3 + 0j]))
    path = tmp_path / "cloud.csv"
    m.to_csv(path)
    text = path.read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "re,im,weight"
    assert "0.33333333333333331" in lines[2]
    assert "\r" not in text


def test_segment_fixture_is_one_dimensional():
    seg = uniform_segment(50_000, seed=9, angle=0.3)
    h4 = seg.entropy(4).entropy
    h8 = seg.entropy(8).entropy
    assert abs((h8 - h4) / 4 - 1.0) <= 0.05


def test_dyadic_cell_standalone():
    from furstlab.dyadic import dyadic_cell, C_INF, CP1, RP1, G_CHART
    from furstlab.sl2 import INFINITY, ProjPoint, RPoint
    c = dyadic_cell(C_INF, 0.3 + 0.7j, 1)
    assert c.index == (0, 1)
    assert dyadic_cell(C_INF, INFINITY, 4).atom
    p = dyadic_cell(CP1, ProjPoint.from_vector(1, 0.2), 3)
    assert p.index[0] == 0 and len(p.index) == 3
    r = dyadic_cell(RP1, RPoint(0.5), 4)
    assert r.index == (int(0.5 / math.pi * 16),)
    g = dyadic_cell(G_CHART, (0.1, 0, 0, 0, 0, 0), 3)
    assert len(g.index) == 6


def test_csv_export_sphere_schema(tmp_path):
    m = _random_sphere_cloud(5, seed=12)
    path = tmp_path / "sphere.csv"
    m.to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "z1re,z1im,z2re,z2im,weight"
    assert len(lines) == 6
