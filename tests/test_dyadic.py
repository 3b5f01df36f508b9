"""Dyadic partitions, entropies, components, and measure arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from furstlab.dyadic import (C_INF, CP1, G_CHART, MORTON_MAX_LEVEL,
                             PROJECTION_BLOCK, DyadicLevels, EmpiricalMeasure,
                             canonicalize_rows, cell_entropy,
                             dyadic_grid_square, project_component,
                             projection_entropies, shannon_entropy,
                             sphere_embedding, uniform_square, uniform_segment)
from furstlab.engine import sample_boundary
from furstlab.presets import get_preset
from furstlab.sl2 import dist_cp1, ProjPoint

RNG = np.random.default_rng(99)


def _on_sphere(rows, weights=None):
    """The cp1 measure on the canonical forms of `rows`, uniform by default."""
    n = len(rows)
    w = np.full(n, 1.0 / n) if weights is None else weights / weights.sum()
    return EmpiricalMeasure(CP1, canonicalize_rows(rows), w)


def _random_sphere_cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 4))
    z = rows[:, 0] + 1j * rows[:, 1]
    w = rows[:, 2] + 1j * rows[:, 3]
    return _on_sphere(np.stack([z, w], axis=1))


# -- cells ---------------------------------------------------------------------

def test_cinf_cell_values():
    # level-1 cells [0, 1/2) x [1/2, 1), [1/2, 1) x [1/2, 1) and
    # [0, 1/2) x [0, 1/2), numbered in the order of (ix, iy)
    m = EmpiricalMeasure.on_plane(
        np.array([0.3 + 0.7j, 0.1 + 0.99j, 0.6 + 0.7j, 0.3 + 0.2j]))
    assert m.cell_labels(1).tolist() == [1, 1, 2, 0]


def test_infinity_atom():
    # the atom at infinity is one cell at every level, after the finite ones
    m = EmpiricalMeasure.on_plane(np.array([np.inf + 0j, 1.0 + 0j, 3.0 + 0j]))
    for level in (0, 5):
        assert m.cell_labels(level).tolist() == [2, 0, 1]
    assert abs(m.inf_mass() - 1 / 3) <= 1e-15


def test_refinement_floor_halving():
    # every level-(q+1) cell lies in exactly one level-q cell
    spaces = {
        C_INF: EmpiricalMeasure.on_plane(
            (RNG.standard_normal(10_000) * 3 + 1j * RNG.standard_normal(10_000) * 3)),
        CP1: _random_sphere_cloud(10_000, 1),
        G_CHART: EmpiricalMeasure.on_group_chart(
            RNG.standard_normal((10_000, 6)) * 0.3),
    }
    for space, m in spaces.items():
        for lev in (1, 4, 7):
            fine = m.cell_labels(lev + 1)
            coarse = m.cell_labels(lev)
            parent = np.full(fine.max() + 1, -1)
            parent[fine] = coarse
            assert np.array_equal(parent[fine], coarse), space


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
        return _on_sphere(pairs, w)
    return EmpiricalMeasure.on_group_chart(rng.standard_normal((n, 6)) * scale,
                                           w)


@pytest.mark.parametrize("space", [C_INF, CP1, G_CHART])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(0, 10), st.integers(0, 2 ** 32 - 1))
def test_cells_labels_and_entropy_agree(space, n, level, seed):
    m = _random_measure(space, n, seed)
    labels = m.cell_labels(level)
    comps = m.components(level)
    # all weights are positive, so component k is the cell labelled k: it
    # holds the points labelled k, in point order
    assert len(comps) == labels.max() + 1
    for k, (_, sub) in enumerate(comps):
        assert np.array_equal(sub.points, m.points[labels == k])
    masses = np.bincount(labels, weights=m.weights)
    assert m.entropy(level).entropy == shannon_entropy(masses)


# -- equal weights: entropies from the histogram of counts ---------------------

def _masses_entropy(labels, w):
    """(shannon_entropy, occupied cells) of the masses bincount forms."""
    masses = np.bincount(labels, weights=w)
    return shannon_entropy(masses), int(np.count_nonzero(masses > 0))


@pytest.mark.parametrize("space", [C_INF, CP1])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_equal_weight_entropy_matches_masses(space, n, level, seed):
    if space == C_INF:
        rng = np.random.default_rng(seed)
        m = EmpiricalMeasure.on_plane(rng.standard_normal(n)
                                      + 1j * rng.standard_normal(n))
    else:
        m = _random_sphere_cloud(n, seed)
    assert np.all(m.weights == m.weights[0])
    rep = m.entropy(level)
    assert (rep.entropy, rep.occupied) == _masses_entropy(m.cell_labels(level),
                                                          m.weights)


@settings(max_examples=30, deadline=None)
@given(st.integers(50, 3000), st.integers(0, 3), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1))
def test_equal_weight_component_entropy_matches_masses(n, level, extra, seed):
    comps = uniform_square(n, seed=seed % 1000).components(level)
    for k in range(0, len(comps), max(1, len(comps) // 5)):
        sub = comps[k][1]                  # weights w / mass, all equal
        assert np.all(sub.weights == sub.weights[0])
        rep = sub.entropy(level + extra)
        labels = sub.cell_labels(level + extra)
        assert (rep.entropy, rep.occupied) == _masses_entropy(labels,
                                                              sub.weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 20_000), st.floats(0.25, 4.0),
       st.integers(0, 2 ** 32 - 1))
def test_cell_entropy_counts_with_many_set_bits(singletons, big, scale, seed):
    # many singletons and small cells, so the multiplicities have many set
    # bits, next to one cell holding most points
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([np.ones(singletons, dtype=np.int64),
                            np.repeat(np.arange(2, 7), rng.integers(0, 700, 5)),
                            [big]])
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(labels)
    w = np.full(len(labels), scale / len(labels))
    assert cell_entropy(labels, w) == _masses_entropy(labels, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_plane_entropy_refinement_bounds(n, level, seed):
    m = _random_measure(C_INF, n, seed)
    h0 = m.entropy(level).entropy
    h1 = m.entropy(level + 1).entropy
    assert h0 <= h1 + 1e-12
    assert h1 <= h0 + 2.0 + 1e-12


# -- reference: the complex-key cells the int64 keys replace ---------------------
# Plane and sphere keys were complex128 pairs of floor indices, sorted
# lexicographically; group-chart keys were (N, 6) int64 rows, uniqued with
# axis=0. The int64 keys must give the same labels, components and masses.

def _ref_keys(space, points, level):
    s = 2.0 ** level
    if space == C_INF:
        finite = np.isfinite(points)
        zs = np.where(finite, points, 0j)
        keys = np.floor(zs.real * s) + 1j * np.floor(zs.imag * s)
        keys[~finite] = np.inf + 0j
        return keys
    if space == CP1:
        a0, a1 = np.abs(points[:, 0]), np.abs(points[:, 1])
        chart = (a1 > a0).astype(np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(chart == 0, points[:, 1] / points[:, 0],
                         points[:, 0] / points[:, 1])
        half, top = 2.0 ** (level - 1), 2.0 ** level - 1.0
        ix = np.clip(np.floor((w.real + 1.0) * half), 0.0, top)
        iy = np.clip(np.floor((w.imag + 1.0) * half), 0.0, top)
        return (ix + chart * 2.0 ** (level + 1)) + 1j * iy
    return np.floor(points * s).astype(np.int64)


def _ref_unique(keys):
    if keys.ndim == 1:
        return np.unique(keys, return_inverse=True)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    return uniq, inverse.ravel()


def _ref_components(m, level):
    uniq, labels = _ref_unique(_ref_keys(m.space, m.points, level))
    order = np.argsort(labels, kind="stable")
    bounds = np.append(np.searchsorted(labels[order], np.arange(len(uniq))),
                       len(labels))
    out = []
    for k in range(len(uniq)):
        idx = order[bounds[k]:bounds[k + 1]]
        mass = float(np.sum(m.weights[idx]))
        if mass <= 0:
            continue
        sub = EmpiricalMeasure(m.space, m.points[idx], m.weights[idx] / mass)
        out.append((mass, sub))
    return out


def _wide_measure(space, n, seed, log2_scale, level):
    """Cloud whose floor indices at `level` span about 2^(log2_scale + level)
    per axis, with repeated points, so the plane keys pass through the
    rank-compression paths of the packing at large scales."""
    rng = np.random.default_rng(seed)
    w = rng.random(n) + 0.01
    scale = 2.0 ** log2_scale
    if space == C_INF:
        zs = (rng.standard_normal(n) * scale
              + 1j * rng.standard_normal(n) * 2.0 ** rng.integers(-4, 5))
        zs[::3] = zs[::3].imag + 1j * zs[::3].real     # the wide axis swaps
        zs[::5] = zs[0]
        zs[::11] = np.inf + 0j
        return EmpiricalMeasure.on_plane(zs, w)
    if space == G_CHART:
        # old keys were int64 casts: stay below 2^62 at `level`
        cap = 2.0 ** min(log2_scale, 58 - level)
        coords = rng.standard_normal((n, 6)) * cap
        coords[::4] = coords[0]
        return EmpiricalMeasure.on_group_chart(coords, w)
    return _random_measure(space, n, seed)


@pytest.mark.parametrize("space", [C_INF, CP1, G_CHART])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(0, 40), st.integers(-4, 60),
       st.integers(0, 2 ** 32 - 1))
def test_cell_labels_match_complex_key_reference(space, n, level, log2_scale,
                                                 seed):
    m = _wide_measure(space, n, seed, log2_scale, level)
    _, ref = _ref_unique(_ref_keys(space, m.points, level))
    assert np.array_equal(m.cell_labels(level), ref)


@pytest.mark.parametrize("scale", [1e5, 1e15])
def test_wide_plane_cloud_labels(scale):
    # at level 40: 1e5 keeps each axis below 2^61 but their product passes
    # 2^62; 1e15 puts each axis beyond 2^61
    rng = np.random.default_rng(21)
    zs = (rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000)) * scale
    zs[::7] = zs[::7].round(-3)
    zs[::13] = np.inf + 0j
    m = EmpiricalMeasure.on_plane(zs)
    _, ref = _ref_unique(_ref_keys(C_INF, m.points, 40))
    assert np.array_equal(m.cell_labels(40), ref)
    assert m.cell_keys(40)[13] > m.cell_keys(40)[~np.isinf(zs)].max()


# -- every level from one sort ---------------------------------------------------
# DyadicLevels against the per-level cell_keys path: the same reports
# (entropy bits, occupied counts, bias notes) and the same partitions.

def _same_partition(a, b):
    """Two labellings put the same points together."""
    joint = np.unique(np.stack([a, b]), axis=1).shape[1]
    return joint == len(np.unique(a)) == len(np.unique(b))


def _check_levels(m, q_max):
    levels = DyadicLevels(m, q_max)
    assert (levels._keys is None) == (m.space != CP1
                                      or q_max > MORTON_MAX_LEVEL)
    for q in range(q_max + 1):
        assert levels.entropy(q) == m.entropy(q)
        labels = levels.labels(q)
        assert _same_partition(labels, m.cell_labels(q))
        assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))
    with pytest.raises(ValueError):
        levels.labels(q_max + 1)


def _crafted_sphere_rows():
    """Chart coordinates w = +-1, +-i and 0, the chart tie |z1| = |z2|
    (chart 0 by rule) just on and off it, and z1 = 0."""
    eps = 2.0 ** -52
    rows = [(1, 0), (1, 1), (1, -1), (1, 1j), (1, -1j), (0, 1), (1, 1 + eps),
            (1 + eps, 1), (1, (1 + 1j) / math.sqrt(2)), (1, -1 - eps),
            (1e-300, 1), (1, 1e-300), (1, 0.5 - 0.5j)]
    return np.array(rows, dtype=complex)


@pytest.mark.parametrize("q_max", [1, 2, 12, 30, 31])
@pytest.mark.parametrize("name", ["twist", "sanov", "discrete-gaussian"])
def test_one_sort_levels_match_cell_keys_on_clouds(name, q_max):
    cloud = sample_boundary(get_preset(name), 30.0, 3000, seed=5)
    _check_levels(cloud.measure, q_max)


@pytest.mark.parametrize("q_max", [1, 2, 12, 30, 31])
def test_one_sort_levels_match_cell_keys_on_crafted_points(q_max):
    rows = _crafted_sphere_rows()
    m = _on_sphere(np.concatenate([rows, rows[::2]]))   # repeated points
    _check_levels(m, q_max)
    # unequal weights take the masses path
    _check_levels(_on_sphere(m.points, np.linspace(1.0, 3.0, m.size)), q_max)


def test_one_sort_levels_fall_back_off_the_sphere():
    for m in (uniform_square(2000, seed=3),
              EmpiricalMeasure.on_group_chart(RNG.standard_normal((500, 6)))):
        _check_levels(m, 12)


@pytest.mark.parametrize("space", [C_INF, CP1, G_CHART])
def test_components_match_reference_list(space):
    for seed, level in ((3, 0), (4, 2), (5, 4)):
        m = _random_measure(space, 3000, seed)
        w = m.weights.copy()
        w[::3] = 0.0                       # zero-weight points ...
        labels = m.cell_labels(level)
        if labels.max() > 0:
            w[labels == labels[1]] = 0.0   # ... and a zero-mass cell
        m = EmpiricalMeasure(space, m.points, w / w.sum())
        comps = m.components(level)
        ref = _ref_components(m, level)
        assert len(comps) == len(ref)
        assert np.array_equal(comps.masses, [r[0] for r in ref])
        for (mass, sub), (rmass, rsub) in zip(comps, ref):
            assert type(mass) is float and mass == rmass
            assert np.array_equal(sub.points, rsub.points, equal_nan=True)
            assert np.array_equal(sub.weights, rsub.weights)
        assert comps[-1][0] == ref[-1][0]


def test_projection_entropies_match_projected_measures():
    m = uniform_square(20_000, seed=3, side=0.5, origin=0.25 + 0.1j)
    w = m.weights.copy()
    w[::9] = 0.0
    m = EmpiricalMeasure.on_plane(m.points, w)
    angles = [k * math.pi / 180 for k in range(180)]   # cos < 0 past 90
    for level in (3, 9):
        got = projection_entropies(m, level, angles)
        want = [project_component(m, a).entropy(level).entropy for a in angles]
        assert got == want


# (points, directions): PROJECTION_BLOCK // points directions per block, so
# 13 per block with 11 left over, 6 with 2 left over, and one per block
BLOCK_CASES = [(5041, 180), (10_922, 20), (PROJECTION_BLOCK + 1000, 3)]


@pytest.mark.parametrize("n, count", BLOCK_CASES)
def test_projection_entropies_block_boundaries(n, count):
    step = max(1, PROJECTION_BLOCK // n)
    assert step == 1 or count % step
    square = uniform_square(n, seed=n, side=2.0 ** -5, origin=0.3 + 0.6j)
    w = np.random.default_rng(n).random(n)
    angles = [k * math.pi / count + 0.01 for k in range(count)]
    for m in (square, EmpiricalMeasure.on_plane(square.points, w)):
        for level in (7, 13):
            want = [project_component(m, a).entropy(level).entropy
                    for a in angles]
            assert projection_entropies(m, level, angles) == want


def test_projection_entropies_memory_is_bounded():
    # all 180 directions of a 2e5-point component projected at once would
    # hold several (180, 2e5) arrays, about 1.3 GiB
    m = uniform_square(200_000, seed=4, side=2.0 ** -4)
    angles = [k * math.pi / 180 for k in range(180)]
    tracemalloc.start()
    try:
        projection_entropies(m, 12, angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def _spread_measure(space, n, seed, log2_scale):
    """Finite cloud with repeated points, spread over about 2^log2_scale."""
    rng = np.random.default_rng(seed)
    w = rng.random(n) + 0.01
    scale = 2.0 ** log2_scale
    if space == C_INF:
        zs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
        zs[::5] = zs[0]
        return EmpiricalMeasure.on_plane(zs, w)
    if space == G_CHART:
        coords = rng.standard_normal((n, 6)) * scale
        coords[::5] = coords[0]
        return EmpiricalMeasure.on_group_chart(coords, w)
    return _random_measure(space, n, seed)


def _ref_entropy(m, level):
    labels = _ref_unique(_ref_keys(m.space, m.points, level))[1]
    return shannon_entropy(np.bincount(labels, weights=m.weights))


def _dense(m, level):
    keys = m.cell_keys(level)
    return keys.max() - keys.min() < max(4 * m.size, 1 << 16)


# (log2 scale, levels) per space: keys that span few values are counted by
# bincount, keys spread over 2^40 or deep levels fall back to one sort
COUNTING_CASES = {
    (C_INF, True): (0, (0, 3)), (C_INF, False): (40, (0, 10)),
    (CP1, True): (0, (0, 6)), (CP1, False): (0, (20, 40)),
    (G_CHART, True): (-3, (0, 2)), (G_CHART, False): (40, (0, 10)),
}


@pytest.mark.parametrize("space, dense", sorted(COUNTING_CASES),
                         ids=lambda v: v if isinstance(v, str)
                         else ("dense" if v else "fallback"))
@settings(max_examples=25, deadline=None)
@given(st.integers(2, 300), st.integers(0, 2 ** 32 - 1), st.data())
def test_counting_matches_sort_reference(space, dense, n, seed, data):
    log2_scale, (lo, hi) = COUNTING_CASES[space, dense]
    level = data.draw(st.integers(lo, hi))
    a = _spread_measure(space, n, seed, log2_scale)
    assume(_dense(a, level) == dense)
    _, ref = _ref_unique(_ref_keys(space, a.points, level))
    assert np.array_equal(a.cell_labels(level), ref)
    rep = a.entropy(level)
    assert rep.entropy == _ref_entropy(a, level)
    assert rep.occupied == ref.max() + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 300), st.integers(0, 8), st.integers(0, 2 ** 32 - 1))
def test_counting_with_points_at_infinity(n, level, seed):
    # finite keys span few values; the atom key 2^62 forces the sort
    rng = np.random.default_rng(seed)
    zs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    zs[rng.random(n) < 0.2] = np.inf + 0j
    w = rng.random(n) + 0.01
    w[::4] = 0.0
    w[0] = 1.0
    a = EmpiricalMeasure.on_plane(zs, w)
    _, ref = _ref_unique(_ref_keys(C_INF, a.points, level))
    assert np.array_equal(a.cell_labels(level), ref)
    assert a.entropy(level).entropy == _ref_entropy(a, level)


@pytest.mark.parametrize("log2_scale, level", [(-2, 9), (12, 9), (45, 9)],
                         ids=["dense", "sparse-span", "huge-indices"])
def test_projection_entropies_paths(log2_scale, level):
    # sparse-span: S spans about 2^22 values for 400 points, so a block's
    # keys pass its bins and each direction's labels come from one sort;
    # huge-indices: floor indices past 2^51 are packed
    rng = np.random.default_rng(log2_scale + 100)
    zs = (rng.random(400) + 1j * rng.random(400)) * 2.0 ** log2_scale
    zs[::6] = zs[1]
    w = rng.random(400)
    w[::5] = 0.0                              # zero-weight points
    angles = [0.0, math.pi / 2, 0.3, 2.0, 2.9, math.pi - 1e-9, 4.0, 5.5]
    for weights in (w, None):                 # and the equal-weight path
        m = EmpiricalMeasure.on_plane(zs, weights)
        want = [project_component(m, a).entropy(level).entropy for a in angles]
        assert projection_entropies(m, level, angles) == want


def test_projection_entropies_zero_weight_infinity():
    zs = np.array([0.1 + 0.2j, 0.3 + 0.1j, np.inf + 0j, 0.7 + 0.9j])
    m = EmpiricalMeasure.on_plane(zs, [0.5, 0.25, 0.0, 0.25])
    angles = [0.0, 1.0, 2.5]
    with np.errstate(invalid="ignore"):       # inf * 0 in the projection
        want = [project_component(m, a).entropy(6).entropy for a in angles]
        assert projection_entropies(m, 6, angles) == want


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
    mass, sub = comps[0]
    assert abs(mass - 1.0) <= 1e-15 and sub.size == 2


def test_components_masses_sum_to_one():
    m = uniform_square(5000, seed=4)
    for lev in (1, 3, 5):
        total = sum(mass for mass, _ in m.components(lev))
        assert abs(total - 1.0) <= 1e-10


def _component_average(m, levels, fn):
    """Mass-weighted average of fn(level, component) over the occupied cells,
    averaged uniformly over the levels (random-component semantics)."""
    return float(np.mean([sum(mass * fn(lev, comp)
                              for mass, comp in m.components(lev))
                          for lev in levels]))


def test_global_to_local_entropy():
    # (1/n) H(m, D_{i+n}) matches the level-averaged component entropies up
    # to O(m'/n) on a uniform fixture
    grid = dyadic_grid_square(9)
    i, n, mprime = 1, 6, 2
    lhs = (grid.entropy(i + n).entropy - grid.entropy(i).entropy) / n

    def comp_ent(level, comp):
        return comp.entropy(level + mprime).entropy / mprime

    rhs = _component_average(grid, range(i, i + n + 1), comp_ent)
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


def test_csv_export_sphere_schema(tmp_path):
    m = _random_sphere_cloud(5, seed=12)
    path = tmp_path / "sphere.csv"
    m.to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "z1re,z1im,z2re,z2im,weight"
    assert len(lines) == 6
