"""Empirical measures on the sphere, the plane, the circle of directions, and
the group chart, with their dyadic partitions, entropies, and component
decompositions.

Partition schemes by space:

* c_inf: standard dyadic squares of side 2^-n on C = R^2, plus a reserved
  atom for the point at infinity.
* cp1: two charts keyed by which homogeneous coordinate dominates; the chart
  coordinate w (|w| <= 1) lives in the box [-1,1]^2 split into a 2^n x 2^n
  grid. Chart distortion against the sphere metric is at most a factor two,
  so entropies transfer with O(1) additive slack.
* rp1: 2^n equal angle intervals of [0, pi).
* g_chart: dyadic boxes of side 2^-n in the six chart coordinates.

Level-(n+1) cells refine level-n cells by floor-halving of indices in every
scheme.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._parallel import TAG_FIXTURE, block_rng
from .sl2 import INFINITY, ProjPoint

CP1 = "cp1"
C_INF = "c_inf"
RP1 = "rp1"
G_CHART = "g_chart"

_SPACES = (CP1, C_INF, RP1, G_CHART)

BIAS_GUARD_FRACTION = 10     # bias note when occupied cells > N / 10


@dataclass(frozen=True)
class DyadicCellId:
    """Cell of the level-n partition. `index` holds per-axis integers (cp1
    carries the chart bit first); the infinity atom has atom=True."""

    space: str
    level: int
    index: Tuple[int, ...]
    atom: bool = False

    def parent(self) -> "DyadicCellId":
        if self.level == 0:
            raise ValueError("level-0 cell has no parent")
        if self.atom:
            return DyadicCellId(self.space, self.level - 1, (), True)
        if self.space == CP1:
            chart = self.index[0]
            rest = tuple(i >> 1 for i in self.index[1:])
            return DyadicCellId(self.space, self.level - 1, (chart,) + rest)
        return DyadicCellId(self.space, self.level - 1,
                            tuple(i >> 1 for i in self.index))


@dataclass(frozen=True)
class EntropyReport:
    level: int
    cond_level: Optional[int]
    entropy: float            # bits
    normalized: float
    sample_count: int
    occupied: int
    bias_note: Optional[str] = None


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point cloud in one of the four tagged spaces.

    points: cp1 -> (N,2) complex canonical unit rows; c_inf -> (N,) complex
    with INFINITY stored as inf+0j; rp1 -> (N,) angles in [0,pi);
    g_chart -> (N,6) float chart coordinates.
    """

    space: str
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.space not in _SPACES:
            raise ValueError(f"unknown space {self.space!r}")
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {total}, not 1")

    @property
    def size(self) -> int:
        return len(self.weights)

    # -- constructors -------------------------------------------------------

    @classmethod
    def on_sphere(cls, rows: np.ndarray,
                  weights: Optional[np.ndarray] = None) -> "EmpiricalMeasure":
        rows = np.asarray(rows, dtype=complex)
        return cls(CP1, canonicalize_rows(rows), _norm_weights(weights, len(rows)))

    @classmethod
    def on_plane(cls, zs: np.ndarray,
                 weights: Optional[np.ndarray] = None) -> "EmpiricalMeasure":
        zs = np.asarray(zs, dtype=complex)
        return cls(C_INF, zs, _norm_weights(weights, len(zs)))

    @classmethod
    def on_lines(cls, angles: np.ndarray,
                 weights: Optional[np.ndarray] = None) -> "EmpiricalMeasure":
        t = np.mod(np.asarray(angles, dtype=float), math.pi)
        return cls(RP1, t, _norm_weights(weights, len(t)))

    @classmethod
    def on_group_chart(cls, coords: np.ndarray,
                       weights: Optional[np.ndarray] = None) -> "EmpiricalMeasure":
        coords = np.asarray(coords, dtype=float)
        return cls(G_CHART, coords, _norm_weights(weights, len(coords)))

    # -- infinity bookkeeping (c_inf) ---------------------------------------

    def finite_mask(self) -> np.ndarray:
        if self.space != C_INF:
            return np.ones(self.size, dtype=bool)
        return np.isfinite(self.points)

    def inf_mass(self) -> float:
        if self.space != C_INF:
            return 0.0
        return float(np.sum(self.weights[~self.finite_mask()]))

    def drop_infinity(self) -> "EmpiricalMeasure":
        m = self.finite_mask()
        if m.all():
            return self
        w = self.weights[m]
        return EmpiricalMeasure(C_INF, self.points[m], w / w.sum())

    # -- cells ---------------------------------------------------------------

    def cell_keys(self, level: int) -> np.ndarray:
        """Sortable per-point cell keys at the given level (see _keys_*)."""
        return _cell_keys(self.space, self.points, level)

    def cell_labels(self, level: int) -> np.ndarray:
        """Per-point integer cell labels at the given level, numbered
        0, 1, ... in cell-key order."""
        return _unique_inverse(self.cell_keys(level))[1]

    def cell_of(self, i: int, level: int) -> DyadicCellId:
        """Decoded cell id of point i."""
        key = _cell_keys(self.space, self.points[[i]], level)[0]
        return _decode_key(self.space, key, level)

    # -- entropy -------------------------------------------------------------

    def _cell_entropy(self, level: int) -> Tuple[float, int]:
        masses = np.bincount(self.cell_labels(level), weights=self.weights)
        return shannon_entropy(masses), int(np.count_nonzero(masses > 0))

    def entropy(self, level: int,
                cond: Optional[int] = None) -> EntropyReport:
        """Plug-in dyadic entropy at `level`, optionally conditioned on the
        coarser level `cond` (chain rule for nested partitions)."""
        if cond is not None and cond > level:
            raise ValueError("conditioning level must be coarser")
        h, occ = self._cell_entropy(level)
        if cond is None:
            norm = h / level if level > 0 else h
            note = _bias_note(occ, self.size)
            return EntropyReport(level, None, h, norm, self.size, occ, note)
        hc, _ = self._cell_entropy(cond)
        gap = level - cond
        hcond = max(0.0, h - hc)
        norm = hcond / gap if gap > 0 else hcond
        return EntropyReport(level, cond, hcond, norm, self.size, occ,
                             _bias_note(occ, self.size))

    # -- components ----------------------------------------------------------

    def components(self, level: int):
        """Occupied level cells with their masses and conditional measures,
        ordered by cell key. Returns list of (DyadicCellId, mass, measure)."""
        uniq, labels = _unique_inverse(self.cell_keys(level))
        out = []
        order = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[order], np.arange(len(uniq)))
        bounds = np.append(bounds, len(labels))
        for k in range(len(uniq)):
            idx = order[bounds[k]:bounds[k + 1]]
            mass = float(np.sum(self.weights[idx]))
            if mass <= 0:
                continue
            sub = EmpiricalMeasure(self.space, self.points[idx],
                                   self.weights[idx] / mass)
            out.append((_decode_key(self.space, uniq[k], level), mass, sub))
        return out

    # -- export ---------------------------------------------------------------

    def to_csv(self, path) -> None:
        """CSV export: re,im,weight for the plane; homogeneous coordinates
        for the sphere. 17 significant digits, UTF-8, LF."""
        if self.space == C_INF:
            header = "re,im,weight"
            rows = (f"{z.real:.17g},{z.imag:.17g},{w:.17g}"
                    for z, w in zip(self.points, self.weights))
        elif self.space == CP1:
            header = "z1re,z1im,z2re,z2im,weight"
            rows = (f"{p[0].real:.17g},{p[0].imag:.17g},"
                    f"{p[1].real:.17g},{p[1].imag:.17g},{w:.17g}"
                    for p, w in zip(self.points, self.weights))
        else:
            raise ValueError(f"no CSV schema for space {self.space!r}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for r in rows:
                fh.write(r + "\n")


def _norm_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        if n == 0:
            raise ValueError("empty measure")
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


def _bias_note(occupied: int, samples: int) -> Optional[str]:
    if occupied * BIAS_GUARD_FRACTION > samples:
        return (f"occupied cells ({occupied}) exceed N/10; plug-in entropy "
                f"is biased low at this depth")
    return None


# ---------------------------------------------------------------------------
# vectorized cell keys
# ---------------------------------------------------------------------------
# Keys are complex128 pairs of (exact small) floats, or an (N,6) int array for
# the group chart. Floor indices are exact for |index| < 2^53; mass in the
# far tail of c_inf beyond that is binned approximately.

def _keys_cinf(zs: np.ndarray, level: int) -> np.ndarray:
    s = 2.0 ** level
    finite = np.isfinite(zs)             # both parts finite
    zs = np.where(finite, zs, 0j)
    keys = np.floor(zs.real * s) + 1j * np.floor(zs.imag * s)
    keys[~finite] = np.inf + 0j          # reserved atom for infinity
    return keys


def canonicalize_rows(rows: np.ndarray) -> np.ndarray:
    """Unit rows with the leading nonzero coordinate real and positive."""
    norms = np.sqrt(np.abs(rows[:, 0]) ** 2 + np.abs(rows[:, 1]) ** 2)
    rows = rows / norms[:, None]
    lead = np.abs(rows[:, 0]) > 1e-14
    pivot = np.where(lead, rows[:, 0], rows[:, 1])
    phase = np.conj(pivot) / np.abs(pivot)
    rows = rows * phase[:, None]
    out = rows.copy()
    out[lead, 0] = np.abs(rows[lead, 0])        # exactly real pivots
    out[~lead, 0] = 0.0
    out[~lead, 1] = np.abs(rows[~lead, 1])
    return out


def _cp1_chart_coords(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(chart, w): chart 0 when |z1| >= |z2| with w = z2/z1, else chart 1
    with w = z1/z2; always |w| <= 1."""
    a0 = np.abs(rows[:, 0])
    a1 = np.abs(rows[:, 1])
    chart = (a1 > a0).astype(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(chart == 0, rows[:, 1] / rows[:, 0],
                     rows[:, 0] / rows[:, 1])
    return chart, w


def _keys_cp1(rows: np.ndarray, level: int) -> np.ndarray:
    chart, w = _cp1_chart_coords(rows)
    half = 2.0 ** (level - 1)             # grid of 2^level cells over [-1, 1]
    top = 2.0 ** level - 1.0
    ix = np.clip(np.floor((w.real + 1.0) * half), 0.0, top)
    iy = np.clip(np.floor((w.imag + 1.0) * half), 0.0, top)
    return (ix + chart * 2.0 ** (level + 1)) + 1j * iy   # chart above ix


def _keys_rp1(angles: np.ndarray, level: int) -> np.ndarray:
    idx = np.minimum(np.floor(angles / math.pi * 2.0 ** level),
                     2.0 ** level - 1.0)
    return idx + 0j


def _keys_gchart(coords: np.ndarray, level: int) -> np.ndarray:
    s = 2.0 ** level
    return np.floor(coords * s).astype(np.int64)


def _cell_keys(space: str, points: np.ndarray, level: int) -> np.ndarray:
    if space == C_INF:
        return _keys_cinf(points, level)
    if space == CP1:
        return _keys_cp1(points, level)
    if space == RP1:
        return _keys_rp1(points, level)
    return _keys_gchart(points, level)


def _decode_key(space: str, key, level: int) -> DyadicCellId:
    """Cell id of one key produced by _cell_keys."""
    if space == G_CHART:
        return DyadicCellId(G_CHART, level, tuple(int(x) for x in key))
    if space == C_INF and not math.isfinite(key.real):
        return DyadicCellId(C_INF, level, (), atom=True)
    re, im = int(key.real), int(key.imag)
    if space == CP1:
        chart = re >> (level + 1)
        return DyadicCellId(CP1, level, (chart, re - (chart << (level + 1)), im))
    if space == RP1:
        return DyadicCellId(RP1, level, (re,))
    return DyadicCellId(C_INF, level, (re, im))


def _unique_inverse(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    if keys.ndim == 1:
        return np.unique(keys, return_inverse=True)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    return uniq, inverse.ravel()


def shannon_entropy(masses) -> float:
    """-sum m log2 m in bits over the positive masses.

    math.log2 rather than np.log2, whose vectorised results differ in the
    last bit on some hosts; fsum is correctly rounded, so the result does
    not depend on the order of the masses."""
    m = np.asarray(masses, dtype=float)
    m = m[m > 0].tolist()
    return max(0.0, -math.fsum(map(operator.mul, m, map(math.log2, m))))


# ---------------------------------------------------------------------------
# measure arithmetic used across the engine and the experiments
# ---------------------------------------------------------------------------

def dyadic_cell(space: str, point, level: int) -> DyadicCellId:
    """Cell id of a single point: complex (or INFINITY) for the plane, a
    canonical unit pair for the sphere, an angle for the line space, six
    chart coordinates for the group."""
    if space == C_INF:
        if point is INFINITY:
            return DyadicCellId(C_INF, level, (), atom=True)
        m = EmpiricalMeasure.on_plane(np.array([complex(point)]))
    elif space == CP1:
        if isinstance(point, ProjPoint):
            arr = np.array([[point.z1, point.z2]])
        else:
            arr = np.array([point], dtype=complex)
        m = EmpiricalMeasure.on_sphere(arr)
    elif space == RP1:
        theta = point.theta if hasattr(point, "theta") else float(point)
        m = EmpiricalMeasure.on_lines(np.array([theta]))
    elif space == G_CHART:
        m = EmpiricalMeasure.on_group_chart(np.array([point], dtype=float))
    else:
        raise ValueError(f"unknown space {space!r}")
    return m.cell_of(0, level)


def component_average(m: EmpiricalMeasure, levels: Sequence[int], fn) -> float:
    """Mass-weighted average of fn(cell, mass, component) over occupied cells,
    averaged uniformly over the given levels (random-component semantics)."""
    vals = []
    for lev in levels:
        acc = 0.0
        for cell, mass, comp in m.components(lev):
            acc += mass * fn(cell, mass, comp)
        vals.append(acc)
    return float(np.mean(vals))


def project_component(m: EmpiricalMeasure, angle: float) -> EmpiricalMeasure:
    """Pushforward of a plane measure under orthogonal projection onto the
    line of the given angle. Refuses measures with mass at infinity."""
    if m.space != C_INF:
        raise ValueError("projection needs a plane measure")
    if m.inf_mass() > 0:
        raise ValueError("measure carries mass at infinity")
    d = complex(math.cos(angle), math.sin(angle))
    t = (m.points * np.conj(d)).real
    return EmpiricalMeasure(C_INF, t * d, m.weights)


def sphere_to_plane(m: EmpiricalMeasure) -> EmpiricalMeasure:
    """Pushforward under the ratio chart; the e1 direction goes to the atom
    at infinity."""
    if m.space != CP1:
        raise ValueError("expected a sphere measure")
    z2 = m.points[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        zs = np.where(z2 == 0, np.inf + 0j, m.points[:, 0] / z2)
    return EmpiricalMeasure(C_INF, zs, m.weights)


def sphere_embedding(rows: np.ndarray) -> np.ndarray:
    """Isometric embedding of CP^1 into R^3: Euclidean distance between
    images equals the normalized-determinant metric exactly."""
    z1, z2 = rows[:, 0], rows[:, 1]
    cross = z1 * np.conj(z2)
    return 0.5 * np.stack([2 * cross.real, 2 * cross.imag,
                           (np.abs(z1) ** 2 - np.abs(z2) ** 2)], axis=1)


def total_variation(a: EmpiricalMeasure, b: EmpiricalMeasure,
                    level: int) -> float:
    """TV distance between the level-`level` cell-weight vectors."""
    if a.space != b.space:
        raise ValueError("space mismatch")
    ka, kb = a.cell_keys(level), b.cell_keys(level)
    if ka.ndim != 1:
        raise ValueError("TV needs 1-d keys")
    allk = np.concatenate([ka, kb])
    uniq, inverse = np.unique(allk, return_inverse=True)
    wa = np.bincount(inverse[:len(ka)], weights=a.weights, minlength=len(uniq))
    wb = np.bincount(inverse[len(ka):], weights=b.weights, minlength=len(uniq))
    return 0.5 * float(np.abs(wa - wb).sum())


def uniform_square(n: int, seed: int, side: float = 1.0,
                   origin: complex = 0j) -> EmpiricalMeasure:
    """Uniform sample fixture on an axis-aligned square."""
    rng = block_rng(seed, TAG_FIXTURE, 0)
    xy = rng.random((n, 2)) * side
    return EmpiricalMeasure.on_plane(origin + xy[:, 0] + 1j * xy[:, 1])


def uniform_segment(n: int, seed: int, length: float = 1.0,
                    angle: float = 0.0, origin: complex = 0j) -> EmpiricalMeasure:
    rng = block_rng(seed, TAG_FIXTURE, 1)
    t = rng.random(n) * length
    d = complex(math.cos(angle), math.sin(angle))
    return EmpiricalMeasure.on_plane(origin + t * d)


def dyadic_grid_square(level: int) -> EmpiricalMeasure:
    """The uniform measure on the unit square discretized exactly: equal
    atoms at all level-`level` cell centers. Components at level i <= level
    are exactly uniform, so (1/m) H(component, D_{i+m}) = 2 exactly for
    i + m <= level: the analytic oracle for dimension-two fixtures."""
    k = 1 << level
    side = np.arange(k, dtype=float) + 0.5
    xs, ys = np.meshgrid(side / k, side / k)
    return EmpiricalMeasure.on_plane(xs.ravel() + 1j * ys.ravel())
