"""Empirical measures on the sphere, the plane and the group chart, with
their dyadic partitions, entropies, and component decompositions.

Partition schemes by space:

* c_inf: standard dyadic squares of side 2^-n on C = R^2, plus a reserved
  atom for the point at infinity.
* cp1: two charts keyed by which homogeneous coordinate dominates; the chart
  coordinate w (|w| <= 1) lives in the box [-1,1]^2 split into a 2^n x 2^n
  grid. Chart distortion against the sphere metric is at most a factor two,
  so entropies transfer with O(1) additive slack.
* g_chart: dyadic boxes of side 2^-n in the six chart coordinates.

Level-(n+1) cells refine level-n cells by floor-halving of indices in every
scheme. On cp1 that halving is exact in floats, so `DyadicLevels` takes all
levels up to q_max from one sort of Z-order keys at q_max; elsewhere, and
past MORTON_MAX_LEVEL, each level is keyed on its own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from collections.abc import Sequence
from typing import List, Optional, Tuple

import numpy as np

from ._parallel import TAG_FIXTURE, block_rng

CP1 = "cp1"
C_INF = "c_inf"
G_CHART = "g_chart"

_SPACES = (CP1, C_INF, G_CHART)

BIAS_GUARD_FRACTION = 10     # bias note when occupied cells > N / 10
PROJECTION_BLOCK = 1 << 16   # point-directions projected at once


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
    """Weighted point cloud in one of the three tagged spaces.

    points: cp1 -> (N,2) complex canonical unit rows; c_inf -> (N,) complex
    with INFINITY stored as inf+0j; g_chart -> (N,6) float chart
    coordinates.
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
    def on_plane(cls, zs: np.ndarray,
                 weights: Optional[np.ndarray] = None) -> "EmpiricalMeasure":
        zs = np.asarray(zs, dtype=complex)
        return cls(C_INF, zs, _norm_weights(weights, len(zs)))

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
        """Per-point int64 cell keys at the given level, ordered like the
        cells (see _pack). Keys of two calls are not comparable."""
        return _cell_keys(self.space, self.points, level)

    def cell_labels(self, level: int) -> np.ndarray:
        """Per-point integer cell labels at the given level, numbered
        0, 1, ... in cell order."""
        labels = _labels(self.cell_keys(level))
        return (np.cumsum(np.bincount(labels) > 0) - 1)[labels]

    # -- entropy -------------------------------------------------------------

    def _cell_entropy(self, level: int) -> Tuple[float, int]:
        return cell_entropy(_labels(self.cell_keys(level)), self.weights)

    def entropy(self, level: int,
                cond: Optional[int] = None) -> EntropyReport:
        """Plug-in dyadic entropy at `level`, optionally conditioned on the
        coarser level `cond` (chain rule for nested partitions)."""
        if cond is not None and cond > level:
            raise ValueError("conditioning level must be coarser")
        h, occ = self._cell_entropy(level)
        if cond is None:
            return _entropy_report(level, h, occ, self.size)
        hc, _ = self._cell_entropy(cond)
        gap = level - cond
        hcond = max(0.0, h - hc)
        norm = hcond / gap if gap > 0 else hcond
        return EntropyReport(level, cond, hcond, norm, self.size, occ,
                             _bias_note(occ, self.size))

    # -- components ----------------------------------------------------------

    def components(self, level: int) -> "Components":
        """Occupied level cells of positive mass with their masses and
        conditional measures, in cell order (see Components)."""
        return Components(self, level)

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


def _entropy_report(level: int, h: float, occupied: int,
                    samples: int) -> EntropyReport:
    """The unconditional report of an entropy of h bits at `level`."""
    norm = h / level if level > 0 else h
    return EntropyReport(level, None, h, norm, samples, occupied,
                         _bias_note(occupied, samples))


class DyadicLevels:
    """The cells of levels 0..q_max of one measure: per-point labels and
    unconditional entropies, level by level.

    On cp1 with q_max <= MORTON_MAX_LEVEL, every level comes from one stable
    sort of one int64 key per point at q_max (see _morton_keys): level q's
    cells are the runs of the sorted keys shifted right by 2 (q_max - q).
    Labels then number the cells in that Z order, and entropies with equal
    weights are taken from the run lengths. Other spaces, and deeper q_max,
    key each level on its own (EmpiricalMeasure.cell_labels and .entropy).
    Either way the partitions, and so the entropy bits, are those of
    cell_keys."""

    def __init__(self, m: EmpiricalMeasure, q_max: int):
        self.measure = m
        self.q_max = q_max
        self._order = self._keys = None
        if m.space == CP1 and 0 <= q_max <= MORTON_MAX_LEVEL:
            keys = _morton_keys(m.points, q_max)
            self._order = np.argsort(keys, kind="stable")
            self._keys = keys[self._order]

    @property
    def size(self) -> int:
        return self.measure.size

    def labels(self, level: int) -> np.ndarray:
        """Per-point integer cell labels at `level`, numbered 0, 1, ... in
        key order."""
        if self._keys is None:
            return self._checked(level).cell_labels(level)
        sorted_labels = np.cumsum(self._run_starts(level))
        sorted_labels -= 1
        labels = np.empty_like(sorted_labels)
        labels[self._order] = sorted_labels
        return labels

    def entropy(self, level: int) -> EntropyReport:
        """The unconditional report of EmpiricalMeasure.entropy(level)."""
        if self._keys is None:
            return self._checked(level).entropy(level)
        w = _equal_weight(self.measure.weights)
        if not w:
            h, occ = cell_entropy(self.labels(level), self.measure.weights)
        else:
            starts = np.flatnonzero(self._run_starts(level))
            h, occ = _counts_entropy(np.diff(starts, append=self.size), w)
        return _entropy_report(level, h, occ, self.size)

    def _checked(self, level: int) -> EmpiricalMeasure:
        if not 0 <= level <= self.q_max:
            raise ValueError(f"level {level} outside 0..{self.q_max}")
        return self.measure

    def _run_starts(self, level: int) -> np.ndarray:
        """Mask of the sorted points that open a level cell."""
        self._checked(level)
        k = self._keys >> (2 * (self.q_max - level))
        return np.r_[True, k[1:] != k[:-1]]


class Components(Sequence):
    """The occupied cells of one level with positive mass, in cell order.

    Holds the sort order of the points, the cell bounds in it and the cell
    masses; `comps[k]` is (mass, conditional measure) and builds that
    measure only when read. Each mass is the pairwise `np.sum`
    of the cell's weights in point order."""

    def __init__(self, m: EmpiricalMeasure, level: int):
        keys = m.cell_keys(level)
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
        ends = np.append(starts[1:], len(keys))
        masses = _slice_sums(m.weights[order], starts, ends)
        keep = masses > 0
        self.measure = m
        self.level = level
        self.masses = masses[keep]
        self._order = order
        self._starts = starts[keep]
        self._ends = ends[keep]

    def __len__(self) -> int:
        return len(self.masses)

    def __getitem__(self, k):
        k = range(len(self))[operator.index(k)]
        idx = self._order[self._starts[k]:self._ends[k]]
        m = self.measure
        mass = float(self.masses[k])
        return mass, EmpiricalMeasure(m.space, m.points[idx],
                                      m.weights[idx] / mass)


def _slice_sums(w: np.ndarray, starts: np.ndarray,
                ends: np.ndarray) -> np.ndarray:
    """np.sum(w[a:b]) for each slice, with the same bits: slices of one
    length are gathered as the rows of a C-ordered matrix, and numpy sums
    each row along its contiguous axis with the same pairwise summation."""
    lengths = ends - starts
    by_length = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[by_length]
    bounds = np.flatnonzero(
        np.r_[True, sorted_lengths[1:] != sorted_lengths[:-1], True])
    out = np.empty(len(starts))
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        rows = by_length[a:b]
        n = int(sorted_lengths[a])
        out[rows] = w[starts[rows, None] + np.arange(n)].sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# vectorized cell keys
# ---------------------------------------------------------------------------
# A cell is a tuple of per-axis integer indices, major axis first, computed
# as floats by _cell_axes (exact below 2^53; mass in the far tail of c_inf
# beyond that is binned approximately). _pack turns the tuples into one
# int64 key per point, in the lexicographic order of the tuples, so sorting
# keys sorts cells. Keys are offsets from the minima of one call, so keys of
# two calls are not comparable.

_KEY_SPAN = 1 << 62          # finite keys lie in [0, 2^62)
_ATOM_KEY = _KEY_SPAN        # the c_inf infinity atom, above every finite key
_EXACT_AXIS = 1 << 61        # axes inside (-2^61, 2^61) pack without ranking


def _ranks(a: np.ndarray) -> Tuple[np.ndarray, int]:
    uniq, inverse = np.unique(a, return_inverse=True)
    return inverse, len(uniq)


def _labels(keys: np.ndarray) -> np.ndarray:
    """Labels in key order (key - min when max - min < max(4N, 2^16), with
    gaps, else ranks from one sort). The labelling leaves an entropy's bits
    alone: bincount adds a cell's weights in point order under any label,
    and the fsum in shannon_entropy does not depend on the order of cells."""
    lo = int(keys.min())
    dense = int(keys.max()) - lo < max(4 * len(keys), 1 << 16)
    return keys - lo if dense else _ranks(keys)[0]


def _pack(axes: Sequence[np.ndarray]) -> np.ndarray:
    """int64 keys ordered like the rows (axes[0][i], axes[1][i], ...).

    Each axis is offset by its minimum and packed mixed-radix. An axis
    outside (-2^61, 2^61) is replaced by its dense ranks; when the product of
    the spans would pass 2^62, the major part packed so far is rank-compressed
    first."""
    key = np.zeros(len(axes[0]), dtype=np.int64)
    if not len(key):
        return key
    span = 1
    for a in axes:
        lo, hi = a.min(), a.max()
        if -_EXACT_AXIS < lo and hi < _EXACT_AXIS:
            off = a.astype(np.int64)
            off -= int(lo)
            width = int(hi) - int(lo) + 1
        else:
            off, width = _ranks(a)
        if span * width > _KEY_SPAN:
            key, span = _ranks(key)
            if span * width > _KEY_SPAN:
                off, width = _ranks(a)
        key *= width
        key += off
        span *= width
    return key


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


def _plane_axes(zs: np.ndarray, level: int) -> List[np.ndarray]:
    s = 2.0 ** level
    return [np.floor(zs.real * s), np.floor(zs.imag * s)]


def _cell_axes(space: str, points: np.ndarray, level: int) -> List[np.ndarray]:
    """Per-axis integer cell indices (as floats), major axis first."""
    if space == C_INF:
        return _plane_axes(np.where(np.isfinite(points), points, 0j), level)
    if space == CP1:
        chart, w = _cp1_chart_coords(points)
        half = 2.0 ** (level - 1)         # grid of 2^level cells over [-1, 1]
        top = 2.0 ** level - 1.0
        return [chart, np.clip(np.floor((w.real + 1.0) * half), 0.0, top),
                np.clip(np.floor((w.imag + 1.0) * half), 0.0, top)]
    return list(np.floor(points * 2.0 ** level).T)


# Z-order keys (Morton 1966): the chart bit, then the bits of the two axis
# indices interleaved, real axis first. Floor-halving the indices
# floor((w + 1) 2^(q - 1)) is exact in floats and commutes with the clip to
# [0, 2^q - 1], so shifting a level-q_max key right by 2 (q_max - q) gives
# the level-q key, and every level's cells are runs of one sorted array.
MORTON_MAX_LEVEL = 30        # 1 + 2 q_max bits fit the 62-bit key span
_SPREAD = tuple((np.uint64(s), np.uint64(m)) for s, m in (
    (16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
    (1, 0x5555555555555555)))


def _spread_bits(axis: np.ndarray) -> np.ndarray:
    """Bit b of each index (below 2^32) moved to bit 2b."""
    x = axis.astype(np.uint64)
    for shift, mask in _SPREAD:
        x = (x | (x << shift)) & mask
    return x


def _morton_keys(rows: np.ndarray, level: int) -> np.ndarray:
    """Per-point int64 Z-order keys of the cp1 cells at `level`
    (level <= MORTON_MAX_LEVEL)."""
    chart, re, im = _cell_axes(CP1, rows, level)
    keys = chart.astype(np.uint64) << np.uint64(2 * level)
    keys |= _spread_bits(re) << np.uint64(1)
    keys |= _spread_bits(im)
    return keys.view(np.int64)


def _cell_keys(space: str, points: np.ndarray, level: int) -> np.ndarray:
    axes = _cell_axes(space, points, level)
    if space != C_INF:
        return _pack(axes)
    finite = np.isfinite(points)
    if finite.all():
        return _pack(axes)
    keys = np.full(len(points), _ATOM_KEY, dtype=np.int64)
    keys[finite] = _pack([a[finite] for a in axes])
    return keys


def shannon_entropy(masses) -> float:
    """-sum m log2 m in bits over the positive masses.

    math.log2 rather than np.log2, whose vectorised results differ in the
    last bit on some hosts; fsum is correctly rounded, so the result does
    not depend on the order of the masses, and any list of exact terms with
    the same real sum gives the same bits (what `cell_entropy` uses)."""
    m = np.asarray(masses, dtype=float)
    m = m[m > 0].tolist()
    return max(0.0, -math.fsum(map(operator.mul, m, map(math.log2, m))))


def cell_entropy(labels: np.ndarray, weights: np.ndarray) -> Tuple[float, int]:
    """(entropy in bits, occupied cells) of the cell masses
    bincount(labels, weights) over nonnegative integer labels, with the bits
    of shannon_entropy of those masses.

    With equal positive weights (the default weights, a component of such a
    measure, the Delta ladder) it works from the histogram of counts, one
    entry per distinct count, instead of a mass per bin of the dense label
    range; _count_entropies says why the bits are the same. Other weights
    take the masses path."""
    w = _equal_weight(weights)
    if w:
        return _counts_entropy(np.bincount(labels), w)
    masses = np.bincount(labels, weights=weights)
    return shannon_entropy(masses), int(np.count_nonzero(masses > 0))


def _counts_entropy(counts: np.ndarray, w: float) -> Tuple[float, int]:
    """cell_entropy of cells holding `counts` points of weight w each."""
    mult = np.bincount(counts)
    return _count_entropies(mult[None], w)[0], int(mult[1:].sum())


def _equal_weight(weights: np.ndarray) -> float:
    """The common weight when all weights are equal and positive, else 0."""
    w = float(weights[0])
    return w if w > 0 and bool((weights == w).all()) else 0.0


def _count_entropies(mult: np.ndarray, w: float) -> List[float]:
    """Entropy of each row of a histogram of counts, mult[r, k] cells of k
    points of weight w each, with the bits of shannon_entropy over the masses
    that bincount would give.

    bincount adds a cell's weights one at a time in point order, as cumsum
    does, so the mass of a k-point cell is cumsum(full(kmax, w))[k - 1]. Each
    term m log2 m is formed with math.log2 as shannon_entropy forms it, and a
    multiplicity c is expanded into its set bits: t 2^b is exact, so fsum
    sees exact terms with the real sum c t and rounds it the same way."""
    ks = np.flatnonzero(mult[:, 1:].any(axis=0)) + 1
    masses = np.cumsum(np.full(int(ks[-1]), w))[ks - 1].tolist()
    terms = np.array([m * math.log2(m) for m in masses])
    mult = mult[:, ks]
    bits = 1 << np.arange(int(mult.max()).bit_length())
    rows, cols, b = np.nonzero(mult[:, :, None] & bits)
    parts = (terms[cols] * bits[b]).tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(mult))).tolist()
    return [max(0.0, -math.fsum(parts[a:e]))
            for a, e in zip([0] + ends[:-1], ends)]


# ---------------------------------------------------------------------------
# measure arithmetic used across the engine and the experiments
# ---------------------------------------------------------------------------

def _projection_check(m: EmpiricalMeasure) -> None:
    if m.space != C_INF:
        raise ValueError("projection needs a plane measure")
    if m.inf_mass() > 0:
        raise ValueError("measure carries mass at infinity")


def _project(zs: np.ndarray, angle: float) -> np.ndarray:
    """Orthogonal projection t d of the points onto the line of direction
    d = e^{i angle}, t = Re(z conj(d))."""
    d = complex(math.cos(angle), math.sin(angle))
    return (zs * np.conj(d)).real * d


def project_component(m: EmpiricalMeasure, angle: float) -> EmpiricalMeasure:
    """Pushforward of a plane measure under orthogonal projection onto the
    line of the given angle. Refuses measures with mass at infinity."""
    _projection_check(m)
    return EmpiricalMeasure(C_INF, _project(m.points, angle), m.weights)


def projection_entropies(m: EmpiricalMeasure, level: int,
                         angles: Sequence[float]) -> List[float]:
    """H(project_component(m, a), D_level) in bits for each angle a, with the
    same bits: the projected cells lie on a monotone lattice path (Bresenham
    1965), keyed densely by sign(cos a) ix + sign(sin a) iy of their indices.

    Directions are projected in blocks of about PROJECTION_BLOCK
    point-directions. With equal weights their cells are counted by one
    bincount per block, each direction's keys offset past the previous
    direction's."""
    _projection_check(m)
    # floor indices below 2^51 keep the float key exact
    exact = float(np.abs(m.points).max()) * 2.0 ** level < 2.0 ** 51
    if not exact:
        return [cell_entropy(_labels(_pack(_plane_axes(_project(m.points, a),
                                                       level))), m.weights)[0]
                for a in angles]
    step = max(1, PROJECTION_BLOCK // m.size)
    out: List[float] = []
    for i in range(0, len(angles), step):
        out += _block_entropies(m, level, angles[i:i + step])
    return out


def _block_entropies(m: EmpiricalMeasure, level: int,
                     angles: Sequence[float]) -> List[float]:
    """projection_entropies of one block of directions, exact keys only.

    t is _project's complex product on a (directions, N) array, and t d.real,
    t d.imag are the parts of its product t d (the zero imaginary part of t
    adds a zero). Unequal weights, and keys spanning more than
    4 PROJECTION_BLOCK cells, are labelled one direction at a time."""
    d = np.array([complex(math.cos(a), math.sin(a)) for a in angles])[:, None]
    t = (m.points * np.conj(d)).real
    s = 2.0 ** level
    keys = (np.sign(d.real) * np.floor(t * d.real * s)
            + np.sign(d.imag) * np.floor(t * d.imag * s)).astype(np.int64)
    lo = keys.min(axis=1)
    widths = keys.max(axis=1) - lo + 1
    w0 = _equal_weight(m.weights)
    if not w0 or sum(widths.tolist()) > 4 * PROJECTION_BLOCK:
        return [cell_entropy(_labels(row), m.weights)[0] for row in keys]
    offsets = np.cumsum(widths) - widths
    counts = np.bincount((keys + (offsets - lo)[:, None]).ravel())
    span = int(counts.max()) + 1
    rows = np.repeat(np.arange(len(angles)) * span, widths)
    mult = np.bincount(rows + counts, minlength=len(angles) * span)
    return _count_entropies(mult.reshape(len(angles), span), w0)


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


def uniform_square(n: int, seed: int, side: float = 1.0,
                   origin: complex = 0j) -> EmpiricalMeasure:
    """Uniform sample fixture on an axis-aligned square."""
    rng = block_rng(seed, TAG_FIXTURE, 0)
    xy = rng.random((n, 2)) * side
    return EmpiricalMeasure.on_plane(origin + xy[:, 0] + 1j * xy[:, 1])


def uniform_segment(n: int, seed: int, angle: float = 0.0) -> EmpiricalMeasure:
    rng = block_rng(seed, TAG_FIXTURE, 1)
    t = rng.random(n)
    d = complex(math.cos(angle), math.sin(angle))
    return EmpiricalMeasure.on_plane(t * d)


def dyadic_grid_square(level: int) -> EmpiricalMeasure:
    """The uniform measure on the unit square discretized exactly: equal
    atoms at all level-`level` cell centers. Components at level i <= level
    are exactly uniform, so (1/m) H(component, D_{i+m}) = 2 exactly for
    i + m <= level: the analytic oracle for dimension-two fixtures."""
    k = 1 << level
    side = np.arange(k, dtype=float) + 0.5
    xs, ys = np.meshgrid(side / k, side / k)
    return EmpiricalMeasure.on_plane(xs.ravel() + 1j * ys.ravel())
