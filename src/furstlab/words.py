"""Words over the generator alphabet: the generating system, letter draws,
matrix products, the norm cocycle, and the random word sampler of fixed
lengths and of the first-passage stopping rule.

Long products are tracked in a renormalized form (matrix with max-entry near
one, plus a separate log2 scale), so chi values never overflow. One step,
`scaled_step`, forms every such product on plain complex entries; the
`ScaledMatrix` objects wrap it, and the first-passage sampler runs it
without building an object per letter.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import StallError
from .sl2 import ExactMatrix, GroupElement, exact_det_is_one, sigma2

Word = Tuple[int, ...]

MAX_PASSAGE_BLOCKS = 100_000   # sample_word stalls past this many blocks
COMPARE_LETTERS_MAX = 4        # draw_letters compares up to this alphabet
LETTER_CHUNK = 32              # letter_steps draws this many steps at once
# the stall rule of the stopping-rule samplers: after STALL_CHECK_STEPS
# letters or blocks, a chi below STALL_CHI_FRACTION of the goal means the
# norm cocycle is not growing
STALL_CHECK_STEPS = 256
STALL_CHI_FRACTION = 0.02


def _rounded(x: ExactMatrix) -> GroupElement:
    # int true division rounds correctly, as float(Fraction) does
    den, *parts = x
    return GroupElement(*(complex(re / den, im / den)
                          for re, im in zip(parts[::2], parts[1::2])))


@dataclass(frozen=True)
class System:
    """Generating data: matrices g_i and probability vector p. In exact mode
    `exact` holds the canonical integer tuple (see `sl2.exact_matrix`) of
    each g_i, and the float generators are those entries rounded; in float
    mode it is None."""

    generators: Tuple[GroupElement, ...]
    probs: Tuple[float, ...]
    exact: Optional[Tuple[ExactMatrix, ...]] = None
    name: str = "custom"

    def __post_init__(self):
        if len(self.generators) != len(self.probs):
            raise ValueError("generator and probability counts differ")
        if not self.generators:
            raise ValueError("empty system")
        if not all(0 < p < math.inf for p in self.probs):
            raise ValueError("probabilities must be positive and finite")
        if abs(math.fsum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        if self.exact is None:
            for i, g in enumerate(self.generators):
                if not g.det_defect() <= 1e-10:     # NaN fails as well
                    raise ValueError(
                        f"generator {i}: |det - 1| = {g.det_defect():.3e}")
            return
        for i, x in enumerate(self.exact):
            # grouping keys compare tuples, so each must be the unique form
            if not (x[0] > 0 and math.gcd(*x) == 1):
                raise ValueError(f"generator {i}: exact tuple not canonical")
            if not exact_det_is_one(x):
                raise ValueError(f"generator {i}: exact determinant is not 1")
        if self.generators != tuple(map(_rounded, self.exact)):
            raise ValueError("float generators are not the rounded exact ones")

    @classmethod
    def from_exact(cls, exact: Sequence[ExactMatrix], probs: Sequence[float],
                   name: str) -> "System":
        """Exact-mode system; the float generators are the exact entries
        rounded."""
        exact = tuple(tuple(x) for x in exact)
        return cls(tuple(map(_rounded, exact)), tuple(probs), exact, name)

    @property
    def size(self) -> int:
        return len(self.generators)

    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def transposed(self) -> "System":
        # b sits in slots 3-4 of an exact tuple and c in slots 5-6
        exact = None if self.exact is None else tuple(
            x[:3] + x[5:7] + x[3:5] + x[7:] for x in self.exact)
        return System(tuple(g.transpose() for g in self.generators),
                      self.probs, exact, self.name + "-transpose")

    def fingerprint(self) -> str:
        import hashlib
        parts = []
        for g in self.generators:
            parts.extend(f"{z.real:.17g},{z.imag:.17g}" for z in g.entries())
        parts.extend(f"{p:.17g}" for p in self.probs)
        parts.append(str(self.exact is not None))
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]

    def tag(self) -> str:
        """`name:fingerprint`, the system field of every report."""
        return f"{self.name}:{self.fingerprint()}"


def draw_letters(rng: np.random.Generator, probs: np.ndarray,
                 size: int) -> np.ndarray:
    """Inverse-CDF letter draws; one uniform per letter. The steps of
    `Generator.choice(len(probs), size, p=probs)` when the cumulative sum
    ends at exactly 1.0, without its per-call checks of probs."""
    return cdf_letters(letter_cdf(probs), rng.random(size))


def letter_steps(rng: np.random.Generator, probs: np.ndarray,
                 size: int) -> Iterator[np.ndarray]:
    """Endless letter rows of `size` letters, one per walk step: the rows
    that successive `draw_letters(rng, probs, size)` calls return, from one
    `rng.random` call per LETTER_CHUNK steps. The stream runs ahead of the
    rows taken, so `rng` serves only these rows."""
    cdf = letter_cdf(probs)
    while True:
        yield from cdf_letters(cdf, rng.random((LETTER_CHUNK, size)))


def letter_cdf(probs: np.ndarray) -> np.ndarray:
    """The cumulative sum of probs, set to exactly 1.0 at its end: the table
    of `cdf_letters`, for callers that map many draws."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return cdf


def cdf_letters(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The letter of each uniform: the number of cdf entries <= u.
    Alphabets of 2 to COMPARE_LETTERS_MAX letters count them with one
    comparison per entry, a pass each, which beats the binary search of
    `searchsorted` on long draws; larger alphabets search."""
    if not 1 < len(cdf) <= COMPARE_LETTERS_MAX:
        return np.searchsorted(cdf, u, side="right")
    first, *rest = cdf[:-1].tolist()
    letters = (u >= first).astype(np.intp)
    for c in rest:
        letters += u >= c
    return letters


# ---------------------------------------------------------------------------
# renormalized products
# ---------------------------------------------------------------------------

Entries = Tuple[complex, complex, complex, complex]   # row-major a, b, c, d


def scaled_step(m: Entries, h: Entries) -> Tuple[Entries, int]:
    """The product m h of two matrices given by their entries, divided by
    2^e, with e the binary exponent of its largest entry modulus; returns
    (entries, e). The division is by a power of two, so it is exact. These
    are the float operations of `GroupElement.__matmul__` and then the
    renormalisation, in their order: the one step of every renormalised
    product on plain complex numbers."""
    a, b, c, d = m
    e, f, g, k = h
    pa, pb, pc, pd = a * e + b * g, a * f + b * k, c * e + d * g, c * f + d * k
    top = max(abs(pa), abs(pb), abs(pc), abs(pd))
    if top == 0.0:
        raise ZeroDivisionError("zero matrix in scaled product")
    exp = math.frexp(top)[1]
    s = math.ldexp(1.0, -exp)
    return (pa * s, pb * s, pc * s, pd * s), exp


def scaled_log2_norm(m: Entries, log2_scale: float) -> float:
    """log2 of the operator norm of 2^log2_scale m, for a product of
    determinant one; 0.0 at norm one (see `sl2.sigma2`). The float
    operations of `GroupElement.frobenius2` and `.det`."""
    a, b, c, d = m
    f2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    s2 = sigma2(f2, abs(a * d - b * c) ** 2)
    return 0.0 if s2 is None else log2_scale + 0.5 * math.log2(s2)


@dataclass(slots=True)
class ScaledMatrix:
    """Product matrix stored as (entries / 2^log2_scale) to avoid overflow."""

    g: GroupElement
    log2_scale: float = 0.0

    @classmethod
    def identity(cls) -> "ScaledMatrix":
        return cls(GroupElement.identity(), 0.0)

    def times(self, h: GroupElement) -> "ScaledMatrix":
        entries, e = scaled_step(self.g.entries(), h.entries())
        return ScaledMatrix(GroupElement(*entries), self.log2_scale + e)

    def log2_op_norm(self) -> float:
        """log2 of the product's operator norm (see scaled_log2_norm)."""
        return scaled_log2_norm(self.g.entries(), self.log2_scale)

    def chi(self) -> float:
        return 2.0 * self.log2_op_norm()


def product_of_word(sys: System, u: Sequence[int]) -> GroupElement:
    """Left-to-right float product g_{u_0} ... g_{u_{n-1}}; empty word gives
    the identity."""
    acc = GroupElement.identity()
    for i in u:
        acc = acc @ sys.generators[i]
    return acc


def scaled_product(sys: System, u: Sequence[int],
                   acc: Optional[ScaledMatrix] = None) -> ScaledMatrix:
    """acc g_{u_0} ... g_{u_{n-1}} in renormalized form; acc defaults to
    the identity."""
    if acc is None:
        acc = ScaledMatrix.identity()
    for i in u:
        acc = acc.times(sys.generators[i])
    return acc


# ---------------------------------------------------------------------------
# random words
# ---------------------------------------------------------------------------

def sample_word(sys: System, rng, *, length: Optional[int] = None,
                first_passage: Optional[Tuple[int, int, int]] = None) -> Word:
    """Random word: i.i.d. letters of a fixed length, or i.i.d. blocks until
    chi exceeds the passage level (the first-passage stopping rule of
    `first_passage_product`, which tests chi only at blocks where
    2 log2_scale + 2 passes the level, and at block STALL_CHECK_STEPS).
    Each block's letters come from one `rng.random` call, so `rng` can
    serve other draws in between."""
    if (length is None) == (first_passage is None):
        raise ValueError("specify exactly one of length / first_passage")
    # the letters of `cdf_letters`, one binary search per uniform
    cdf = letter_cdf(sys.probs_array()).tolist()

    def letters(k: int) -> List[int]:
        return [bisect.bisect_right(cdf, u) for u in rng.random(k).tolist()]

    if length is not None:
        return tuple(letters(length))
    return first_passage_product(sys, letters, first_passage)[0]


def first_passage_product(sys: System, letters: Callable[[int], List[int]],
                          passage: Tuple[int, int, int]
                          ) -> Tuple[Word, Entries, int]:
    """(word, entries, log2_scale) of the first-passage word for
    passage = (j, l, n): a block of j letters, then blocks of l letters,
    each from `letters(k)`, until chi exceeds n; the word's product is
    2^log2_scale times the entries, formed with the steps of
    `scaled_product`.

    chi is tested only where it can pass n, and at block STALL_CHECK_STEPS
    for the stall rule: after `scaled_step` every entry is below 1, so
    sigma^2 < 4 and chi <= 2 log2_scale + 2, and a block that leaves this
    bound at or below n cannot stop the word."""
    j, l, n = passage
    if not (0 <= j < l):
        raise ValueError("need 0 <= j < l")
    gens = [g.entries() for g in sys.generators]
    acc, log2_scale = GroupElement.identity().entries(), 0
    word, block, blocks = [], letters(j), 0
    while True:
        word += block
        blocks += 1
        for i in block:
            acc, e = scaled_step(acc, gens[i])
            log2_scale += e
        if 2 * log2_scale + 2 > n or blocks == STALL_CHECK_STEPS:
            chi = 2.0 * scaled_log2_norm(acc, log2_scale)
            if chi > n:
                return tuple(word), acc, log2_scale
            if blocks == STALL_CHECK_STEPS and chi < STALL_CHI_FRACTION * n:
                raise StallError("norm cocycle is not growing; "
                                 "system looks non-proximal")
        if blocks > MAX_PASSAGE_BLOCKS:
            raise StallError(
                f"chi failed to pass {n} within {MAX_PASSAGE_BLOCKS} blocks")
        block = letters(l)
