"""Words over the generator alphabet: matrix products, the norm cocycle,
first-passage word families, random word samplers, and the norm-doubling
word construction.

Long products are tracked in a renormalized form (matrix with max-entry near
one, plus a separate log2 scale), so chi values never overflow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceededError, ExactOverflowError, StallError
from .sl2 import (EXACT_IDENTITY, ExactEntries, ExactMatrix, GroupElement,
                  exact_matrix, exact_mul)

Word = Tuple[int, ...]

EXACT_BITS_CAP = 1 << 20     # bit-size cap for exact-mode integer entries
DEFAULT_ENUM_CAP = 10_000_000
MAX_PASSAGE_BLOCKS = 100_000   # sample_word stalls past this many blocks
COMPARE_LETTERS_MAX = 4        # draw_letters compares up to this alphabet


def _rounded(x: ExactEntries) -> GroupElement:
    xa, xb, xc, xd = x
    return GroupElement(complex(xa), complex(xb), complex(xc), complex(xd))


@dataclass(frozen=True)
class System:
    """Generating data: matrices g_i and probability vector p. In exact mode
    `exact` holds the Gaussian-rational entries of each g_i, and the float
    generators are those entries rounded; in float mode it is None."""

    generators: Tuple[GroupElement, ...]
    probs: Tuple[float, ...]
    exact: Optional[Tuple[ExactEntries, ...]] = None
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
        for i, (xa, xb, xc, xd) in enumerate(self.exact):
            det = xa * xd - xb * xc
            if not (det.re == 1 and det.im == 0):
                raise ValueError(f"generator {i}: exact determinant is not 1")
        if self.generators != tuple(map(_rounded, self.exact)):
            raise ValueError("float generators are not the rounded exact ones")

    @classmethod
    def from_exact(cls, exact: Sequence[ExactEntries], probs: Sequence[float],
                   name: str) -> "System":
        """Exact-mode system; the float generators are the exact entries
        rounded by complex()."""
        exact = tuple(tuple(x) for x in exact)
        return cls(tuple(map(_rounded, exact)), tuple(probs), exact, name)

    @property
    def size(self) -> int:
        return len(self.generators)

    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def transposed(self) -> "System":
        exact = None if self.exact is None else tuple(
            (xa, xc, xb, xd) for xa, xb, xc, xd in self.exact)
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
    ends at exactly 1.0, without its per-call checks of probs.

    A letter is the number of cdf entries <= u. Alphabets of 2 to
    COMPARE_LETTERS_MAX letters count them with one comparison per entry,
    a pass each, which beats the binary search of `searchsorted` on long
    draws; larger alphabets search."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = rng.random(size)
    if not 1 < len(cdf) <= COMPARE_LETTERS_MAX:
        return np.searchsorted(cdf, u, side="right")
    first, *rest = cdf[:-1].tolist()
    letters = (u >= first).astype(np.intp)
    for c in rest:
        letters += u >= c
    return letters


@dataclass
class WordSet:
    """Finite word family with its cylinder weights p_u."""

    words: List[Word]
    weights: List[float]
    block_norm_const: Optional[float] = None   # C with ||g_u||_op <= C 2^(n/2)
    exact_ties: int = 0
    complete: bool = True

    def total_weight(self) -> float:
        return math.fsum(self.weights)

    def __len__(self) -> int:
        return len(self.words)


# ---------------------------------------------------------------------------
# renormalized products
# ---------------------------------------------------------------------------

@dataclass
class ScaledMatrix:
    """Product matrix stored as (entries / 2^log2_scale) to avoid overflow."""

    g: GroupElement
    log2_scale: float = 0.0

    @classmethod
    def identity(cls) -> "ScaledMatrix":
        return cls(GroupElement.identity(), 0.0)

    def times(self, h: GroupElement) -> "ScaledMatrix":
        prod = self.g @ h
        m = max(abs(prod.a), abs(prod.b), abs(prod.c), abs(prod.d))
        if m == 0.0:
            raise ZeroDivisionError("zero matrix in scaled product")
        e = math.frexp(m)[1]  # renormalize by a power of two (exact in floats)
        f = math.ldexp(1.0, -e)
        scaled = GroupElement(prod.a * f, prod.b * f, prod.c * f, prod.d * f)
        return ScaledMatrix(scaled, self.log2_scale + e)

    def log2_op_norm(self) -> float:
        f2 = self.g.frobenius2()
        adet2 = abs(self.g.det()) ** 2
        sig2 = 0.5 * (f2 + math.sqrt(max(f2 * f2 - 4.0 * adet2, 0.0)))
        return self.log2_scale + 0.5 * math.log2(sig2)

    def chi(self) -> float:
        return 2.0 * self.log2_op_norm()


def product_of_word(sys: System, u: Sequence[int]) -> GroupElement:
    """Left-to-right float product g_{u_0} ... g_{u_{n-1}}; empty word gives
    the identity."""
    acc = GroupElement.identity()
    for i in u:
        acc = acc @ sys.generators[i]
    return acc


def exact_product(sys: System, u: Sequence[int],
                  bits_cap: int = EXACT_BITS_CAP) -> ExactMatrix:
    """Exact left-to-right product of u over `sys.exact` (see exact_mul);
    raises ExactOverflowError when one of its ints passes `bits_cap` bits."""
    if sys.exact is None:
        raise ValueError(f"system {sys.name!r} has no exact entries")
    acc, letters = EXACT_IDENTITY, [exact_matrix(x) for x in sys.exact]
    for i in u:
        acc = _capped(exact_mul(acc, letters[i]), bits_cap, len(u))
    return acc


def _capped(x: ExactMatrix, bits_cap: int, length: int) -> ExactMatrix:
    if max(v.bit_length() for v in x) > bits_cap:
        raise ExactOverflowError(
            f"exact entries exceeded {bits_cap} bits at length {length}")
    return x


def scaled_product(sys: System, u: Sequence[int],
                   acc: Optional[ScaledMatrix] = None) -> ScaledMatrix:
    """acc g_{u_0} ... g_{u_{n-1}} in renormalized form; acc defaults to
    the identity."""
    if acc is None:
        acc = ScaledMatrix.identity()
    for i in u:
        acc = acc.times(sys.generators[i])
    return acc


def chi_word(sys: System, u: Sequence[int]) -> float:
    """chi_u = 2 log2 ||g_u||_op, via a renormalized product (no overflow)."""
    return scaled_product(sys, u).chi()


def word_weight(sys: System, u: Sequence[int]) -> float:
    w = 1.0
    for i in u:
        w *= sys.probs[i]
    return w


def _exact_chi_tie(g: ExactMatrix, n: int) -> bool:
    """Exact check for chi_g == n: frobenius^2 == 2^n + 2^-n, that is
    sum(x^2) 2^n == (4^n + 1) D^2 over the integers of g = x / D."""
    if n < 0:
        return False
    den, *parts = g
    return sum(x * x for x in parts) << n == ((1 << 2 * n) + 1) * den * den


# ---------------------------------------------------------------------------
# first-passage enumeration and sampling
# ---------------------------------------------------------------------------

def _blocks(sys: System, l: int) -> List[Word]:
    return [tuple(b) for b in itertools.product(range(sys.size), repeat=l)]


def block_norm_constant(sys: System, l: int) -> float:
    """max_{v in Lambda^l} ||g_v||_op: one extra block can exceed the passage
    level by at most this factor."""
    best = 1.0
    for v in _blocks(sys, l):
        best = max(best, 2.0 ** (0.5 * chi_word(sys, v)))
    return best


# (word, scaled product, weight, exact product or None) of open words
_Frontier = List[Tuple[Word, ScaledMatrix, float, Optional[ExactMatrix]]]


def enumerate_first_passage(sys: System, j: int, l: int, n: int,
                            cap: int = DEFAULT_ENUM_CAP) -> WordSet:
    """All words u_0...u_s with u_0 of length j, blocks of length l, whose
    chi exceeds n at the final block only.

    The family is block-prefix-free and carries total weight 1; enumeration
    fails loudly when the words it has stored pass `cap` letters, so memory
    stays bounded even where the family is infinite (a norm-one generator).
    """
    if not (0 <= j < l):
        raise ValueError("need 0 <= j < l")
    out_words: List[Word] = []
    out_weights: List[float] = []
    ties = 0

    # frontier words carry their exact products, which decide chi ties
    exact = sys.exact is not None
    frontier: _Frontier = []
    letters = 0
    for u0 in itertools.product(range(sys.size), repeat=j):
        acc = scaled_product(sys, u0)
        letters += j
        w = word_weight(sys, u0)
        if acc.chi() > n:
            out_words.append(tuple(u0))
            out_weights.append(w)
        else:
            ex = exact_product(sys, u0) if exact else None
            ties += exact and _exact_chi_tie(ex, n)
            frontier.append((tuple(u0), acc, w, ex))

    blocks = _blocks(sys, l)
    block_mats = [product_of_word(sys, b) for b in blocks]
    block_ws = [word_weight(sys, b) for b in blocks]
    block_ex = [exact_product(sys, b) if exact else None for b in blocks]

    while frontier:
        new_frontier: _Frontier = []
        for word, acc, w, ex in frontier:
            for b, bm, bw, bx in zip(blocks, block_mats, block_ws, block_ex):
                letters += len(word) + l
                if letters > cap:
                    raise CapExceededError(
                        f"first-passage enumeration passed cap={cap} letters")
                nxt = acc.times(bm)
                nw = word + b
                if nxt.chi() > n:
                    out_words.append(nw)
                    out_weights.append(w * bw)
                else:
                    nx = _capped(exact_mul(ex, bx), EXACT_BITS_CAP,
                                 len(nw)) if exact else None
                    ties += exact and _exact_chi_tie(nx, n)
                    new_frontier.append((nw, nxt, w * bw, nx))
        frontier = new_frontier

    const = block_norm_constant(sys, l)
    return WordSet(out_words, out_weights, block_norm_const=const,
                   exact_ties=ties)


def sample_word(sys: System, rng, *, length: Optional[int] = None,
                first_passage: Optional[Tuple[int, int, int]] = None) -> Word:
    """Random word: i.i.d. letters of a fixed length, or i.i.d. blocks until
    chi exceeds the passage level (the first-passage stopping rule)."""
    if (length is None) == (first_passage is None):
        raise ValueError("specify exactly one of length / first_passage")
    p = sys.probs_array()
    if length is not None:
        return tuple(draw_letters(rng, p, length).tolist())

    j, l, n = first_passage
    if not (0 <= j < l):
        raise ValueError("need 0 <= j < l")
    block = tuple(draw_letters(rng, p, j).tolist())
    blocks, acc = [block], scaled_product(sys, block)
    while not acc.chi() > n:
        if len(blocks) > MAX_PASSAGE_BLOCKS:
            raise StallError(
                f"chi failed to pass {n} within {MAX_PASSAGE_BLOCKS} blocks")
        block = tuple(draw_letters(rng, p, l).tolist())
        blocks.append(block)
        acc = scaled_product(sys, block, acc)
    return tuple(itertools.chain.from_iterable(blocks))


# ---------------------------------------------------------------------------
# norm-doubling words
# ---------------------------------------------------------------------------

def is_doubling_word(sys: System, word: Sequence[int], j: int, l: int) -> bool:
    """True when the full product more than doubles the squared norm of every
    block prefix: ||g_v||^2 > 2 ||g_{u_0...u_i}||^2 for all 0 <= i < k."""
    word = tuple(word)
    if len(word) < j + l or (len(word) - j) % l != 0:
        raise ValueError("word length must be j + k*l with k >= 1")
    acc = scaled_product(sys, word[:j])
    prefix_log_norms = [acc.log2_op_norm()]
    for s in range(j, len(word), l):
        acc = scaled_product(sys, word[s:s + l], acc)
        prefix_log_norms.append(acc.log2_op_norm())
    full = prefix_log_norms.pop()
    # squared-norm doubling <=> log2 gap > 1/2
    return all(full > q + 0.5 for q in prefix_log_norms)


def doubling_word_sets(sys: System, j: int, l: int, n: int,
                       cap: int = DEFAULT_ENUM_CAP) -> Tuple[WordSet, int]:
    """Enumerate the norm-doubling words of up to n blocks, together with the
    density bound M = ceil(2 l log2 R), R = max_i ||g_i||_op^2.

    Each returned word is verified to lie in some first-passage family at a
    level <= n*M (the containment the bound rests on). Enumeration fails
    loudly when the words it has stored pass `cap` letters.
    """
    if not (0 <= j < l):
        raise ValueError("need 0 <= j < l")
    r_const = max(2.0 ** chi_word(sys, (i,)) for i in range(sys.size))
    m_bound = max(1, math.ceil(2.0 * l * math.log2(r_const))) if r_const > 1.0 else 1

    out_words: List[Word] = []
    out_weights: List[float] = []

    # frontier keeps every block word (a failure now can extend to a doubling
    # word later), so this is exponential and guarded by the stored letters;
    # each word carries the largest log2 norm among its block prefixes
    frontier: List[Tuple[Word, ScaledMatrix, float, float]] = []
    letters = 0
    for u0 in itertools.product(range(sys.size), repeat=j):
        acc = scaled_product(sys, u0)
        letters += j
        frontier.append((tuple(u0), acc, word_weight(sys, u0),
                         acc.log2_op_norm()))

    blocks = _blocks(sys, l)
    block_ws = [word_weight(sys, b) for b in blocks]

    for _ in range(n):
        new_frontier = []
        for word, acc, w, top in frontier:
            for b, bw in zip(blocks, block_ws):
                letters += len(word) + l
                if letters > cap:
                    raise CapExceededError(
                        f"doubling-word enumeration passed cap={cap} letters")
                nxt = scaled_product(sys, b, acc)
                nw = word + b
                lg = nxt.log2_op_norm()
                if lg > top + 0.5:
                    out_words.append(nw)
                    out_weights.append(w * bw)
                    chi_full = 2.0 * lg
                    k_pass = max(0, math.ceil(2.0 * top))
                    if not (chi_full > k_pass and k_pass <= n * m_bound):
                        raise RuntimeError(
                            "doubling word escaped the first-passage envelope")
                new_frontier.append((nw, nxt, w * bw, max(top, lg)))
        frontier = new_frontier

    return WordSet(out_words, out_weights), m_bound
