"""Deterministic block-parallel execution.

Work is split into fixed-size blocks; block i always consumes the RNG stream
derived from (seed, tag, i) and results are merged in block order, so output
is bit-identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List

import numpy as np

from .errors import UndersampledError

BLOCK_SIZE = 8192

# stream tags, one per sampling kernel
TAG_BOUNDARY = 1
TAG_LYAPUNOV = 2
TAG_COCYCLE = 4
TAG_DIM = 5
TAG_EXPERIMENT = 6
TAG_FIXTURE = 7


def block_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    """Independent stream keyed by (seed, tag, block index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(tag, index)))


def run_blocks(fn: Callable[[int, int, int], object], n_items: int,
               workers: int = 1, block_size: int = BLOCK_SIZE) -> List[object]:
    """Evaluate fn(start, count, block_index) over consecutive blocks.

    The block decomposition is a function of n_items alone; workers only cap
    concurrency. Results come back in block order.
    """
    if n_items < 1:
        raise UndersampledError(f"need at least one sample or trial, got {n_items}")
    blocks = []
    idx = 0
    for start in range(0, n_items, block_size):
        blocks.append((start, min(block_size, n_items - start), idx))
        idx += 1
    if workers <= 1 or len(blocks) <= 1:
        return [fn(*b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(fn, *b) for b in blocks]
        return [f.result() for f in futures]
