"""Counter-based per-path random streams.

Each simulated path owns a Philox stream keyed by (master_seed, path_index),
so the numbers a path sees depend only on that pair, never on scheduling,
worker count or evaluation order.  Gaussian increments come from numpy's
ziggurat sampler (``Generator.standard_normal``) on that stream.  A path
reads its own stream in order and nothing jumps a stream by its counter, so
drawing a stream in blocks gives the same numbers as drawing it in one call,
although the ziggurat takes a varying number of raw draws per normal.
"""

from __future__ import annotations

import numpy as np

_U64_MAX = 2**64 - 1


def check_seed(seed: int) -> int:
    if int(seed) != seed or not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def path_stream(master_seed: int, path_index: int) -> np.random.Generator:
    """The stream of one path, keyed by (master_seed, path_index), on Philox."""
    key = np.array([check_seed(master_seed), check_seed(path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fill_normals(streams, out: np.ndarray) -> np.ndarray:
    """Fill row ``r`` of ``out`` with the next standard normal draws of ``streams[r]``.

    Each row is written in place by ``Generator.standard_normal(out=row)``,
    so no temporary of the block's size is made.
    """
    for row, stream in zip(out, streams):
        stream.standard_normal(out=row)
    return out


def path_normals(master_seed: int, path_index: int, n: int) -> np.ndarray:
    """``n`` standard normal draws from the stream of one path."""
    return fill_normals([path_stream(master_seed, path_index)], np.empty((1, n)))[0]


def normals(master_seed: int, paths, n: int) -> np.ndarray:
    """``n`` standard normal draws per path index of ``paths``, one row per path."""
    return fill_normals([path_stream(master_seed, p) for p in paths], np.empty((len(paths), n)))
