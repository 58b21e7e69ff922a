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
_TILE = 64  # paths per scratch tile of fill_normals


def check_seed(seed: int) -> int:
    if int(seed) != seed or not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def path_stream(master_seed: int, path_index: int) -> np.random.Generator:
    """The stream of one path, keyed by (master_seed, path_index), on Philox."""
    key = np.array([check_seed(master_seed), check_seed(path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def fill_normals(streams, out: np.ndarray) -> np.ndarray:
    """Fill column ``p`` of ``out`` with the next standard normal draws of ``streams[p]``.

    ``out`` is time-major, (steps, paths), so a time step's draws lie in one
    contiguous row.  Each tile of ``_TILE`` paths draws into a (``_TILE``,
    steps) scratch array, one contiguous row per path written in place by
    ``Generator.standard_normal(out=row)``, and the tile is copied
    transposed into ``out``; no temporary of the block's size is made.
    """
    tile = np.empty((_TILE, out.shape[0]))
    for p0 in range(0, len(streams), _TILE):
        group = streams[p0 : p0 + _TILE]
        for row, stream in zip(tile, group):
            stream.standard_normal(out=row)
        out[:, p0 : p0 + len(group)] = tile[: len(group)].T
    return out


def path_normals(master_seed: int, path_index: int, n: int) -> np.ndarray:
    """``n`` standard normal draws from the stream of one path."""
    return path_stream(master_seed, path_index).standard_normal(n)


def normals(master_seed: int, paths, n: int) -> np.ndarray:
    """``n`` standard normal draws per path index of ``paths``, one row per path.

    The draws are made time-major by ``fill_normals``; the result is the
    transposed view, (len(paths), n), of that (n, len(paths)) array.
    """
    streams = [path_stream(master_seed, p) for p in paths]
    return fill_normals(streams, np.empty((n, len(streams)))).T
