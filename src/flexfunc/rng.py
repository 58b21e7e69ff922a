"""Counter-based per-path random streams.

Each simulated path owns a Philox stream keyed by (master_seed, path_index),
so the numbers a path sees depend only on that pair, never on scheduling,
worker count or evaluation order.  Gaussian increments are produced by the
inverse normal CDF applied to uniforms in [2^-54, 1 - 2^-53], which keeps
the draw-count per path fixed (no rejection step): drawing a stream in
blocks gives the same numbers as drawing it in one call.
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

    Each uniform is (k + 0.5) 2^-53 for the top 53 bits k of one raw 64-bit
    draw, the value ``Generator.integers(0, 2**53)`` gives, at a quarter of
    its per-call cost: ``Generator.random`` writes k 2^-53 into the row in
    place and one pass adds 2^-54, which rounds as the sum k + 0.5 would.
    For k = 2^53 - 1 that sum rounds to 1.0, whose normal is +inf, so the
    uniforms are clamped to 1 - 2^-53.  No temporary of the block's size is
    made.
    """
    # Lazy import: an eager scipy import costs every command ~25 MB and ~0.3 s.
    from scipy.special import ndtri

    for row, stream in zip(out, streams):
        stream.random(out=row)
    out += 2.0**-54
    np.minimum(out, 1.0 - 2.0**-53, out=out)
    return ndtri(out, out=out)


def path_normals(master_seed: int, path_index: int, n: int) -> np.ndarray:
    """``n`` standard normal draws from the stream of one path."""
    return fill_normals([path_stream(master_seed, path_index)], np.empty((1, n)))[0]


def normals(master_seed: int, paths, n: int) -> np.ndarray:
    """``n`` standard normal draws per path index of ``paths``, one row per path."""
    return fill_normals([path_stream(master_seed, p) for p in paths], np.empty((len(paths), n)))
