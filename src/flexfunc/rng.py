"""Counter-based per-path random streams.

Each simulated path owns a Philox stream keyed by (master_seed, path_index),
so the numbers a path sees depend only on that pair, never on scheduling,
worker count or evaluation order.  Gaussian increments are produced by the
inverse normal CDF applied to open-interval uniforms, which keeps the
draw-count per path fixed (no rejection step): drawing a stream in blocks
gives the same numbers as drawing it in one call.
"""

from __future__ import annotations

import numpy as np

_U64_MAX = 2**64 - 1
_CONVERT_ROWS = 64  # rows per uint64 -> float pass of fill_normals; bounds its copy


def check_seed(seed: int) -> int:
    if int(seed) != seed or not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def path_stream(master_seed: int, path_index: int) -> np.random.Philox:
    """The stream of one path, keyed by (master_seed, path_index)."""
    key = np.array([check_seed(master_seed), check_seed(path_index)], dtype=np.uint64)
    return np.random.Philox(key=key)


def fill_normals(streams, out: np.ndarray) -> np.ndarray:
    """Fill row ``r`` of ``out`` with the next standard normal draws of ``streams[r]``.

    Each uniform is (k + 0.5) 2^-53 for the top 53 bits k of one raw 64-bit
    draw, the value ``Generator.integers(0, 2**53)`` gives, at a quarter of
    its per-call cost.  The raw draws are written into ``out`` itself, read
    as uint64, shifted in one pass and turned into floats ``_CONVERT_ROWS``
    rows at a time (numpy copies an overlapping input first), so no
    temporary of the block's size is made.
    """
    # Lazy import: an eager scipy import costs every command ~25 MB and ~0.3 s.
    from scipy.special import ndtri

    bits = out.view(np.uint64)
    for row, stream in zip(bits, streams):
        row[:] = stream.random_raw(row.size)
    bits >>= np.uint64(11)
    for r in range(0, len(out), _CONVERT_ROWS):
        np.add(bits[r : r + _CONVERT_ROWS], 0.5, out=out[r : r + _CONVERT_ROWS])
    out *= 2.0**-53
    return ndtri(out, out=out)


def path_normals(master_seed: int, path_index: int, n: int) -> np.ndarray:
    """``n`` standard normal draws from the stream of one path."""
    return fill_normals([path_stream(master_seed, path_index)], np.empty((1, n)))[0]


def normals(master_seed: int, paths, n: int) -> np.ndarray:
    """``n`` standard normal draws per path index of ``paths``, one row per path."""
    return fill_normals([path_stream(master_seed, p) for p in paths], np.empty((len(paths), n)))
