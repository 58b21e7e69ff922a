"""Counter-based per-path random streams.

Each simulated path owns a Philox stream keyed by (master_seed, path_index),
so the numbers a path sees depend only on that pair, never on scheduling,
worker count or evaluation order.  Gaussian increments are produced by the
inverse normal CDF applied to open-interval uniforms, which keeps the
draw-count per path fixed (no rejection step).
"""

from __future__ import annotations

import numpy as np

_U64_MAX = 2**64 - 1


def check_seed(seed: int) -> int:
    if int(seed) != seed or not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def path_normals(master_seed: int, path_index: int, n: int) -> np.ndarray:
    """``n`` standard normal draws from the stream of one path."""
    # Lazy import: an eager scipy import costs every command ~25 MB and ~0.3 s.
    from scipy.special import ndtri

    key = np.array([check_seed(master_seed), check_seed(path_index)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    ints = gen.integers(0, 1 << 53, size=n, dtype=np.uint64)
    u = (ints.astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)
