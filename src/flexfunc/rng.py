"""Counter-based random streams, one per tile of 64 paths.

Paths are grouped in tiles of ``_TILE`` = 64 consecutive indices, and tile
``t`` owns a Philox stream keyed by (master_seed, t).  A tile's stream is
always drawn 64 normals per time step, one per path of the tile, so path
``p`` reads column ``p % 64`` of the time-major (steps, 64) draws of tile
``p // 64``: its numbers depend only on (master_seed, p), never on the
number of paths, scheduling, worker count or evaluation order.  Gaussian
increments come from numpy's ziggurat sampler (``Generator.standard_normal``)
on that stream.  A tile reads its stream in order and nothing jumps a
stream by its counter, so drawing a tile in blocks of steps gives the same
numbers as drawing it in one call, although the ziggurat takes a varying
number of raw draws per normal.  ``normal_blocks`` is the one walk the
package draws noise by.
"""

from __future__ import annotations

import numpy as np

_U64_MAX = 2**64 - 1
_TILE = 64  # paths per stream
_CHUNK = 128  # time steps per noise block; bounds its memory


def check_seed(seed: int, name: str = "seed") -> int:
    """``seed`` as an int; a ValueError naming ``name`` unless it is an unsigned 64-bit integer."""
    if int(seed) != seed or not 0 <= seed <= _U64_MAX:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def tile_stream(master_seed: int, tile: int) -> np.random.Generator:
    """The stream of paths ``64 tile`` to ``64 tile + 63``, keyed by (master_seed, tile), on Philox."""
    key = np.array([check_seed(master_seed), check_seed(tile, "tile index")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_blocks(master_seed: int, paths: range, n_steps: int, rows: int):
    """Yield the ``n_steps`` draws of a step-1 range of paths as time-major blocks.

    Each block is a new (``rows``, len(paths)) array, the last one shorter.
    Each tile the paths touch gets its stream once per walk; per block it
    draws a full (steps, 64) array and the block copies the columns it
    covers.  A partial tile still draws all 64 columns, so no draw depends
    on ``paths`` or ``rows``.
    """
    if paths.step != 1 or not paths:
        raise ValueError(f"paths must be a nonempty range with step 1, got {paths!r}")
    start, stop = check_seed(paths.start, "path index"), check_seed(paths.stop - 1, "path index") + 1
    tiles = []  # (stream, its columns of the block, their columns of its draw)
    for t in range(start // _TILE, -(-stop // _TILE)):
        lo, hi = max(start, t * _TILE), min(stop, (t + 1) * _TILE)
        tile_cols = slice(lo - t * _TILE, hi - t * _TILE)
        tiles.append((tile_stream(master_seed, t), slice(lo - start, hi - start), tile_cols))
    for s0 in range(0, n_steps, rows):
        block = np.empty((min(rows, n_steps - s0), stop - start))
        for stream, cols, tile_cols in tiles:
            block[:, cols] = stream.standard_normal((len(block), _TILE))[:, tile_cols]
        yield block


def path_normals(master_seed: int, path_index: int, n: int) -> np.ndarray:
    """``n`` standard normal draws of one path, read ``_CHUNK`` steps at a time."""
    blocks = normal_blocks(master_seed, range(path_index, path_index + 1), n, _CHUNK)
    return np.concatenate([*blocks, np.empty((0, 1))])[:, 0]  # the empty block allows n = 0
