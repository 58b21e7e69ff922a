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
number of raw draws per normal.
"""

from __future__ import annotations

import math

import numpy as np

_U64_MAX = 2**64 - 1
_TILE = 64  # paths per stream


def check_seed(seed: int) -> int:
    if int(seed) != seed or not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def tile_stream(master_seed: int, tile: int) -> np.random.Generator:
    """The stream of paths ``64 tile`` to ``64 tile + 63``, keyed by (master_seed, tile), on Philox."""
    key = np.array([check_seed(master_seed), check_seed(tile)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ``tile_stream`` under its earlier name: stream i of a list built with it is tile i's.
path_stream = tile_stream


def tile_streams(master_seed: int, n_paths: int) -> list[np.random.Generator]:
    """The streams of the ceil(n_paths / 64) tiles that hold paths 0 to n_paths - 1."""
    return [tile_stream(master_seed, t) for t in range(math.ceil(n_paths / _TILE))]


def fill_normals(streams, out: np.ndarray) -> np.ndarray:
    """Fill columns ``64 t`` to ``64 t + 63`` of ``out`` with the next draws of ``streams[t]``.

    ``out`` is time-major, (steps, paths), so a time step's draws lie in one
    contiguous row.  Each tile draws a full (steps, ``_TILE``) slab into one
    reused C-contiguous scratch array by ``Generator.standard_normal(out=slab)``,
    and the columns of ``out`` it covers are copied from it; a partial last
    tile still draws all 64 columns, so a path's numbers do not depend on
    the number of paths.  No temporary of the block's size is made.
    """
    slab = np.empty((out.shape[0], _TILE))
    for p0, stream in zip(range(0, out.shape[1], _TILE), streams):
        stream.standard_normal(out=slab)
        cols = out[:, p0 : p0 + _TILE]
        cols[...] = slab[:, : cols.shape[1]]
    return out


def normals(master_seed: int, paths, n: int) -> np.ndarray:
    """``n`` standard normal draws per path index of ``paths``, one row per path.

    Every tile the paths touch is drawn once, as (n, ``_TILE``), and each
    path's row is its column of that draw.
    """
    paths = [check_seed(p) for p in paths]
    drawn = {t: tile_stream(master_seed, t).standard_normal((n, _TILE)) for t in {p // _TILE for p in paths}}
    return np.array([drawn[p // _TILE][:, p % _TILE] for p in paths]).reshape(len(paths), n)


def path_normals(master_seed: int, path_index: int, n: int) -> np.ndarray:
    """``n`` standard normal draws of one path: its column of its tile's (n, 64) draw."""
    return normals(master_seed, [path_index], n)[0]
