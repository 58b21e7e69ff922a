"""Hypothesis strategies and oracle builders shared by several test modules."""

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from flexfunc import bilinear, model, rng
from flexfunc.model import FlexParams


@st.composite
def admissible_params(draw):
    """Random parameter sets that pass ``validate``, at the default sigma_x."""
    shape = np.array([draw(st.floats(0.01, 1.0)) for _ in range(3)])
    weights = np.array([draw(st.floats(0.01, 1.0)) for _ in range(7)])
    params = FlexParams(
        C=draw(st.floats(0.5, 5.0)),
        lam=draw(st.floats(0.05, 1.0)),
        k=draw(st.floats(0.5, 20.0)),
        alpha=(draw(st.floats(-0.5, 0.5)), *(shape / shape.sum())),
        beta=tuple(-2.0 * weights / weights.sum()),
    )
    assume(model.validate(params).ok)
    return params


def dense(gen):
    """The generator's tridiagonal rate matrix as a dense array, rows summing to zero."""
    return np.diag(gen.diag) + np.diag(gen.down[1:], -1) + np.diag(gen.up[:-1], 1)


def growth_estimate(bp, t_end, n_paths, master_seed):
    """Monte Carlo estimate of the toy's almost-sure growth rate log|x(T)| / T from exact paths."""
    w_end = math.sqrt(t_end) * next(rng.normal_blocks(master_seed, range(n_paths), 1, 1))[0]
    x_end = bilinear.exact_path(bp, np.full(n_paths, t_end), w_end)
    return float(np.mean(np.log(np.abs(x_end)) / t_end))


def normals(master_seed, paths, n):
    """The whole-matrix reference draws of ``rng``: ``n`` normals per path index of ``paths``, one row per path.

    Every tile the paths touch is drawn once, as (n, 64), and each path's
    row is its column of that draw.
    """
    paths = [rng.check_seed(p, "path index") for p in paths]
    tiles = {p // rng._TILE for p in paths}
    drawn = {t: rng.tile_stream(master_seed, t).standard_normal((n, rng._TILE)) for t in tiles}
    return np.array([drawn[p // rng._TILE][:, p % rng._TILE] for p in paths]).reshape(len(paths), n)
