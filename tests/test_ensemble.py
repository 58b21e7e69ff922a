"""The streamed Euler-Maruyama ensemble against whole-matrix oracles."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flexfunc import dynamics, model, rng
from flexfunc.dynamics import Schedule, simulate_sde
from flexfunc.model import reference_params
from strategies import normals

CHUNK = dynamics._CHUNK
X0 = 0.3  # the mean of a column of X0s is not X0 in the last bits
SCHED = Schedule(breakpoints=(0.0, 1.5), u_values=(0.1, 0.8), B_values=(0.4, 0.7))
DT = 0.01


def full_state_em(params, x0, schedule, n_paths, seed, dt, t_end):
    """Every state of every path in one matrix, advanced one step at a time."""
    times = dynamics.time_grid(dt, t_end)
    z = normals(seed, range(n_paths), len(times) - 1)
    seg = np.searchsorted(schedule.breakpoints, times[:-1], side="right") - 1
    g = np.array([model.price_response(params, u) for u in schedule.u_values])[seg]
    B = np.array(schedule.B_values)[seg]
    x = np.full(n_paths, x0)
    states = np.empty((n_paths, len(times)))
    states[:, 0] = x
    lo = hi = x0
    for i in range(len(times) - 1):
        dd = model.deviation(params, x, g[i], B[i])
        x = x + (dd / params.C) * dt + model.diffusion(params, x) * math.sqrt(dt) * z[:, i]
        lo, hi = min(lo, float(x.min())), max(hi, float(x.max()))
        x = np.clip(x, 0.0, 1.0)
        states[:, i + 1] = x
    return times, states, lo, hi


def summary_bits(ens):
    return {name: col.tobytes() for name, col in ens.summary().items()}


@pytest.mark.parametrize("n_steps", [1, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1, 2 * CHUNK + 2])
@pytest.mark.parametrize("n_paths", [1, 3, 1025])
def test_streamed_ensemble_matches_full_state_oracle(n_paths, n_steps):
    args = (reference_params(0.4), X0, SCHED, n_paths, 11)
    kw = dict(dt=DT, t_end=n_steps * DT)
    times, states, lo, hi = full_state_em(*args, **kw)
    q05, q50, q95 = np.quantile(states, [0.05, 0.50, 0.95], axis=0)
    rows = states.T.copy()  # one contiguous row of paths per time, as the ensemble's blocks hold them
    mean, var = rows.mean(axis=1), rows.var(axis=1)

    full = simulate_sde(*args, **kw)
    assert full.states.tobytes() == states.tobytes()
    assert full.terminal.tobytes() == states[:, -1].tobytes()
    assert (full.pre_clamp_min, full.pre_clamp_max) == (lo, hi)
    s = full.summary()
    assert s["t"].tobytes() == times.tobytes()
    for name, col in dict(q05=q05, q50=q50, q95=q95).items():
        assert s[name].tobytes() == col.tobytes(), name
    # t = 0 is x0 exactly; the oracle's row mean of X0 is not
    assert [s[name][0] for name in ("mean", "var", "q05", "q50", "q95")] == [X0, 0.0, X0, X0, X0]
    assert s["mean"][1:].tobytes() == mean[1:].tobytes()
    assert s["var"][1:].tobytes() == var[1:].tobytes()

    for keep in (0, 3, n_paths):
        if keep > n_paths:
            with pytest.raises(ValueError, match="keep"):
                simulate_sde(*args, keep=keep, **kw)
            continue
        part = simulate_sde(*args, keep=keep, **kw)
        assert part.states.shape == (keep, n_steps + 1)
        assert part.states.tobytes() == states[:keep].tobytes()
        assert summary_bits(part) == summary_bits(full)
        assert part.terminal.tobytes() == full.terminal.tobytes()
        assert (part.pre_clamp_min, part.pre_clamp_max) == (lo, hi)


def test_keep_is_validated():
    with pytest.raises(ValueError, match="keep"):
        simulate_sde(reference_params(), X0, SCHED, 4, 0, dt=DT, t_end=0.1, keep=-1)


def test_streamed_ensemble_memory_does_not_grow_with_the_horizon():
    p = reference_params()
    n_paths, n_times = 2048, 2001
    tracemalloc.start()
    try:
        ens = simulate_sde(p, X0, SCHED, n_paths, 1, dt=DT, t_end=(n_times - 1) * DT, keep=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.states.shape == (8, n_times) and ens.terminal.shape == (n_paths,)
    full_matrix = n_paths * n_times * 8  # 32.8 MB
    assert peak < full_matrix / 4, peak


def test_ensemble_mean_is_within_a_few_ulps_of_the_exact_mean():
    # Paths that crowd towards x = 1 (u = 0, fig4's first stage) are where
    # adding the 4096 paths one after another drifts, by ~400 ulps within
    # these 1000 steps.  A pairwise row sum errs like log2(n) roundings;
    # 4 ulps is twice its largest error here.  n is a power of two, so
    # dividing by it is exact.
    n_paths = 4096
    p = reference_params()
    ens = simulate_sde(p, 0.5, Schedule.constant(0.0, 0.4), n_paths, 1234, dt=0.01 * p.C, t_end=10 * p.C)
    exact = np.array([math.fsum(col) / n_paths for col in ens.states.T])
    assert np.all(np.abs(ens.mean - exact) <= 4 * np.spacing(exact))


def test_normal_blocks_make_no_block_sized_temporary():
    blocks = rng.normal_blocks(13, range(4096), CHUNK, CHUNK)
    tracemalloc.start()
    try:
        (block,) = blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - block.nbytes < block.nbytes / 8, peak
    # sampled columns are their paths' own draws
    for p in (0, 63, 64, 4095):
        assert block[:, p].tobytes() == rng.path_normals(13, p, CHUNK).tobytes()


@settings(max_examples=60)
@given(st.integers(1, 200), st.integers(1, 300), st.integers(0, 2**64 - 1), st.data())
def test_normal_blocks_columns_are_path_normals_in_any_rows(n_paths, steps, seed, data):
    # n_paths covers less than one tile, exactly one and a partial last tile
    rows = data.draw(st.integers(1, steps + 1))
    with mock.patch.object(rng, "tile_stream", wraps=rng.tile_stream) as built:
        blocks = list(rng.normal_blocks(seed, range(n_paths), steps, rows))
    assert built.call_count == math.ceil(n_paths / rng._TILE)
    assert [len(b) for b in blocks] == [min(rows, steps - s0) for s0 in range(0, steps, rows)]
    out = np.concatenate(blocks)
    for p in range(n_paths):
        assert out[:, p].tobytes() == rng.path_normals(seed, p, steps).tobytes(), p
    # blocks of any rows draw what one block of every step draws
    (whole,) = rng.normal_blocks(seed, range(n_paths), steps, steps)
    assert whole.tobytes() == out.tobytes()


@settings(max_examples=40)
@given(st.integers(1, 200), st.integers(1, 200))
def test_kept_paths_do_not_depend_on_the_number_of_paths(n1, n2):
    # less than one tile, exactly one and a partial last tile, on either side
    p = reference_params()
    keep = min(n1, n2)
    a, b = (simulate_sde(p, X0, SCHED, n, 77, dt=DT, t_end=0.1, keep=keep) for n in (n1, n2))
    assert a.states.tobytes() == b.states.tobytes()


@st.composite
def sample_columns(draw):
    """Columns of 1 to 320 samples with ties, subnormals and one sign of zero.

    -0.0 and +0.0 compare equal, so a sort and numpy's partition may leave
    them in different orders, and the sign of an interpolated zero follows
    that order.  Each array gets one sign of zero, drawn.
    """
    shape = (draw(st.integers(1, 320)), draw(st.integers(1, 4)))
    values = st.one_of(
        st.floats(-1.0, 1.0, allow_subnormal=True),
        st.sampled_from([0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.3, 1.0]),
    )
    a = draw(arrays(np.float64, shape, elements=values))
    return np.where(a == 0.0, draw(st.sampled_from([0.0, -0.0])), a)


@settings(max_examples=300, deadline=None)
@given(sample_columns())
def test_sorted_row_quantiles_are_numpys_linear_quantiles(a):
    expected = np.quantile(a, [0.05, 0.50, 0.95], axis=0)
    assert dynamics._quantiles(np.sort(a.T, axis=1)).tobytes() == expected.tobytes()
