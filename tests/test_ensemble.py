"""The streamed Euler-Maruyama ensemble against whole-matrix oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flexfunc import dynamics, model, rng
from flexfunc.dynamics import Schedule, simulate_sde
from flexfunc.model import reference_params

CHUNK = dynamics._CHUNK
X0 = 0.3  # the mean of a column of X0s is not X0 in the last bits
SCHED = Schedule(breakpoints=(0.0, 1.5), u_values=(0.1, 0.8), B_values=(0.4, 0.7))
DT = 0.01


def full_state_em(params, x0, schedule, n_paths, seed, dt, t_end):
    """Every state of every path in one matrix, advanced one step at a time."""
    times = dynamics.time_grid(dt, t_end)
    z = rng.normals(seed, range(n_paths), len(times) - 1)
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


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff of a double."""
    return n * 2.0**-53 / (1.0 - n * 2.0**-53)


@pytest.mark.parametrize("n_steps", [1, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1, 2 * CHUNK + 2])
@pytest.mark.parametrize("n_paths", [1, 3, 1025])
def test_streamed_ensemble_matches_full_state_oracle(n_paths, n_steps):
    args = (reference_params(0.4), X0, SCHED, n_paths, 11)
    kw = dict(dt=DT, t_end=n_steps * DT)
    times, states, lo, hi = full_state_em(*args, **kw)
    q05, q50, q95 = np.quantile(states, [0.05, 0.50, 0.95], axis=0)
    mean, var = states.mean(axis=0), states.var(axis=0)

    full = simulate_sde(*args, **kw)
    assert full.states.tobytes() == states.tobytes()
    assert full.terminal.tobytes() == states[:, -1].tobytes()
    assert (full.pre_clamp_min, full.pre_clamp_max) == (lo, hi)
    s = full.summary()
    assert s["t"].tobytes() == times.tobytes()
    for name, col in dict(q05=q05, q50=q50, q95=q95).items():
        assert s[name].tobytes() == col.tobytes(), name
    # t = 0 is x0 exactly; the oracle's column mean of X0 is not
    assert [s[name][0] for name in ("mean", "var", "q05", "q50", "q95")] == [X0, 0.0, X0, X0, X0]
    # A 1-step block's column is summed in another order than the columns of
    # a wider block.  Any order of n terms is within gamma_{n-1} sum|terms| of
    # the exact sum (Higham 2002, section 4.2), so each computed mean is within
    # gamma_n mean|x| of the exact one.  The variance sums nonnegative squares
    # of deviations from that mean, three roundings each before the sum and
    # one after it: each computed variance is within gamma_{n+3} var +
    # (mean error)^2 of the exact one, and gamma_{n+4} times the oracle's var
    # covers gamma_{n+3} times the exact var, to first order in u.
    odd = n_steps if n_steps % CHUNK == 1 else None
    same = [c for c in range(1, n_steps + 1) if c != odd]
    assert s["mean"][same].tobytes() == mean[same].tobytes()
    assert s["var"][same].tobytes() == var[same].tobytes()
    if odd is not None:
        e_mean = gamma(n_paths) * np.abs(states[:, odd]).mean()
        assert abs(s["mean"][odd] - mean[odd]) <= 2.0 * e_mean
        assert abs(s["var"][odd] - var[odd]) <= 2.0 * (gamma(n_paths + 4) * var[odd] + e_mean**2)

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
    simulate_sde(p, X0, SCHED, 2, 1, dt=DT, t_end=0.1)  # load scipy.special outside the trace
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


def test_fill_normals_makes_no_block_sized_temporary():
    streams = [rng.path_stream(13, p) for p in range(4096)]
    out = np.empty((4096, CHUNK))
    rng.path_normals(13, 0, 1)  # load scipy.special outside the trace
    tracemalloc.start()
    try:
        rng.fill_normals(streams, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes / 8, peak
    # sampled rows are their streams' own draws
    for r in (0, 63, 64, 4095):
        assert out[r].tobytes() == rng.path_normals(13, r, CHUNK).tobytes()


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
