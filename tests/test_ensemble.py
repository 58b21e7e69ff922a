"""The streamed Euler-Maruyama ensemble against whole-matrix oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from flexfunc import dynamics, model, rng
from flexfunc.dynamics import Schedule, simulate_sde
from flexfunc.model import reference_params

CHUNK = dynamics._CHUNK
X0 = 0.3  # its full-matrix column mean and its pairwise 1-D mean differ in the last bits
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


@pytest.mark.parametrize("n_steps", [1, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1, 2 * CHUNK + 2])
@pytest.mark.parametrize("n_paths", [1, 3, 1025])
def test_streamed_ensemble_matches_full_state_oracle(n_paths, n_steps):
    args = (reference_params(0.4), X0, SCHED, n_paths, 11)
    kw = dict(dt=DT, t_end=n_steps * DT)
    times, states, lo, hi = full_state_em(*args, **kw)
    q05, q50, q95 = np.quantile(states, [0.05, 0.50, 0.95], axis=0)
    oracle = dict(t=times, mean=states.mean(axis=0), var=states.var(axis=0), q05=q05, q50=q50, q95=q95)

    full = simulate_sde(*args, **kw)
    assert full.states.tobytes() == states.tobytes()
    assert summary_bits(full) == {name: col.tobytes() for name, col in oracle.items()}
    assert full.terminal.tobytes() == states[:, -1].tobytes()
    assert (full.pre_clamp_min, full.pre_clamp_max) == (lo, hi)

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
