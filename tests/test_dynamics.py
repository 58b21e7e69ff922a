import json
import math
import tracemalloc
from bisect import bisect_right
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from flexfunc import bilinear, dynamics, equilibria, model, rng
from flexfunc.dynamics import Ensemble, Schedule
from flexfunc.model import FlexParams, reference_params
from strategies import admissible_params

TILE = rng._TILE


@pytest.fixture(scope="module")
def p():
    return reference_params()


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(breakpoints=(), u_values=(), B_values=())
    with pytest.raises(ValueError, match="first breakpoint"):
        Schedule(breakpoints=(1.0,), u_values=(0.5,), B_values=(0.5,))
    with pytest.raises(ValueError, match="equal length"):
        Schedule(breakpoints=(0.0, 1.0), u_values=(0.5,), B_values=(0.5, 0.5))
    with pytest.raises(ValueError, match="strictly increasing"):
        Schedule(breakpoints=(0.0, 1.0, 1.0), u_values=(0.1,) * 3, B_values=(0.1,) * 3)
    with pytest.raises(ValueError, match="outside"):
        Schedule.constant(1.5, 0.5)


def _evolve(times, dt=None):
    from flexfunc.generator import build_generator, evolve_pdf, point_mass_pdf

    gen = build_generator(reference_params(), 0.2, 0.4, n_cells=32)
    return evolve_pdf(gen, point_mass_pdf(gen.grid, 0.5), times, dt=dt)


@pytest.mark.parametrize(
    "build,argument",
    [
        pytest.param(lambda: _evolve([math.nan]), "times", id="evolve-times-nan"),
        pytest.param(lambda: _evolve([1.0, math.nan]), "times", id="evolve-later-time-nan"),
        pytest.param(lambda: _evolve([1.0, math.inf]), "times", id="evolve-time-inf"),
        pytest.param(lambda: _evolve([1.0], dt=math.nan), "dt", id="evolve-dt-nan"),
        pytest.param(lambda: _evolve([1.0], dt=math.inf), "dt", id="evolve-dt-inf"),
        pytest.param(
            lambda: Schedule((0.0, math.nan), (0.1, 0.9), (0.4, 0.4)), "breakpoints", id="schedule-nan"
        ),
        pytest.param(
            lambda: Schedule((0.0, math.inf), (0.1, 0.9), (0.4, 0.4)), "breakpoints", id="schedule-inf"
        ),
        pytest.param(
            lambda: Schedule((0.0, 1.0, math.nan), (0.1,) * 3, (0.4,) * 3),
            "breakpoints",
            id="schedule-last-nan",
        ),
        pytest.param(lambda: bilinear.BilinearParams(r1=math.nan), "r1", id="bilinear-r1-nan"),
        pytest.param(lambda: bilinear.BilinearParams(r2=math.inf), "r2", id="bilinear-r2-inf"),
        pytest.param(lambda: bilinear.BilinearParams(x0=math.nan), "x0", id="bilinear-x0-nan"),
    ],
)
def test_non_finite_time_and_rate_arguments_are_rejected(build, argument):
    with pytest.raises(ValueError, match=argument):
        build()


def test_schedule_lookup(p):
    s = Schedule(breakpoints=(0.0, 2.0, 5.0), u_values=(0.1, 0.2, 0.3), B_values=(0.4, 0.5, 0.6))
    g_seg, B_seg, (seg,) = dynamics._segments(p, s, np.array([0.0, 1.999, 2.0, 100.0]))
    assert seg.tolist() == [0, 0, 1, 2]
    assert B_seg.tolist() == [0.4, 0.5, 0.6]
    assert g_seg.tolist() == [model.price_response(p, u) for u in s.u_values]


def test_ode_matches_scipy_reference(p):
    # independent route: adaptive RK45 at tight tolerance on the same drift
    sched = Schedule.constant(0.3, 0.6)

    def rhs(t, y):
        return [model.drift(p, float(np.clip(y[0], 0.0, 1.0)), 0.3, 0.6)]

    sol = solve_ivp(rhs, (0.0, 10.0), [0.2], rtol=1e-10, atol=1e-12, dense_output=True)
    traj = dynamics.integrate_ode(p, 0.2, sched, dt=0.01, t_end=10.0)
    assert abs(traj.states[-1] - sol.y[0, -1]) < 1e-7


def test_ode_fourth_order(p):
    # halving dt should shrink the error by about 2^4
    sched = Schedule.constant(0.3, 0.6)
    ref = dynamics.integrate_ode(p, 0.2, sched, dt=0.0005, t_end=4.0).states[-1]
    e1 = abs(dynamics.integrate_ode(p, 0.2, sched, dt=0.08, t_end=4.0).states[-1] - ref)
    e2 = abs(dynamics.integrate_ode(p, 0.2, sched, dt=0.04, t_end=4.0).states[-1] - ref)
    assert e2 < e1 / 8.0


def test_ode_converges_to_equilibrium(p):
    x_star = equilibria.solve_equilibrium(p, 0.5).x_star
    for x0 in (0.05, 0.5, 0.95):
        traj = dynamics.integrate_ode(p, x0, Schedule.constant(0.5, 0.4), t_end=40 * p.C)
        assert abs(traj.states[-1] - x_star) < 1e-4


def test_ode_default_grid(p):
    traj = dynamics.integrate_ode(p, 0.5, Schedule.constant(0.2, 0.4))
    assert traj.times[1] - traj.times[0] == pytest.approx(0.01 * p.C)
    assert traj.times[-1] == pytest.approx(20.0 * p.C)
    # demand column recomputes from the state, bit for bit
    assert np.array_equal(traj.demands, [model.demand(p, x, 0.2, 0.4) for x in traj.states])


@settings(max_examples=100)
@given(
    admissible_params(),
    st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=20),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_drift_scalar_matches_array_kernel(params, xs, g, B):
    # the same IEEE operations in the same order, except that math.tanh and
    # np.tanh may round differently in the last bit
    kernel = model.deviation(params, np.array(xs), g, B) / params.C
    for x, want in zip(xs, kernel):
        got = dynamics._drift_scalar(params, x, g, B)
        assert abs(got - want) <= 2e-15 * abs(want), (x, got, want)


def _value_at(sched, t):
    """(u, B) in force at time ``t``; the oracle for ``dynamics._segments``."""
    j = bisect_right(sched.breakpoints, t) - 1
    return sched.u_values[j], sched.B_values[j]


@st.composite
def _schedule_on_grid(draw, dt, n_steps, max_inner=3):
    """Up to max_inner + 1 segments; inner breakpoints are grid times, half-steps or arbitrary times."""
    inner = draw(
        st.lists(
            st.one_of(
                st.integers(1, n_steps).map(lambda i: i * dt),
                st.integers(0, n_steps - 1).map(lambda i: (i + 0.5) * dt),
                st.floats(0.0, n_steps * dt, exclude_min=True),
            ),
            max_size=max_inner,
        )
    )
    breakpoints = [0.0, *sorted(set(inner))]
    levels = st.lists(st.floats(0.0, 1.0), min_size=len(breakpoints), max_size=len(breakpoints))
    return Schedule(breakpoints, draw(levels), draw(levels))


@settings(max_examples=40)
@given(st.data(), admissible_params(), st.floats(0.0, 1.0), st.sampled_from([0.01, 0.05, 0.3]))
def test_ode_demand_column_matches_scalar_demand(data, params, x0, dt):
    n_steps = data.draw(st.integers(1, 200))
    sched = data.draw(_schedule_on_grid(dt, n_steps))
    traj = dynamics.integrate_ode(params, x0, sched, dt=dt, t_end=n_steps * dt)
    want = [
        model.demand(params, x, *_value_at(sched, float(t)))
        for x, t in zip(traj.states, traj.times)
    ]
    assert np.array_equal(traj.demands, want)


def _reference_rk4(params, x0, sched, dt, times):
    """The RK4 loop with each stage's (g, B) looked up by ``_value_at``; every step computed."""
    g = {u: model.price_response(params, u) for u in sched.u_values}

    def rate(t, x):
        u, B = _value_at(sched, t)
        return dynamics._drift_scalar(params, x, g[u], B)

    x = x0
    states = [x]
    for t in times[:-1]:
        k1 = rate(t, x)
        k2 = rate(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = rate(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = rate(t + dt, x + dt * k3)
        x = min(1.0, max(0.0, x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0))
        states.append(x)
    return states


@settings(max_examples=40)
@given(st.data(), admissible_params(), st.floats(0.0, 1.0), st.sampled_from([0.01, 0.05, 0.3]))
def test_rk4_stage_inputs_match_schedule_lookup(data, params, x0, dt):
    # a breakpoint between a step's start and its midpoint or end must reach
    # exactly the stages that sample past it
    n_steps = data.draw(st.integers(1, 200))
    sched = data.draw(_schedule_on_grid(dt, n_steps))
    traj = dynamics.integrate_ode(params, x0, sched, dt=dt, t_end=n_steps * dt)
    assert np.array_equal(traj.states, _reference_rk4(params, x0, sched, dt, traj.times))


@settings(max_examples=30)
@given(st.data(), admissible_params(), st.sampled_from([0.01, 0.05, 0.3]))
def test_rk4_long_horizon_matches_reference(data, params, dt):
    # long enough for most segments to settle: a step that returns its own
    # input fills the rest of its segment, and the next segment resumes it
    n_steps = data.draw(st.integers(1000, 4000))
    sched = data.draw(_schedule_on_grid(dt, n_steps, max_inner=2))
    x_star = equilibria.solve_equilibrium(params, sched.u_values[0]).x_star
    near = st.floats(-1e-6, 1e-6).map(lambda d: min(1.0, max(0.0, x_star + d)))
    x0 = data.draw(st.one_of(st.sampled_from([0.0, 1.0, x_star]), near, st.floats(0.0, 1.0)))
    traj = dynamics.integrate_ode(params, x0, sched, dt=dt, t_end=n_steps * dt)
    assert np.array_equal(traj.states, _reference_rk4(params, x0, sched, dt, traj.times))


def test_ode_fill_needs_a_step_inside_one_segment(p):
    # a step whose end stage reads the next segment can return its own input
    # although that segment's steps move the state: it must not start a fill
    dt = 0.01
    x_settled = dynamics.integrate_ode(p, 0.3, Schedule.constant(0.5, 0.4), dt=dt, t_end=40.0).states[-1]
    moved = 0
    for du in np.linspace(1e-14, 1e-13, 30):
        sched = Schedule((0.0, 10.75 * dt), (0.5, 0.5 + du), (0.4, 0.4))
        x = dynamics.integrate_ode(p, x_settled, sched, dt=dt, t_end=400 * dt).states
        assert np.array_equal(x, _reference_rk4(p, x_settled, sched, dt, np.arange(401) * dt))
        moved += x[11] == x[10] != x[-1]
    assert moved  # some straddling step returned its input and the state moved later


def test_ode_fills_the_settled_fig2_fan(monkeypatch):
    # fig2's starts reach a fixed point of the RK4 step well before t_end = 40 C;
    # computing every step would call the drift 4 n_steps times per start
    config = json.loads((Path(__file__).resolve().parent.parent / "configs" / "fig2.json").read_text())
    params, x0s = FlexParams.from_dict(config["params"]), config["simulate"]["x0"]
    sched = Schedule.constant(0.5, 0.4)
    drift, calls = dynamics._drift_scalar, []

    def counting(*args):
        calls.append(None)
        return drift(*args)

    monkeypatch.setattr(dynamics, "_drift_scalar", counting)
    for x0 in x0s:
        n_steps = len(dynamics.integrate_ode(params, x0, sched, t_end=40.0 * params.C).times) - 1
    assert len(calls) < 0.5 * 4 * n_steps * len(x0s)


def test_ode_prices_each_segment_once(p, monkeypatch):
    # g(u) is constant per segment; a per-time-point evaluation, direct or
    # through model.demand, would call the I-spline once per grid point
    calls = []
    price_response = model.price_response

    def counting(params, u):
        calls.append(u)
        return price_response(params, u)

    for module in (dynamics, model):
        monkeypatch.setattr(module, "price_response", counting)
    sched = Schedule(breakpoints=(0.0, 1.0, 2.5), u_values=(0.1, 0.7, 0.1), B_values=(0.4,) * 3)
    dynamics.integrate_ode(p, 0.5, sched, dt=0.01, t_end=4.0)
    assert len(calls) == len(sched.u_values)


def test_ode_piecewise_schedule(p):
    sched = Schedule(breakpoints=(0.0, 10.0), u_values=(0.0, 1.0), B_values=(0.4, 0.4))
    traj = dynamics.integrate_ode(p, 0.5, sched, t_end=40.0)
    i = int(np.searchsorted(traj.times, 10.0))
    assert traj.states[i] > 0.9  # u = 0 phase charges up
    assert traj.states[-1] < 0.1  # u = 1 phase discharges


def test_non_finite_state_message_has_no_prefix(p):
    # the CLI prefixes "numerical failure: " itself
    bad = FlexParams(C=float("nan"))
    with pytest.raises(RuntimeError, match=r"^non-finite state"):
        dynamics.integrate_ode(bad, 0.5, Schedule.constant(0.5, 0.5), dt=0.1, t_end=1.0)
    with pytest.raises(RuntimeError, match=r"^non-finite state"):
        dynamics.simulate_sde(bad, 0.5, Schedule.constant(0.5, 0.5), 4, 0, dt=0.1, t_end=1.0)


def test_x0_validated(p):
    with pytest.raises(ValueError):
        dynamics.integrate_ode(p, -0.2, Schedule.constant(0.5, 0.5))
    with pytest.raises(ValueError):
        dynamics.simulate_sde(p, 1.2, Schedule.constant(0.5, 0.5), 4, 0)


def test_sde_zero_noise_matches_ode(p):
    p0 = p.with_sigma(0.0)
    sched = Schedule.constant(0.2, 0.4)
    ens = dynamics.simulate_sde(p0, 0.5, sched, n_paths=3, master_seed=1, t_end=10.0)
    traj = dynamics.integrate_ode(p0, 0.5, sched, t_end=10.0)
    # Euler vs RK4: agreement at O(dt)
    assert np.max(np.abs(ens.states - traj.states[None, :])) < 5e-3
    assert np.ptp(ens.terminal) == 0.0


def test_sde_reproducible_and_thread_invariant(p):
    sched = Schedule.constant(0.2, 0.4)
    kw = dict(n_paths=2100, master_seed=42, dt=0.1, t_end=3.0)
    a = dynamics.simulate_sde(p, 0.5, sched, **kw)
    b = dynamics.simulate_sde(p, 0.5, sched, **kw)
    assert np.array_equal(a.states, b.states)
    assert a.pre_clamp_min == b.pre_clamp_min and a.pre_clamp_max == b.pre_clamp_max
    c = dynamics.simulate_sde(p, 0.5, sched, **dict(kw, master_seed=43))
    assert not np.array_equal(a.states, c.states)


def test_sde_states_invariant(p):
    ens = dynamics.simulate_sde(
        p.with_sigma(0.4), 0.9, Schedule.constant(0.8, 0.2), n_paths=200, master_seed=9, t_end=10.0
    )
    assert ens.states.min() >= 0.0 and ens.states.max() <= 1.0


def test_sde_small_step_excursions(p):
    dt = 1e-3 * p.C
    ens = dynamics.simulate_sde(
        p.with_sigma(0.5), 0.5, Schedule.constant(0.5, 0.5), n_paths=300, master_seed=3,
        dt=dt, t_end=2.0 * p.C,
    )
    assert ens.pre_clamp_min >= -10.0 * dt
    assert ens.pre_clamp_max <= 1.0 + 10.0 * dt


def test_sde_settles_at_corners(p):
    # low price charges to 1, high price drains to 0
    for u, target in ((0.0, 1.0), (1.0, 0.0)):
        ens = dynamics.simulate_sde(
            p, 0.5, Schedule.constant(u, 0.4), n_paths=64, master_seed=5, t_end=20 * p.C
        )
        assert abs(float(np.median(ens.terminal)) - target) < 0.05


def test_path_normals_contract():
    a = rng.path_normals(7, 0, 64)
    b = rng.path_normals(7, 0, 64)
    c = rng.path_normals(7, 1, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # standard normal within MC error
    tracemalloc.start()
    try:
        big = rng.path_normals(7, 2, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak  # one path's draws, not its tile's whole (200_000, 64) draw of 102.4 MB
    assert abs(big.mean()) < 0.01 and abs(big.std() - 1.0) < 0.01
    with pytest.raises(ValueError):
        rng.check_seed(-1)


@pytest.mark.parametrize(
    "draw",
    [
        lambda: rng.path_normals(1, 2**64, 4),
        lambda: rng.path_normals(1, -1, 4),
        lambda: rng.normals(1, [2**64], 3),
        lambda: next(rng.normal_blocks(1, range(2**64 - 1, 2**64 + 1), 4, 2)),
    ],
    ids=["path_normals-2**64", "path_normals-minus-1", "normals-2**64", "normal_blocks-past-2**64"],
)
def test_a_bad_path_index_is_blamed_not_the_seed(draw):
    with pytest.raises(ValueError, match="^path index must be an unsigned 64-bit integer"):
        draw()


@pytest.mark.parametrize(
    "draw",
    [lambda: rng.path_normals(-1, 3, 4), lambda: rng.normals(2**64, [3], 3)],
    ids=["path_normals-minus-1", "normals-2**64"],
)
def test_a_bad_seed_is_blamed_as_the_seed(draw):
    with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer"):
        draw()


@pytest.mark.parametrize("seed, path", [(7, 5), (0, 0), (2**64 - 1, 2**64 - 1)])
def test_path_stream_drawn_in_blocks_matches_one_draw(seed, path):
    whole = rng.path_normals(seed, path, 2000)
    for rows in (1, 64, 872, 1000, 2000, 2001):
        blocks = rng.normal_blocks(seed, range(path, path + 1), 2000, rows)
        assert np.concatenate(list(blocks))[:, 0].tobytes() == whole.tobytes(), rows
    assert rng.normals(seed, [path, 3], 2000)[0].tobytes() == whole.tobytes()
    # the draws are column path % 64 of numpy's standard normals on the
    # Philox stream of the tile's key, drawn 64 per step
    key = np.array([seed, path // TILE], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    assert gen.standard_normal((2000, TILE))[:, path % TILE].tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "paths, n_tiles",
    [
        (range(5, 6), 1),
        (range(63, 65), 2),
        (range(64, 200), 3),
        # float division would round (2**64 - 64) / 64 up to 2**58 and build a second stream
        (range(2**64 - 65, 2**64 - 64), 1),
        (range(2**64 - 130, 2**64), 3),
    ],
)
def test_a_walk_builds_one_stream_per_tile_it_touches(paths, n_tiles):
    with mock.patch.object(rng, "tile_stream", wraps=rng.tile_stream) as built:
        blocks = list(rng.normal_blocks(11, paths, 70, 32))
    first = paths.start // TILE
    assert [c.args for c in built.call_args_list] == [(11, t) for t in range(first, first + n_tiles)]
    # the columns are the whole-matrix reference draws of the same paths
    assert np.concatenate(blocks).tobytes() == rng.normals(11, paths, 70).T.tobytes()


@pytest.mark.parametrize("paths", [range(0, 10, 2), range(5, 0, -1), range(0), range(7, 7), range(9, 3)])
def test_a_walk_refuses_a_range_it_cannot_tile(paths):
    # a step-2 range once gave blocks as wide as its span; an empty one, a seed error for -1
    with mock.patch.object(rng, "tile_stream", wraps=rng.tile_stream) as built:
        with pytest.raises(ValueError, match=r"^paths must be a nonempty range with step 1, got range\("):
            next(rng.normal_blocks(11, paths, 70, 32))
    assert not built.called


def test_extreme_raw_draws_give_finite_normals(monkeypatch):
    tile_stream = rng.tile_stream

    def drawn_after(raw):
        stream = tile_stream(3, 0)
        state = stream.bit_generator.state
        state["buffer"] = np.full(4, raw, dtype=np.uint64)
        state["buffer_pos"] = 0  # the next four raw draws come from the buffer
        stream.bit_generator.state = state
        monkeypatch.setattr(rng, "tile_stream", lambda seed, t: stream)
        (block,) = rng.normal_blocks(3, range(TILE), 1, 1)  # one step's slab
        return block[0]

    assert np.isfinite(drawn_after(2**64 - 1)).all()
    z = drawn_after(0)
    assert np.isfinite(z).all()
    # a zero raw draw is a zero normal; the draws after the buffer are the stream's own
    assert (z[:4] == 0.0).all()
    assert z[4:].tobytes() == tile_stream(3, 0).standard_normal(TILE - 4).tobytes()


_unit = st.floats(0.0, 1.0)


@settings(max_examples=50)
@given(
    params=admissible_params(),
    sigma=st.floats(0.0, 1.0),
    x0=_unit,
    levels=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=3),
    n_paths=st.integers(1, 6),
    keep=st.integers(0, 6),
)
def test_state_space_invariance_property(params, sigma, x0, levels, n_paths, keep):
    # ROADMAP item 6: RK4 and the streamed Euler-Maruyama ensemble never leave [0, 1]
    p = params.with_sigma(sigma)
    u, B = zip(*levels)
    sched = Schedule(breakpoints=tuple(0.4 * p.C * j for j in range(len(levels))), u_values=u, B_values=B)
    dt = 0.01 * p.C
    t_end = (dynamics._CHUNK + 2) * dt  # two time blocks
    traj = dynamics.integrate_ode(p, x0, sched, dt=dt, t_end=t_end)
    ens = dynamics.simulate_sde(p, x0, sched, n_paths, 3, dt=dt, t_end=t_end, keep=min(keep, n_paths))

    def inside(a):
        return bool(np.all((a >= 0.0) & (a <= 1.0)))

    assert inside(traj.states)
    assert inside(ens.states) and inside(ens.terminal) and ens.terminal.shape == (n_paths,)
    s = ens.summary()
    assert ens.pre_clamp_min <= s["q05"].min() and s["q95"].max() <= ens.pre_clamp_max


def test_ensemble_and_trajectory_csv(tmp_path, p):
    ens = dynamics.simulate_sde(
        p, 0.5, Schedule.constant(0.2, 0.4), n_paths=128, master_seed=2, t_end=5.0
    )
    path = tmp_path / "ens.csv"
    ens.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mean,var,q05,q50,q95"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.5

    traj = dynamics.integrate_ode(p, 0.5, Schedule.constant(0.2, 0.4), t_end=1.0)
    tpath = tmp_path / "traj.csv"
    traj.to_csv(tpath)
    header, row1 = tpath.read_text().splitlines()[:2]
    assert header == "t,x,d"
    # full double precision round trip
    assert float(row1.split(",")[1]) == traj.states[0]


def test_grid_validation(p):
    with pytest.raises(ValueError):
        dynamics.integrate_ode(p, 0.5, Schedule.constant(0.2, 0.4), dt=-0.1)
    with pytest.raises(ValueError):
        dynamics.integrate_ode(p, 0.5, Schedule.constant(0.2, 0.4), dt=1.0, t_end=0.5)
    with pytest.raises(ValueError):
        dynamics.simulate_sde(p, 0.5, Schedule.constant(0.2, 0.4), 0, 0)
