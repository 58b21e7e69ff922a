import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexfunc import bilinear, rng
from flexfunc.bilinear import BilinearParams
from flexfunc.dynamics import time_grid
from strategies import normals


def test_growth_rates():
    assert BilinearParams(1.0, -1.2).as_growth == pytest.approx(0.28)
    assert BilinearParams(1.0, 2.0).as_growth == pytest.approx(-1.0)


def test_x0_finite():
    with pytest.raises(ValueError):
        BilinearParams(1.0, 1.0, float("nan"))


def test_mean_ode_negative_rate_stable():
    # r1 + r2 * omega < 0 shrinks the state
    bp = BilinearParams(1.0, -1.2, 1.0)
    traj = bilinear.mean_ode(bp, 2.0, dt=0.01, t_end=2.0)
    assert abs(traj.states[-1]) < abs(bp.x0)


def test_mean_ode_trivial_cases():
    still = bilinear.mean_ode(BilinearParams(0.0, 0.0, 3.0), 1.0, 0.1, 1.0)
    assert np.all(still.states == 3.0)
    exp = bilinear.mean_ode(BilinearParams(1.0, 5.0, 1.0), 0.0, 0.001, 1.0)
    assert exp.states[-1] == pytest.approx(math.e, abs=1e-10)


def test_mean_ode_closed_form():
    bp = BilinearParams(1.0, -1.2, 1.0)
    traj = bilinear.mean_ode(bp, 1.0, dt=0.01, t_end=5.0)
    exact = np.exp((bp.r1 + bp.r2) * traj.times)  # decay rate -0.2
    assert np.max(np.abs(traj.states - exact)) < 1e-6
    assert traj.states[-1] < traj.states[0]
    flat = bilinear.mean_ode(BilinearParams(1.0, -0.5, 2.0), 2.0, 0.05, 1.0)
    assert np.allclose(flat.states, 2.0, atol=1e-12)  # r1 + r2 * omega = 0


def _mean_rk4_rows(bp, omega, dt, t_end):
    """The mean equation's RK4 states in a row buffer, one plain loop over the steps."""
    times = time_grid(dt, t_end)
    xs = np.empty(len(times))
    x = xs[0] = float(bp.x0)

    def rhs(y):
        return bp.r1 * y + bp.r2 * y * omega

    for i in range(len(times) - 1):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        xs[i + 1] = x
    return xs


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
    st.floats(-10.0, 10.0),
    st.floats(-2.0, 2.0),
    st.floats(1e-3, 0.1),
    st.integers(1, 100),
)
def test_mean_ode_is_the_index_loop_bit_for_bit(r1, r2, x0, omega, dt, n_steps):
    bp = BilinearParams(r1, r2, x0)
    traj = bilinear.mean_ode(bp, omega, dt, n_steps * dt)
    assert traj.states.tobytes() == _mean_rk4_rows(bp, omega, dt, n_steps * dt).tobytes()


def test_exact_path_identity():
    bp = BilinearParams(1.0, -1.2, 0.7)
    times = np.linspace(0.0, 2.0, 9)
    w = np.sin(times)
    xs = bilinear.exact_path(bp, times, w)
    assert np.allclose(np.log(xs / bp.x0), bp.as_growth * times + bp.r2 * w)
    with pytest.raises(ValueError):
        bilinear.exact_path(bp, times, w[:-1])


def test_exact_path_deterministic_when_r2_zero():
    bp = BilinearParams(0.5, 0.0, 1.0)
    times = np.linspace(0.0, 3.0, 7)
    xs = bilinear.exact_path(bp, times, np.zeros_like(times))
    assert np.allclose(xs, np.exp(0.5 * times))


def test_em_path_matches_exact_at_fine_dt():
    bp = BilinearParams(1.0, -1.2, 1.0)
    times, x_em, x_exact = bilinear.demo_paths(bp, t_end=1.0, n_steps=2**14, master_seed=7)
    assert abs(x_em[-1] - x_exact[-1]) < 0.02 * abs(x_exact[-1])
    assert x_em.shape == x_exact.shape == times.shape


def _em_rows(bp, dt, dw, x0):
    """Every Euler-Maruyama state in a row buffer, one plain loop over the steps."""
    xs = np.empty((len(dw) + 1,) + dw.shape[1:])
    x = xs[0] = x0
    for i in range(len(dw)):
        x = x + bp.r1 * x * dt + bp.r2 * x * dw[i]
        xs[i + 1] = x
    return xs


def test_em_path_steps_a_row_of_paths_as_each_path_alone():
    bp = BilinearParams(0.7, -1.1, 1.3)
    dw = 0.1 * np.random.default_rng(3).standard_normal((40, 5))
    x0 = np.linspace(0.5, 2.0, 5)
    rows = np.array(list(bilinear.em_path(bp, 0.01, dw, x0)))
    assert rows.shape == (41, 5) and rows[0].tobytes() == x0.tobytes()
    assert rows.tobytes() == _em_rows(bp, 0.01, dw, x0).tobytes()
    for p in range(5):
        bp_p = BilinearParams(0.7, -1.1, x0[p])
        alone = np.array(list(bilinear.em_path(bp_p, 0.01, dw[:, p])))
        assert rows[:, p].tobytes() == alone.tobytes() == _em_rows(bp_p, 0.01, dw[:, p], x0[p]).tobytes(), p
    # the default start is bp.x0 for every path
    assert next(bilinear.em_path(bp, 0.01, dw)).tolist() == [1.3] * 5


def test_strong_convergence_slope_half():
    bp = BilinearParams(1.0, -1.2, 1.0)
    study = bilinear.strong_convergence_study(bp, n_paths=400, master_seed=2024)
    assert 0.4 <= study.slope <= 0.6, study.slope
    assert np.all(np.diff(study.errors) < 0.0)  # finer dt, smaller error


def test_strong_convergence_slope_one_when_deterministic():
    bp = BilinearParams(1.0, 0.0, 1.0)
    study = bilinear.strong_convergence_study(bp, n_paths=2)
    assert 0.9 <= study.slope <= 1.1, study.slope


def test_convergence_validation():
    bp = BilinearParams()
    with pytest.raises(ValueError, match="two distinct"):
        bilinear.strong_convergence_study(bp, dts=[0.5])
    with pytest.raises(ValueError, match="multiple"):
        bilinear.strong_convergence_study(bp, dts=[0.3, 0.001])
    with pytest.raises(ValueError, match="positive"):
        bilinear.strong_convergence_study(bp, dts=[0.5, -0.25])
    with pytest.raises(ValueError):
        bilinear.strong_convergence_study(bp, n_paths=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="dts must be finite"):
            bilinear.strong_convergence_study(bp, dts=[bad, 0.25])
    for bad in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            bilinear.strong_convergence_study(bp, dts=[0.5, 0.25], t_end=bad)
    # more fine steps than the limit, or more than a float holds, are refused before any draw
    for dts, t_end in (([2e-7, 1e-7], 2.0), ([2e-300, 1e-300], 1e300)):
        with pytest.raises(ArithmeticError, match="more than the limit"):
            bilinear.strong_convergence_study(bp, dts=dts, t_end=t_end)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_demo_paths_refuses_no_steps(n_steps):
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        bilinear.demo_paths(BilinearParams(), n_steps=n_steps)


@pytest.mark.parametrize("t_end", [0.0, math.nan, math.inf, -1.0])
def test_demo_paths_refuses_a_bad_horizon(t_end):
    with pytest.raises(ValueError, match="dt must be positive"):
        bilinear.demo_paths(BilinearParams(), t_end=t_end)


@pytest.mark.parametrize("n_steps", [1, 3, 7, 256, 1000, 4097])
@pytest.mark.parametrize("t_end", [1.0, 0.3, 59.4, 1e-3])
def test_demo_paths_times_are_the_uniform_grid(t_end, n_steps):
    times, _, _ = bilinear.demo_paths(BilinearParams(), t_end=t_end, n_steps=n_steps)
    assert times.tobytes() == (np.arange(n_steps + 1) * (t_end / n_steps)).tobytes()


def test_brownian_refinement_consistency():
    # all levels ride the same fine-grid paths: adding an intermediate level
    # cannot change the error at the levels already present
    bp = BilinearParams(1.0, -1.2, 1.0)
    s1 = bilinear.strong_convergence_study(bp, dts=[2**-6, 2**-8], n_paths=50)
    s2 = bilinear.strong_convergence_study(bp, dts=[2**-6, 2**-7, 2**-8], n_paths=50)
    assert s1.errors[0] == s2.errors[0]
    assert s1.errors[-1] == s2.errors[-1]


def test_csv_outputs(tmp_path):
    bp = BilinearParams(1.0, -1.2, 1.0)
    study = bilinear.strong_convergence_study(bp, dts=[2**-6, 2**-7, 2**-8], n_paths=16)
    f = tmp_path / "conv.csv"
    study.to_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0] == "dt,strong_error"
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 2**-6

    times, em, ex = bilinear.demo_paths(bp, n_steps=8)
    g = tmp_path / "paths.csv"
    bilinear.write_paths_csv(g, times, em, ex)
    lines = g.read_text().splitlines()
    assert lines[0] == "t,x_em,x_exact"
    assert len(lines) == 10


@pytest.mark.parametrize("bp", [BilinearParams(1.0, -1.2, 0.0), BilinearParams(0.0, 0.0, 1.0)])
def test_convergence_study_refuses_all_zero_errors(bp):
    # x0 = 0, or no drift and no noise: every step size is exact, no slope exists
    with pytest.raises(ArithmeticError, match="every strong error is 0"):
        bilinear.strong_convergence_study(bp, dts=[0.25, 0.125], n_paths=4)


_RUNS = {
    "mean_ode": lambda bp: bilinear.mean_ode(bp, 1.0, 0.01, 1.0),
    "demo_paths": lambda bp: bilinear.demo_paths(bp, 1.0, 256, 2),
    "study": lambda bp: bilinear.strong_convergence_study(bp, dts=[0.25, 0.125], n_paths=4),
}


@pytest.mark.parametrize(
    "run,bp,what",
    [
        *[(run, BilinearParams(r1=-1e308), what)
          for run, what in zip(_RUNS, ("mean path", "Euler-Maruyama path", "strong error"))],
        ("demo_paths", BilinearParams(r1=1.0, r2=2.0, x0=-1e308), "Euler-Maruyama path"),
        ("study", BilinearParams(x0=-1e308), "strong error"),
    ],
)
def test_a_non_finite_result_is_refused(run, bp, what):
    # finite parameters whose states overflow: the values were written as inf and nan
    with pytest.raises(FloatingPointError, match=f"^non-finite {what}$"):
        _RUNS[run](bp)


# -- independent oracle: the whole fine noise matrix in memory, summed in one call

_U = 2.0**-53  # unit roundoff of float64


def _in_memory_study(bp, dts, n_paths, master_seed, t_end):
    """Strong errors with every fine increment of every path held at once, and their bound.

    The streamed study sums each path's fine increments into w(t_end) block
    by block, in another order than one row sum.  Any order of summing n
    terms is within (n - 1) u sum|terms| of the exact sum (Higham 2002,
    section 4.2), so the two w(t_end) differ by at most twice that, each
    exact terminal value by a factor of at most exp(|r2| times that), and
    each error by the mean of those changes plus the rounding of the mean.
    """
    dts = np.asarray(sorted(set(dts), reverse=True))
    n_fine = int(round(t_end / dts[-1]))
    dw_fine = normals(master_seed, range(n_paths), n_fine)
    dw_fine *= math.sqrt(dts[-1])
    x_exact_end = bilinear.exact_path(bp, np.full(n_paths, t_end), dw_fine.sum(axis=1))
    errors = np.empty(dts.size)
    for j, dt in enumerate(dts):
        ratio = int(round(dt / dts[-1]))
        dw = dw_fine if ratio == 1 else dw_fine.reshape(n_paths, -1, ratio).sum(axis=2)
        x = np.full(n_paths, float(bp.x0))
        for i in range(dw.shape[1]):
            x = x + bp.r1 * x * dt + bp.r2 * x * dw[:, i]
        errors[j] = np.mean(np.abs(x - x_exact_end))
    w_slack = 2 * abs(bp.r2) * (n_fine - 1) * _U * np.abs(dw_fine).sum(axis=1)
    bound = np.mean(np.abs(x_exact_end) * np.expm1(w_slack)) + 8 * _U * errors
    return errors, bound


def _check_against_in_memory_oracle(bp, kw):
    errors, bound = _in_memory_study(bp, **kw)
    study = bilinear.strong_convergence_study(bp, **kw)
    assert np.all(np.abs(study.errors - errors) <= bound), (study.errors - errors, bound)
    assert study.slope == float(np.polyfit(np.log(study.dts), np.log(study.errors), 1)[0])


@st.composite
def _studies(draw):
    """Step-size ladders with power-of-two and other ratios, up to 4096 fine steps."""
    others = st.sampled_from([2, 3, 4, 5, 8, 15, 16, 64, 128, 160])
    ratios = {1, *draw(st.lists(others, min_size=1, max_size=3))}
    every = math.lcm(*ratios)
    n_fine = every * draw(st.integers(1, max(1, 4096 // every)))
    dt_fine = draw(st.floats(1e-4, 1e-2))
    r1, r2, x0 = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 1.5)), draw(st.floats(0.5, 1.5))
    bp = BilinearParams(r1, r2, x0)
    kw = dict(
        dts=[dt_fine * r for r in sorted(ratios)],
        n_paths=draw(st.integers(1, 64)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        t_end=n_fine * dt_fine,
    )
    return bp, kw


@settings(max_examples=40)
@given(_studies())
def test_streamed_study_matches_in_memory_oracle(case):
    _check_against_in_memory_oracle(*case)


@pytest.mark.parametrize("n_paths", [1, 7])
def test_streamed_study_is_one_block_when_no_leaf_ends_on_every_ratio(n_paths):
    # lcm(5, 7, 9, 13) = 4095 steps exceeds _CHUNK, so the whole study is one block
    ratios = (1, 5, 7, 9, 13)
    kw = dict(dts=[r / 4095 for r in ratios], n_paths=n_paths, master_seed=3, t_end=1.0)
    _check_against_in_memory_oracle(BilinearParams(), kw)


def test_streamed_study_memory_is_a_fraction_of_the_fine_matrix():
    bp = BilinearParams(1.0, -1.2, 1.0)
    tracemalloc.start()
    try:
        study = bilinear.strong_convergence_study(bp, n_paths=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.4 <= study.slope <= 0.6
    fine_matrix = 1000 * 4096 * 8  # 32.8 MB at the default finest dt 2^-12
    assert peak < fine_matrix / 4, peak


def test_study_keeps_only_each_levels_state():
    # one 128-step block of 1000 paths' fine noise is 1.02 MB; storing every
    # level's states as well (about 8,100 rows) peaked at 4.27 MB
    bilinear.strong_convergence_study(BilinearParams(), n_paths=1)  # numpy's lazy imports, untraced
    tracemalloc.start()
    try:
        bilinear.strong_convergence_study(BilinearParams(), n_paths=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * rng._CHUNK * 1000 * 8, peak


def test_streamed_study_memory_when_no_power_of_two_ratio():
    # ratios 1, 3, 5 have lcm 15, so blocks hold 120 of the 3825 fine steps
    bp = BilinearParams()
    tracemalloc.start()
    try:
        bilinear.strong_convergence_study(bp, dts=[r / 3825 for r in (1, 3, 5)], n_paths=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fine_matrix = 1000 * 3825 * 8  # 30.6 MB
    assert peak < fine_matrix / 4, peak
