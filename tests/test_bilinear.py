import math

import numpy as np
import pytest

from flexfunc import bilinear, rng
from flexfunc.bilinear import BilinearParams


def test_growth_rates():
    assert BilinearParams(1.0, -1.2).as_growth == pytest.approx(0.28)
    assert BilinearParams(1.0, 2.0).as_growth == pytest.approx(-1.0)


def test_x0_finite():
    with pytest.raises(ValueError):
        BilinearParams(1.0, 1.0, float("nan"))


def test_disturbed_ode_constant_signal_stable():
    # r1 + r2 * w < 0 shrinks the state
    bp = BilinearParams(1.0, -1.2, 1.0)
    traj = bilinear.disturbed_ode(bp, lambda t: 2.0, dt=0.01, t_end=2.0)
    assert abs(traj.states[-1]) < abs(bp.x0)


def test_disturbed_ode_trivial_cases():
    still = bilinear.disturbed_ode(BilinearParams(0.0, 0.0, 3.0), lambda t: 1.0, 0.1, 1.0)
    assert np.all(still.states == 3.0)
    exp = bilinear.disturbed_ode(BilinearParams(1.0, 5.0, 1.0), lambda t: 0.0, 0.001, 1.0)
    assert exp.states[-1] == pytest.approx(math.e, abs=1e-10)


def test_mean_ode_closed_form():
    bp = BilinearParams(1.0, -1.2, 1.0)
    traj = bilinear.mean_ode(bp, 1.0, dt=0.01, t_end=5.0)
    exact = np.exp((bp.r1 + bp.r2) * traj.times)  # decay rate -0.2
    assert np.max(np.abs(traj.states - exact)) < 1e-6
    assert traj.states[-1] < traj.states[0]
    flat = bilinear.mean_ode(BilinearParams(1.0, -0.5, 2.0), 2.0, 0.05, 1.0)
    assert np.allclose(flat.states, 2.0, atol=1e-12)  # r1 + r2 * omega = 0


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
    with pytest.raises(ValueError):
        bilinear.strong_convergence_study(bp, n_paths=0)


def test_brownian_refinement_consistency():
    # all levels ride the same fine-grid paths: adding an intermediate level
    # cannot change the error at the levels already present
    bp = BilinearParams(1.0, -1.2, 1.0)
    s1 = bilinear.strong_convergence_study(bp, dts=[2**-6, 2**-8], n_paths=50)
    s2 = bilinear.strong_convergence_study(bp, dts=[2**-6, 2**-7, 2**-8], n_paths=50)
    assert s1.errors[0] == s2.errors[0]
    assert s1.errors[-1] == s2.errors[-1]


def test_as_growth_estimates():
    for r1, r2 in ((1.0, 2.0), (1.0, -1.2)):
        bp = BilinearParams(r1, r2, 1.0)
        est = bilinear.as_growth_estimate(bp, t_end=10.0, n_paths=1000)
        assert abs(est - bp.as_growth) < 0.1, (r1, r2, est)


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
    with pytest.raises(ValueError, match="every strong error is 0"):
        bilinear.strong_convergence_study(bp, dts=[0.25, 0.125], n_paths=4)
