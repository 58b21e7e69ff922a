import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexfunc import bilinear, rng
from flexfunc.bilinear import BilinearParams


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
    with pytest.raises(ValueError, match="positive"):
        bilinear.strong_convergence_study(bp, dts=[0.5, -0.25])
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
    with pytest.raises(ArithmeticError, match="every strong error is 0"):
        bilinear.strong_convergence_study(bp, dts=[0.25, 0.125], n_paths=4)


# -- independent oracle: the whole fine noise matrix in memory, summed in one call


def _in_memory_study(bp, dts, n_paths, master_seed, t_end):
    """Strong errors and slope with every fine increment of every path held at once."""
    dts = np.asarray(sorted(set(dts), reverse=True))
    n_fine = int(round(t_end / dts[-1]))
    dw_fine = rng.normals(master_seed, range(n_paths), n_fine)
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
    return errors, float(np.polyfit(np.log(dts), np.log(errors), 1)[0])


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
    bp, kw = case
    errors, slope = _in_memory_study(bp, **kw)
    study = bilinear.strong_convergence_study(bp, **kw)
    assert study.errors.tobytes() == errors.tobytes()
    assert study.slope == slope


@pytest.mark.parametrize("n_paths", [1, 7])
def test_streamed_study_is_one_block_when_no_leaf_ends_on_every_ratio(n_paths):
    # 4095 = lcm(5, 7, 9, 13) steps; every leaf but the last ends on a multiple of 8 below it
    ratios = (1, 5, 7, 9, 13)
    ends = [b for _, b, _ in bilinear._pairwise_leaves(4095)]
    assert [b for b in ends if b % math.lcm(*ratios) == 0] == [4095]
    kw = dict(dts=[r / 4095 for r in ratios], n_paths=n_paths, master_seed=3, t_end=1.0)
    errors, slope = _in_memory_study(BilinearParams(), **kw)
    study = bilinear.strong_convergence_study(BilinearParams(), **kw)
    assert study.errors.tobytes() == errors.tobytes() and study.slope == slope


def test_pairwise_leaves_add_up_to_numpy_row_sum():
    # a change to numpy's pairwise order fails here, not as a silent shift of the study's w(t_end)
    rows = np.random.default_rng(5).standard_normal((2, 2**16 + 8))
    for n in [*range(1, 1101), 4096, 4097, 12345, 2**16 + 8]:
        x = rows[:, :n]
        leaves = bilinear._pairwise_leaves(n)
        assert [a for a, _, _ in leaves] == [0] + [b for _, b, _ in leaves[:-1]]
        assert leaves[-1][1] == n
        stack = []
        for a, b, adds in leaves:
            bilinear._pairwise_push(stack, x[:, a:b].sum(axis=1), adds)
        (total,) = stack
        assert total.tobytes() == x.sum(axis=1).tobytes(), n


def test_streamed_study_memory_is_a_fraction_of_the_fine_matrix():
    bp = BilinearParams(1.0, -1.2, 1.0)
    bilinear.strong_convergence_study(bp, dts=[0.5, 0.25], n_paths=2)  # loads scipy.special
    tracemalloc.start()
    try:
        study = bilinear.strong_convergence_study(bp, n_paths=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.4 <= study.slope <= 0.6
    fine_matrix = 1000 * 4096 * 8  # 32.8 MB at the default finest dt 2^-12
    assert peak < fine_matrix / 4, peak
