import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexfunc import generator, model
from flexfunc.equilibria import solve_equilibrium
from flexfunc.generator import GeneratorMatrix, StateGrid, build_generator
from flexfunc.model import reference_params
from strategies import admissible_params, dense


@pytest.fixture(scope="module")
def p():
    return reference_params()


@pytest.fixture(scope="module")
def gen(p):
    return build_generator(p, 0.2, 0.4, n_cells=200)


def speed_measure(params, u, B, n_fine=320_000):
    """Midpoints of ``n_fine`` equal cells and their probabilities under exp(int a / D) / D.

    The stationary density of the Ito SDE, with D = b^2 / 2, computed without
    the generator: int a / D by the midpoint rule between cell midpoints,
    kept in log space until the final normalization.
    """
    h = 1.0 / n_fine
    edges = np.arange(1, n_fine) * h
    mids = (np.arange(n_fine) + 0.5) * h

    def log_d(x):
        return np.log(0.5 * model.diffusion(params, x) ** 2)

    phi = np.cumsum(h * model.drift(params, edges, u, B) / np.exp(log_d(edges)))
    log_q = np.concatenate(([0.0], phi)) - log_d(mids)
    q = np.exp(log_q - log_q.max())
    return mids, q / q.sum()


def test_state_grid():
    g = StateGrid(10)
    assert g.width == pytest.approx(0.1)
    assert g.edges[0] == 0.0 and g.edges[-1] == 1.0
    assert g.centers[0] == pytest.approx(0.05)
    assert g.cell_of(0.0) == 0
    assert g.cell_of(1.0) == 9
    assert g.cell_of(0.55) == 5
    with pytest.raises(ValueError):
        StateGrid(1)


def test_bernoulli_stability():
    from flexfunc.generator import _bernoulli

    z = np.array([0.0, 1e-12, 2.0, -2.0, 50.0, -50.0, 800.0, -800.0])
    vals = _bernoulli(z)
    assert np.all(np.isfinite(vals))
    assert vals[0] == 1.0
    assert vals[2] == pytest.approx(2.0 / (np.e**2 - 1.0), rel=1e-12)
    assert vals[3] == pytest.approx(-2.0 / (np.e**-2 - 1.0), rel=1e-12)
    assert vals[6] == pytest.approx(0.0, abs=1e-300)   # B(z) -> 0 for large z
    assert vals[7] == pytest.approx(800.0, rel=1e-12)  # B(-z) -> z


def test_row_sums_and_boundaries(gen):
    assert np.max(np.abs(dense(gen).sum(axis=1))) < 1e-10
    # zero-flux boundaries: no jump out of the domain
    assert gen.down[0] == 0.0 and gen.up[-1] == 0.0
    # rates may underflow to 0 where exp(-|z|) is subnormal, but never go negative
    assert np.all(gen.up >= 0.0) and np.all(gen.down >= 0.0)
    assert gen.connected()


def test_build_rejects_small_grid(p):
    with pytest.raises(ValueError):
        build_generator(p, 0.2, 0.4, n_cells=8)


def test_generator_bands_validated():
    grid = StateGrid(4)
    up = np.array([1.0, 1.0, 1.0, 0.5])  # nonzero at the top boundary
    down = np.array([0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        GeneratorMatrix(grid=grid, up=up, down=down)
    with pytest.raises(ValueError):
        GeneratorMatrix(grid=grid, up=np.array([1.0, -1.0, 1.0, 0.0]), down=down)
    with pytest.raises(ValueError, match="one entry per cell"):
        GeneratorMatrix(grid=grid, up=np.array([1.0, 1.0, 0.0]), down=down)


def test_mass_conservation_and_positivity(gen):
    pdf0 = generator.point_mass_pdf(gen.grid, 0.5)
    assert pdf0.sum() * gen.grid.width == pytest.approx(1.0, abs=1e-14)
    series = generator.evolve_pdf(gen, pdf0, [0.1, 0.5, 1.0, 5.0, 20.0])
    mass = series.pdfs.sum(axis=1) * gen.grid.width
    assert np.max(np.abs(mass - 1.0)) < 1e-9
    assert series.pdfs.min() >= 0.0


def test_evolve_reaches_stationary(gen):
    pdf0 = generator.point_mass_pdf(gen.grid, 0.5)
    pi = generator.stationary_pdf(gen)
    series = generator.evolve_pdf(gen, pdf0, [200.0])
    l1 = np.abs(series.pdfs[-1] - pi).sum() * gen.grid.width
    assert l1 < 1e-6


def test_stationary_is_fixed_point(gen):
    pi = generator.stationary_pdf(gen)
    series = generator.evolve_pdf(gen, pi, [50.0])
    assert np.max(np.abs(series.pdfs[-1] - pi)) < 1e-10 * pi.max()


def test_detailed_balance(gen):
    pi = generator.stationary_pdf(gen) * gen.grid.width  # probabilities
    flux_up = pi[:-1] * gen.up[:-1]
    flux_down = pi[1:] * gen.down[1:]
    rel = np.abs(flux_up - flux_down) / np.maximum(flux_up, 1e-300)
    assert rel.max() < 1e-8


def test_stationary_moments_match_direct(gen):
    pi = generator.stationary_pdf(gen)
    mean, var = generator.stationary_moments(gen)
    xs = gen.grid.centers
    w = pi * gen.grid.width
    assert mean == pytest.approx(float(np.sum(w * xs)), abs=1e-13)
    assert var == pytest.approx(float(np.sum(w * (xs - mean) ** 2)), abs=1e-13)


def test_stationary_anchor(p, gen):
    # the anchor is the mean of the Ito speed-measure density, 0.865903
    mids, w = speed_measure(p, 0.2, 0.4)
    mean, var = generator.stationary_moments(gen)
    assert mean == pytest.approx(np.dot(mids, w), abs=1e-4)
    assert 0.0 < var < 1e-3


def test_evolve_validation(gen):
    pdf0 = generator.point_mass_pdf(gen.grid, 0.5)
    with pytest.raises(ValueError):
        generator.evolve_pdf(gen, pdf0, [])
    with pytest.raises(ValueError):
        generator.evolve_pdf(gen, pdf0, [1.0, 0.5])
    with pytest.raises(ValueError):
        generator.evolve_pdf(gen, pdf0[:-1], [1.0])
    with pytest.raises(ValueError):
        generator.evolve_pdf(gen, -pdf0, [1.0])
    with pytest.raises(ValueError):
        generator.evolve_pdf(gen, 2 * pdf0, [1.0])


def test_cdf_series(gen):
    pdf0 = generator.point_mass_pdf(gen.grid, 0.5)
    series = generator.evolve_pdf(gen, pdf0, [0.5, 5.0]).cumulative()
    assert np.all(np.diff(series.pdfs, axis=1) >= -1e-12)
    assert series.pdfs[:, -1] == pytest.approx(1.0, abs=1e-9)


def test_pure_drift_chain_collapses_to_equilibrium(p):
    # sigma = 0 keeps each edge one-directional (toward x*), so the chain is
    # still connected and the stationary mass lands on the equilibrium cell
    g0 = build_generator(p.with_sigma(0.0), 0.2, 0.4, n_cells=32)
    assert g0.connected()
    pi = generator.stationary_pdf(g0)
    assert pi.sum() * g0.grid.width == pytest.approx(1.0)
    mean = float((pi * g0.grid.width * g0.grid.centers).sum())
    x_star = solve_equilibrium(p, 0.2).x_star
    assert abs(mean - x_star) <= g0.grid.width


def test_absorbing_chain_warns():
    grid = StateGrid(4)
    g = GeneratorMatrix(
        grid=grid,
        up=np.array([1.0, 0.0, 0.0, 0.0]),
        down=np.array([0.0, 1.0, 0.0, 0.0]),
    )
    assert not g.connected()
    # mass trapped in cells 2 and 3 could sit in either: no unique stationary density
    with pytest.raises(ArithmeticError, match="stationary density undefined for a disconnected chain"):
        generator.stationary_pdf(g)


def test_spectral_gap_two_cell_closed_form():
    grid = StateGrid(2)
    a, b = 0.7, 1.3
    gen2 = GeneratorMatrix(grid=grid, up=np.array([a, 0.0]), down=np.array([0.0, b]))
    # eigenvalues of [[-a, a], [b, -b]] are 0 and -(a + b)
    assert generator.spectral_gap(gen2) == pytest.approx(-(a + b), abs=1e-12)


def test_spectral_gap_dense_oracle(p):
    gen64 = build_generator(p, 0.3, 0.5, n_cells=64)
    lam = generator.spectral_gap(gen64)
    ev = np.linalg.eigvals(dense(gen64))
    ev = np.sort(ev.real)
    dense_slowest = ev[-2]  # largest is ~0
    assert lam == pytest.approx(dense_slowest, rel=1e-6)
    fastest = generator.spectral_gap(gen64, mode="fastest")
    assert fastest == pytest.approx(ev[0], rel=1e-6)
    assert abs(fastest) > abs(lam)


def test_spectral_gap_negative_and_mode_validation(gen):
    assert generator.spectral_gap(gen) < 0.0
    with pytest.raises(ValueError):
        generator.spectral_gap(gen, mode="median")
    broken = GeneratorMatrix(
        grid=StateGrid(4),
        up=np.array([1.0, 0.0, 0.0, 0.0]),
        down=np.array([0.0, 1.0, 0.0, 0.0]),
    )
    with pytest.raises(ArithmeticError, match="disconnected"):
        generator.spectral_gap(broken)


def test_stationary_csv(tmp_path, gen):
    pi = generator.stationary_pdf(gen)
    path = tmp_path / "pi.csv"
    generator.write_stationary_csv(path, gen.grid, pi)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,pdf"
    assert len(lines) == 1 + gen.n_cells
    x0, p0 = (float(v) for v in lines[1].split(","))
    assert x0 == gen.grid.centers[0] and p0 == pi[0]


def test_series_csv_label(tmp_path, gen):
    pdf0 = generator.point_mass_pdf(gen.grid, 0.5)
    series = generator.evolve_pdf(gen, pdf0, [1.0]).cumulative()
    path = tmp_path / "cdf.csv"
    series.to_csv(path, value_label="cdf")
    assert path.read_text().splitlines()[0] == "t,x,cdf"


# Independent dense oracles over random admissible (u, B, sigma_x, n_cells).
_draws = dict(
    u=st.floats(0.0, 1.0),
    B=st.floats(0.0, 1.0),
    sigma_x=st.floats(0.01, 1.0),
    n_cells=st.integers(16, 300),
)


@settings(max_examples=40, deadline=None)
@given(**_draws)
def test_spectral_gap_matches_dense_eigvalsh(u, B, sigma_x, n_cells):
    g = build_generator(reference_params(sigma_x), u, B, n_cells=n_cells)
    assume(g.connected())
    off = np.sqrt(g.up[:-1] * g.down[1:])
    ev = np.linalg.eigvalsh(np.diag(g.diag) + np.diag(off, 1) + np.diag(off, -1))
    assert generator.spectral_gap(g) == pytest.approx(ev[-2], rel=1e-8)
    assert generator.spectral_gap(g, mode="fastest") == pytest.approx(ev[0], rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    **_draws,
    x0=st.floats(0.0, 1.0),
    dt=st.floats(1e-3, 2.0),
    intervals=st.lists(st.tuples(st.integers(1, 4), st.floats(0.01, 1.0)), min_size=1, max_size=4),
)
def test_evolve_matches_dense_implicit_euler(u, B, sigma_x, n_cells, x0, dt, intervals):
    # an interval of (n_sub - 1 + frac) dt takes n_sub equal steps of span / n_sub
    g = build_generator(reference_params(sigma_x), u, B, n_cells=n_cells)
    pdf0 = generator.point_mass_pdf(g.grid, x0)
    times = np.cumsum([dt * (n_sub - 1 + frac) for n_sub, frac in intervals])
    spans = np.diff(times, prepend=0.0)
    series = generator.evolve_pdf(g, pdf0, times, dt=dt)
    h = g.grid.width
    p = pdf0 * h
    for row, (n_sub, _), span in zip(series.pdfs, intervals, spans):
        a = np.eye(n_cells) - (span / n_sub) * dense(g).T
        for _ in range(n_sub):
            p = np.linalg.solve(a, p)
        assert np.max(np.abs(row * h - p)) < 1e-12
        assert abs(row.sum() * h - 1.0) < 1e-12
        assert row.min() >= 0.0


@settings(max_examples=60, deadline=None)
@given(params=admissible_params(), **_draws)
def test_generator_invariants_over_admissible_params(params, u, B, sigma_x, n_cells):
    g = build_generator(params.with_sigma(sigma_x), u, B, n_cells=n_cells)
    g_dense = dense(g)
    rates = g.up + g.down
    assert np.all(g.up >= 0.0) and np.all(g.down >= 0.0)
    assert np.all(np.abs(g_dense.sum(axis=1)) <= 1e-14 * rates)
    p = generator.stationary_pdf(g) * g.grid.width  # probabilities
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) < 1e-12
    # fixed point: p G = 0 up to rounding of the flux through each cell
    assert np.max(np.abs(p @ g_dense)) <= 1e-9 * np.max(p * rates)


@settings(max_examples=30, deadline=None)
@given(
    params=admissible_params(),
    u=st.floats(0.1, 0.9),
    B=st.floats(0.1, 0.9),
    sigma_x=st.floats(0.05, 0.5),
)
def test_stationary_converges_to_ito_speed_measure(params, u, B, sigma_x):
    # Second order towards exp(int a / D) / D.  The drift's slope jumps at the
    # equilibrium, where the slack switches from lambda (1 - B) to lambda B, so
    # the error's constant depends on where that kink falls in its cell: one
    # doubling of n cuts the error by 1.5x to 7x at B = 0.9, and by exactly 4x
    # at B = 0.5.  Three doublings must cut it by at least 16x.
    p = params.with_sigma(sigma_x)
    _, w = speed_measure(p, u, B)
    cells = {n: w.reshape(n, -1).sum(axis=1) for n in (200, 1600)}
    # A rate is an asymptotic claim: no cell of n = 200 may hold a fifth of the
    # mass.  That leaves out peaks narrower than two cells and the piles a weak
    # boundary drift leaves against x = 0 or 1.
    assume(cells[200].max() <= 0.2)
    err = []
    for n, expected in cells.items():
        g = build_generator(p, u, B, n_cells=n)
        err.append(np.abs(generator.stationary_pdf(g) * g.grid.width - expected).sum())
    assert err[0] >= 16.0 * err[1]


def _masked_bernoulli(z):
    """The former ``_bernoulli``: one buffer filled by three masked assignments."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-8
    out[small] = 1.0 - 0.5 * z[small]
    big = z > 700.0
    out[big] = 0.0
    rest = ~(small | big)
    out[rest] = z[rest] / np.expm1(z[rest])
    return out


def _masked_rates(params, u, B, n_cells):
    """The former rate assembly: fitted rates where D > 0, upwind rates where D = 0."""
    grid = StateGrid(n_cells)
    h = grid.width
    x_if = grid.edges[1:-1]
    d_prime = params.sigma_x**2 * x_if * (1.0 - x_if) * (1.0 - 2.0 * x_if)
    v = np.asarray(model.drift(params, x_if, u, B)) - d_prime
    d = 0.5 * np.asarray(model.diffusion(params, x_if)) ** 2
    up_if = np.empty_like(v)
    dn_if = np.empty_like(v)
    diffusive = d > 0.0
    w = v[diffusive] * h / d[diffusive]
    scale = d[diffusive] / h**2
    up_if[diffusive] = scale * _masked_bernoulli(-w)
    dn_if[diffusive] = scale * _masked_bernoulli(w)
    adv = ~diffusive
    up_if[adv] = np.maximum(v[adv], 0.0) / h
    dn_if[adv] = np.maximum(-v[adv], 0.0) / h
    return np.append(up_if, 0.0), np.insert(dn_if, 0, 0.0)


_BERNOULLI_EDGES = [0.0, -0.0, 1e-8, -1e-8, 37.4, -37.4, 700.0, 700.5, 709.8, 710.0, -710.0,
                    1e300, -1e300, 5e-324, -5e-324, np.inf, -np.inf, np.nan]


@settings(max_examples=100, deadline=None)
@given(z=st.lists(st.floats() | st.sampled_from(_BERNOULLI_EDGES), max_size=40))  # any float, NaN and inf too
def test_bernoulli_keeps_the_masked_bits(z):
    # a pin: the one selection gives the former masked fill's bits, NaN payloads included
    z = np.array(z + _BERNOULLI_EDGES)
    with np.errstate(all="ignore"):
        want = _masked_bernoulli(z)
    assert generator._bernoulli(z).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    params=admissible_params(),
    u=st.floats(0.0, 1.0),
    B=st.floats(0.0, 1.0),
    sigma_x=st.just(0.0) | st.floats(-100.0, 0.0).map(lambda e: 10.0**e),
    n_cells=st.integers(16, 300),
)
def test_rates_keep_the_masked_bits_wherever_the_peclet_number_is_finite(params, u, B, sigma_x, n_cells):
    # a pin: for sigma_x = 0 or >= 1e-100 every D is 0 or divides v h, so the rates keep their bits
    g = build_generator(params.with_sigma(sigma_x), u, B, n_cells=n_cells)
    up, down = _masked_rates(params.with_sigma(sigma_x), u, B, n_cells)
    assert g.up.tobytes() == up.tobytes()
    assert g.down.tobytes() == down.tobytes()


def _close(a, b):
    return np.max(np.abs(np.asarray(a) - b)) <= 1e-12 * np.max(np.abs(b))


@settings(max_examples=40, deadline=None)
@given(
    sigma_x=st.floats(-200.0, -100.0).map(lambda e: 10.0**e),
    u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    B=st.floats(0.01, 0.99),
    n_cells=st.sampled_from([16, 200, 1000]),
)
def test_a_diffusion_too_small_to_divide_by_gives_the_upwind_chain(sigma_x, u, B, n_cells):
    # D may be subnormal and v h / D overflow: those interfaces take the D -> 0 limit of the fitted
    # rates, so the chain answers as the noiseless one does.  B stays off 0 and 1, where the slack
    # lambda min(B, 1 - B), and with it the drift, can be as small as this noise.
    p = reference_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        g = build_generator(p.with_sigma(sigma_x), u, B, n_cells=n_cells)
    g0 = build_generator(p.with_sigma(0.0), u, B, n_cells=n_cells)
    assert np.all(np.isfinite(g.up)) and np.all(np.isfinite(g.down))
    assume(g0.connected())
    assert generator.stationary_moments(g)[0] == generator.stationary_moments(g0)[0]
    assert _close(generator.spectral_gap(g), generator.spectral_gap(g0))
    pdf0 = generator.point_mass_pdf(g.grid, 0.5)
    series, series0 = (generator.evolve_pdf(c, pdf0, [0.5, 2.0]) for c in (g, g0))
    assert _close(series.pdfs, series0.pdfs)


@settings(max_examples=40, deadline=None)
@given(
    params=admissible_params(),
    **_draws | {"n_cells": st.sampled_from([16, 200, 1000])},
    log_s=st.floats(-100.0, 100.0),
)
def test_the_generator_is_already_in_one_clock(params, u, B, sigma_x, n_cells, log_s):
    # (C, sigma_x) -> (s C, sigma_x / sqrt(s)) divides every jump rate by s, so the generator needs no
    # clock of its own: the gap in units of 1 / C and the stationary moments stay where they were
    s = 10.0**log_s
    q = params.with_sigma(sigma_x)
    scaled = replace(q, C=s * q.C, sigma_x=sigma_x / s**0.5)
    g, gs = (build_generator(r, u, B, n_cells=n_cells) for r in (q, scaled))
    assume(g.connected())
    gap, gap_s = generator.spectral_gap(g) * q.C, generator.spectral_gap(gs) * (s * q.C)
    assert gap_s == pytest.approx(gap, rel=1e-9, abs=0.0)
    for m, m_s in zip(generator.stationary_moments(g), generator.stationary_moments(gs)):
        assert abs(m_s - m) <= 1e-11
