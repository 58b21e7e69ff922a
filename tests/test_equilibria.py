import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexfunc import equilibria, model
from flexfunc.model import FlexParams, reference_params
from strategies import admissible_params


@pytest.fixture(scope="module")
def p():
    return reference_params()


def test_corner_equilibria_exact(p):
    e0 = equilibria.solve_equilibrium(p, 0.0)
    e1 = equilibria.solve_equilibrium(p, 1.0)
    assert e0.x_star == 1.0 and e0.residual == 0.0
    assert e1.x_star == 0.0 and e1.residual == 0.0


def test_interior_equilibrium_residual(p):
    rng = np.random.default_rng(5)
    for u in rng.uniform(0.05, 0.95, 8):
        eq = equilibria.solve_equilibrium(p, float(u))
        bal = model.charge_response(p, eq.x_star) + model.price_response(p, float(u))
        assert abs(bal) < 1e-10
        assert eq.residual < 1e-10


def test_reference_anchor(p):
    # frozen from an independent bisection of f(x) = -g(0.2)
    eq = equilibria.solve_equilibrium(p, 0.2)
    assert eq.x_star == pytest.approx(0.8648948, abs=1e-6)


def test_equilibrium_monotone_in_price(p):
    us = np.linspace(0.0, 1.0, 21)
    xs = [equilibria.solve_equilibrium(p, float(u)).x_star for u in us]
    assert all(b <= a + 1e-12 for a, b in zip(xs, xs[1:]))


def test_u_star_range(p):
    with pytest.raises(ValueError):
        equilibria.solve_equilibrium(p, -0.1)
    with pytest.raises(ValueError):
        equilibria.solve_equilibrium(p, 1.2)


def test_unbracketed_equilibrium_refused():
    # g0 = 3 puts g(0) outside [-1, 1], so f(x) = -g(0) has no root in [0, 1]
    with pytest.raises(ValueError, match="not bracketed"):
        equilibria.solve_equilibrium(FlexParams(g0=3.0), 0.0)


@settings(max_examples=100, deadline=None)
@given(params=admissible_params(), u=st.floats(0.0, 1.0))
def test_equilibrium_is_a_corner_or_a_sign_change_to_the_next_float(params, u):
    eq = equilibria.solve_equilibrium(params, u)
    g = model.price_response(params, u)

    def h(x):
        return model.charge_response(params, x) + g

    assert eq.residual == abs(h(eq.x_star))
    if eq.x_star in (0.0, 1.0) and eq.residual <= 2.0 * model.IDENTITY_TOL:
        return
    assert h(eq.x_star) > 0.0 >= h(np.nextafter(eq.x_star, 1.0))


@settings(max_examples=50, deadline=None)
@given(params=admissible_params(), B=st.floats(0.0, 1.0), sigma=st.floats(0.0, 2.0))
def test_corners_are_stochastic_equilibria(params, B, sigma):
    # drift and diffusion vanish together at both corners, for every baseline and noise level
    p = params.with_sigma(sigma)
    for u_star, x_star in equilibria.CORNERS.items():
        assert abs(model.drift(p, x_star, u_star, B)) <= 1e-12
        assert model.diffusion(p, x_star) == 0.0


def test_certificate_passes_reference(p):
    cert = equilibria.certify_deterministic(p, 0.5, 0.4)
    assert cert.claim == "det-asymptotic"
    assert cert.passed and not cert.degenerate
    assert cert.margin < 0.0
    assert cert.failures == ()
    lo, hi = cert.region
    assert 0.0 <= lo < hi <= 1.0


def test_certificate_margin_is_the_slope_max(p):
    # df/dx = -0.5 - 4.5 (2x - 1)^2 for the reference alpha; B* inside (0, 1) keeps all of [0, 1]
    cert = equilibria.certify_deterministic(p, 0.0, 0.4)
    assert cert.margin == -0.5
    assert cert.region == (0.0, 1.0)
    assert cert.threshold == 0.0


@pytest.mark.parametrize("u_star,B_star", [(0.0, 0.4), (0.5, 0.4), (0.0, 0.0), (1.0, 1.0)])
def test_certificate_fails_where_f_rises_between_grid_points(u_star, B_star):
    # f rises on (0.99971, 1]: a 2001-point grid caught this only by where its points fell
    p = FlexParams(alpha=(-1.07243, 0.19973, 0.91510, -0.11483))
    cert = equilibria.certify_deterministic(p, u_star, B_star)
    assert not cert.passed and not cert.degenerate
    assert cert.margin > 0.0
    assert len(cert.failures) == 1
    lo, hi = cert.failures[0]
    assert 0.999 < lo < hi == 1.0
    assert model.charge_slope_max(p) == cert.margin


def test_certificate_corner_branches(p):
    # B* at a corner narrows the region to [0, x*] at B* = 0 and to [x*, 1]
    # at B* = 1; with x* at the far end, both are the whole unit interval
    c0 = equilibria.certify_deterministic(p, 0.0, 0.0)  # x* = 1, B* = 0
    c1 = equilibria.certify_deterministic(p, 1.0, 1.0)  # x* = 0, B* = 1
    for cert in (c0, c1):
        assert cert.passed and not cert.degenerate
        assert cert.region == (0.0, 1.0)
        assert cert.margin == -0.5  # max df/dx of the reference f


def test_certificate_degenerate_vacuous(p):
    # x* = 1 with B* = 1 leaves the empty region [1, 1]: vacuous but flagged
    cert = equilibria.certify_deterministic(p, 0.0, 1.0)
    assert cert.passed and cert.degenerate
    assert cert.margin == -np.inf


def test_certificate_region_is_the_unit_interval(p):
    cert = equilibria.certify_deterministic(p, 0.2, 0.4)
    x_star = equilibria.solve_equilibrium(p, 0.2).x_star
    assert cert.passed
    # an interior B* certifies all of [0, 1], x* included, with the margin max df/dx
    assert cert.region == (0.0, 1.0)
    assert 0.0 < x_star < 1.0
    assert cert.margin == -0.5
