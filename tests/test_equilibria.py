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


def test_certificate_corner_branches(p):
    # B* at the corners restricts the grid to the formula-consistent side
    c0 = equilibria.certify_deterministic(p, 0.0, 0.0)  # x* = 1, B* = 0
    c1 = equilibria.certify_deterministic(p, 1.0, 1.0)  # x* = 0, B* = 1
    assert c0.passed and c1.passed


def test_certificate_degenerate_vacuous(p):
    # x* = 1 with B* = 1 leaves no sampled side at all: vacuous but flagged
    cert = equilibria.certify_deterministic(p, 0.0, 1.0)
    assert cert.passed and cert.degenerate
    assert cert.margin == -np.inf


def test_certificate_grid_small_rejected(p):
    with pytest.raises(ValueError):
        equilibria.certify_deterministic(p, 0.5, 0.4, grid_n=50)


def test_certificate_excludes_ball(p):
    cert = equilibria.certify_deterministic(p, 0.2, 0.4, grid_n=4001)
    x_star = equilibria.solve_equilibrium(p, 0.2).x_star
    assert cert.passed
    # the sampled region brackets x* but the margin stays strictly negative
    assert cert.region[0] < x_star < cert.region[1]
    assert cert.margin < 0.0
