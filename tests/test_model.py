import numpy as np
import pytest

from flexfunc import model
from flexfunc.model import FlexParams, reference_params


@pytest.fixture(scope="module")
def p():
    return reference_params()


def test_boundary_identities(p):
    assert model.charge_response(p, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert model.charge_response(p, 1.0) == pytest.approx(-1.0, abs=1e-15)
    # reference beta is dyadic, so both sums are exact in floats
    assert model.price_response(p, 0.0) == 1.0
    assert model.price_response(p, 1.0) == -1.0


def test_monotonicity(p):
    xs = np.linspace(0.0, 1.0, 2001)
    fv = model.charge_response(p, xs)
    gv = model.price_response(p, xs)
    assert np.all(np.diff(fv) < 0.0)
    assert np.all(np.diff(gv) <= 1e-14)


def test_logistic_tanh_equals_rational(p):
    # same function written two ways
    rng = np.random.default_rng(0)
    z = rng.uniform(-3.0, 3.0, 64)
    rational = -1.0 + 2.0 / (1.0 + np.exp(-p.k * z))
    assert np.allclose(model.logistic_response(p, z), rational, atol=1e-14)
    assert model.logistic_response(p, 0.0) == 0.0
    assert model.logistic_response(p, 1e9) == pytest.approx(1.0)


def test_demand_stays_admissible(p):
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, 500)
    u = rng.uniform(0.0, 1.0, 500)
    B = rng.uniform(0.0, 1.0, 500)
    D = model.demand(p, x, u, B)
    assert np.all(D >= -1e-12) and np.all(D <= 1.0 + 1e-12)
    # deviation branches: nonnegative delta uses upward slack, negative uses B
    delta = model.logistic_response(p, model.charge_response(p, x) + model.price_response(p, u))
    dev = model.demand_deviation(p, delta, B)
    up = delta >= 0
    assert np.allclose(dev[up], delta[up] * p.lam * (1 - B[up]))
    assert np.allclose(dev[~up], delta[~up] * p.lam * B[~up])


def test_drift_bounded_and_diffusion_vanishes(p):
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, 300)
    u = rng.uniform(0.0, 1.0, 300)
    B = rng.uniform(0.0, 1.0, 300)
    assert np.all(np.abs(model.drift(p, x, u, B)) <= p.lam / p.C + 1e-15)
    assert model.diffusion(p, 0.0) == 0.0
    assert model.diffusion(p, 1.0) == 0.0
    assert model.diffusion(p, 0.5) == pytest.approx(0.25 * p.sigma_x)


def test_scalar_array_polymorphism(p):
    assert isinstance(model.charge_response(p, 0.3), float)
    assert isinstance(model.charge_response(p, np.array([0.3, 0.4])), np.ndarray)
    assert isinstance(model.demand(p, 0.3, 0.2, 0.4), float)


def test_validate_reference_ok(p):
    rep = model.validate(p)
    assert rep.ok
    # lambda = 1 sits on the boundary: accepted, but flagged
    assert any("lambda" in w for w in rep.warnings)


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(C=-1.0), "C"),
        (dict(lam=0.0), "lambda"),
        (dict(lam=1.5), "lambda"),
        (dict(k=0.0), "k"),
        (dict(sigma_x=-0.1), "sigma_x"),
        (dict(alpha=(0.0, 2.0, 0.0, 0.0)), "alpha"),
        (dict(alpha=(0.0, 1.0, 0.0)), "alpha"),
        (dict(beta=(-1.0, -1.0)), "beta"),
        (dict(g0=0.5), "g0"),
        (dict(alpha=(0.0, 3.0, -2.0, 0.0)), "decreasing"),
    ],
)
def test_validate_flags_violations(kwargs, fragment):
    rep = model.validate(FlexParams(**kwargs))
    assert not rep.ok
    assert any(fragment in v for v in rep.violations), rep.violations


@pytest.mark.parametrize(
    "kwargs,name",
    [
        (dict(g0=float("nan")), "g0"),
        (dict(alpha=(float("nan"), 0.25, 0.75, 0.0)), "alpha"),
        (dict(beta=(-0.375, -0.1875, -0.0625, float("nan"), -0.125, -0.5, -0.6875)), "beta"),
        (dict(beta=(-0.375, -0.1875, -0.0625, -0.0625, -0.125, -0.5, -float("inf"))), "beta"),
    ],
)
def test_validate_flags_non_finite(kwargs, name):
    rep = model.validate(FlexParams(**kwargs))
    assert any(f"{name} must be finite" in v for v in rep.violations), rep.violations


def test_validate_beta_positive_entry():
    beta = (-0.5, -0.5, -0.5, -0.5, 0.25, -0.5, 0.25)
    rep = model.validate(FlexParams(beta=beta))
    assert any("beta" in v for v in rep.violations)


def test_dict_round_trip(p):
    d = p.to_dict()
    assert d["lambda"] == p.lam
    assert FlexParams.from_dict(d) == p
    with pytest.raises(ValueError, match="unknown parameter keys"):
        FlexParams.from_dict({"C": 1.0, "oops": 2})


def test_params_hash_sensitivity(p):
    assert p.params_hash() == reference_params().params_hash()
    assert p.params_hash() != p.with_sigma(0.2).params_hash()
    assert len(p.params_hash()) == 16
