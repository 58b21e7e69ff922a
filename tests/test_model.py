import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flexfunc import equilibria, model, stability
from flexfunc.model import FlexParams, reference_params
from strategies import admissible_params


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


_any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def _deviation_inputs(draw):
    """delta and B over every float (signed zeros, subnormals, NaN, inf); B scalar or an array."""
    delta = draw(arrays(np.float64, st.integers(1, 16), elements=_any_float))
    B = draw(st.one_of(_any_float, arrays(np.float64, delta.shape, elements=_any_float)))
    return delta, B


@settings(max_examples=300)
@given(_deviation_inputs(), st.sampled_from([1.0, 0.3, 0.78]))
def test_demand_deviation_is_the_two_branch_formula_bit_for_bit(inputs, lam):
    delta, B = inputs
    p = FlexParams(lam=lam)
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf are NaN, as in both forms
        two_branch = np.where(delta >= 0.0, delta * lam * (1.0 - B), delta * lam * B)
        assert np.asarray(model.demand_deviation(p, delta, B)).tobytes() == two_branch.tobytes()
        b0 = B if np.ndim(B) == 0 else B[0]
        scalar = model.demand_deviation(p, float(delta[0]), float(b0))
    assert isinstance(scalar, float)
    assert np.float64(scalar).tobytes() == two_branch[0].tobytes()


def test_drift_bounded_and_diffusion_vanishes(p):
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, 300)
    u = rng.uniform(0.0, 1.0, 300)
    B = rng.uniform(0.0, 1.0, 300)
    assert np.all(np.abs(model.drift(p, x, u, B)) <= p.lam / p.C + 1e-15)
    assert model.diffusion(p, 0.0) == 0.0
    assert model.diffusion(p, 1.0) == 0.0
    assert model.diffusion(p, 0.5) == pytest.approx(0.25 * p.sigma_x)


@settings(max_examples=200)
@given(
    admissible_params(),
    st.floats(0.0, 1.0),
    # a subnormal B underflows the slack-scaled drift to -0.0
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False),
)
def test_drift_sign_law_over_admissible_params(params, u, B):
    # the drift points toward the unique equilibrium x*(u) and is at most lambda / C
    x_star = equilibria.solve_equilibrium(params, u).x_star
    xs = np.linspace(0.0, 1.0, 1001)
    rate = model.drift(params, xs, u, B)
    assert np.all(rate[xs < x_star - 1e-6] > 0.0)
    assert np.all(rate[xs > x_star + 1e-6] < 0.0)
    assert np.all(np.abs(rate) <= params.lam / params.C)


_UNIT = st.floats(0.0, 1.0)
_SIGNED = st.floats(-1.0, 1.0)
# name -> (function, strategies of the arguments that broadcast, of the scalar ones after them)
_SCALAR_RULE = {
    "charge_response": (model.charge_response, (_UNIT,), ()),
    "price_response": (model.price_response, (_UNIT,), ()),
    "logistic_response": (model.logistic_response, (st.floats(-1e3, 1e3),), ()),
    "diffusion": (model.diffusion, (_UNIT,), ()),
    "demand_deviation": (model.demand_deviation, (_SIGNED, _UNIT), ()),
    "deviation": (model.deviation, (_UNIT, _SIGNED, _UNIT), ()),
    "demand": (model.demand, (_UNIT, _UNIT, _UNIT), ()),
    "drift": (model.drift, (_UNIT, _UNIT, _UNIT), ()),
    "lyapunov_rate": (stability.lyapunov_rate, (_UNIT,), (st.sampled_from([0.0, 1.0]), _UNIT)),
}


@settings(max_examples=25)
@given(params=admissible_params(), data=st.data())
def test_scalar_array_polymorphism(params, data):
    # a 0-d result is a Python float, bit-equal to the one-element array call; arrays keep shape
    for name, (fn, broadcast, fixed) in _SCALAR_RULE.items():
        rest = [data.draw(s) for s in fixed]

        def call(*args):
            return fn(params, *args, *rest)

        values = [data.draw(s) for s in broadcast]
        one = call(*(np.array([v]) for v in values))
        assert isinstance(one, np.ndarray) and one.shape == (1,), name
        for form in (float, np.float64, np.array):
            got = call(*(form(v) for v in values))
            assert type(got) is float, (name, form)
            assert np.float64(got).tobytes() == one[0].tobytes(), (name, form)
        shape = data.draw(st.sampled_from([(0,), (3,), (2, 3)]))
        got = call(*(data.draw(arrays(np.float64, shape, elements=s)) for s in broadcast))
        assert got.shape == shape, name
        # one array among scalars makes the result an array of its shape
        for i in range(len(values)):
            mixed = call(*(np.full(shape, v) if j == i else v for j, v in enumerate(values)))
            assert isinstance(mixed, np.ndarray) and mixed.shape == shape, (name, i)
            assert (mixed == one[0]).all(), (name, i)


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


# f dips below -1 just before x = 1: df/dx > 0 on an end interval narrower than
# a 1001-point grid step, so a sampled monotonicity check accepts it
NON_MONOTONE_ALPHA = (-1.07243, 0.19973, 0.91510, -0.11483)


def _primitive(p):
    """A positive multiple of the rational polynomial p with coprime integer coefficients."""
    scale = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * scale) for c in p]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    g = math.gcd(*ints) or 1
    return [c // g for c in ints]


def _sign_at(p, t):
    """Sign of the integer polynomial p (lowest degree first) at the rational t."""
    value, power = 0, 1
    for c in reversed(p):  # d^deg p(n / d), all in integers
        value, power = value * t.numerator + c * power, power * t.denominator
    return (value > 0) - (value < 0)


def _rem(a, b):
    """Remainder of a divided by b, for coefficient lists with lowest degree first."""
    a = [Fraction(c) for c in a]
    while len(a) >= len(b) and any(a):
        q, shift = a[-1] / b[-1], len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
    return _primitive(a or [0])


def _exact_max_sign(alpha):
    """Sign (1, 0 or -1) of max df/dx on [0, 1], in exact rational arithmetic.

    df/dx = 2 p'(y) for y = 2x - 1.  Roots of p' at y = +-1 are divided out
    (each (y - 1) flips the sign on (-1, 1)); the rest is split into pieces
    holding at most one distinct root, counted by a Sturm sequence at non-root
    points, and on such a piece p' has the signs of the piece's two ends.
    """
    a1, a2, a3, a4 = (Fraction(a) for a in alpha)
    left, right = [a1, -1, -a1], [a2, 0, a3, 0, 0, 0, a4]
    p = [sum(left[k] * right[n - k] for k in range(3) if 0 <= n - k < 7) for n in range(9)]
    q = _primitive([n * c for n, c in enumerate(p)][1:])
    if not any(q):
        return 0
    best, flip = -1, 1
    for end in (-1, 1):
        while _sign_at(q, Fraction(end)) == 0:  # divide out (y - end) synthetically
            carry, quotient = 0, []
            for c in reversed(q[1:]):
                carry = carry * end + c
                quotient.append(carry)
            q, best, flip = quotient[::-1], 0, -flip * end  # y - 1 < 0 < y + 1 inside
    chain = [q]
    if len(q) > 1:
        chain.append([n * c for n, c in enumerate(q)][1:])
        while len(chain[-1]) > 1 and any(r := _rem(chain[-2], chain[-1])):
            chain.append([-c for c in r])

    def variations(t):
        signs = [s for s in (_sign_at(c, t) for c in chain) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    pieces = [(Fraction(-1), Fraction(1))]
    while pieces:
        lo, hi = pieces.pop()
        roots = variations(lo) - variations(hi)
        if roots <= 1:  # p' has the sign of each end up to the one root, where it is 0
            best = max(best, flip * _sign_at(q, lo), flip * _sign_at(q, hi), 0 if roots else -1)
            continue
        mid, step = (lo + hi) / 2, (hi - lo) / 4
        while _sign_at(q, mid) == 0:  # finitely many roots, so this stops inside (lo, hi)
            mid, step = mid + step, step / 2
        pieces += [(lo, mid), (mid, hi)]
    return best


def test_slope_max_of_known_shapes():
    # reference: df/dx = -0.5 - 4.5 (2x - 1)^2, largest at x = 1/2
    assert model.charge_slope_max(reference_params()) == -0.5
    # df/dx = 2 (2x - 1) - 2 touches zero at x = 1 only: f still strictly decreases
    touching = FlexParams(alpha=(-0.5, 1.0, 0.0, 0.0))
    assert model.charge_slope_max(touching) == 0.0
    assert model.validate(touching).ok
    assert _exact_max_sign(touching.alpha) == 0
    bump = model.charge_slope_max(FlexParams(alpha=NON_MONOTONE_ALPHA))
    assert bump == pytest.approx(0.00728, rel=1e-3)
    assert _exact_max_sign(NON_MONOTONE_ALPHA) == 1


def test_validate_refuses_a_rise_between_grid_points():
    rep = model.validate(FlexParams(alpha=NON_MONOTONE_ALPHA))
    assert not rep.ok
    assert any("decreasing" in v for v in rep.violations), rep.violations


@pytest.mark.parametrize(
    "alpha,top", [((0.0, 0.5, 0.5, 5e-324), -1.0), ((1e200, 1e200, -1e200, 1.0), np.inf)]
)
def test_slope_max_survives_extreme_alpha(alpha, top):
    # a subnormal leading coefficient and an overflowing product: a number, with no
    # LinAlgError from the companion matrix and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.charge_slope_max(FlexParams(alpha=alpha)) == top


@settings(max_examples=200, deadline=None)
@given(a1=st.floats(-1.5, 1.5), a2=st.floats(-3.0, 3.0), a3=st.floats(-3.0, 3.0))
def test_slope_max_sign_matches_sturm_oracle(a1, a2, a3):
    alpha = (a1, a2, a3, 1.0 - a2 - a3)
    top = model.charge_slope_max(FlexParams(alpha=alpha))
    exact = _exact_max_sign(alpha)
    # floats cannot decide a maximum within rounding of zero; elsewhere the signs agree
    if abs(top) > 1e-12:
        assert (top > 0.0) - (top < 0.0) == exact, (alpha, top, exact)
    assert model.validate(FlexParams(alpha=alpha)).ok == (top <= 0.0)
