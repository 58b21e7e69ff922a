from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from flexfunc import model
from flexfunc.ispline import ISplineBasis
from flexfunc.model import FlexParams


@pytest.fixture(scope="module")
def basis():
    return ISplineBasis()


def test_default_layout(basis):
    assert basis.order == 3
    assert basis.interior_knots == (0.2, 0.4, 0.6, 0.8)
    assert basis.basis_count == 7
    # clamped: order copies of 0 and 1 around the interior knots
    assert basis.knots == (0.0, 0.0, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.0, 1.0)


def test_boundary_rows_exact(basis):
    assert basis.basis_row(0.0) == [0.0] * 7
    assert basis.basis_row(1.0) == [1.0] * 7


def test_row_at_02(basis):
    # hand derivation: at u=0.2 the first basis is saturated, the second is
    # 3/4 and the third 1/6; all later supports have not started
    row = basis.basis_row(0.2)
    expect = [1.0, 0.75, 1.0 / 6.0, 0.0, 0.0, 0.0, 0.0]
    assert row == pytest.approx(expect, abs=1e-14)


def test_symmetry_midpoint(basis):
    # knot layout is symmetric, so basis i at u mirrors basis (6-i) at 1-u
    for u in (0.1, 0.25, 0.5, 0.7):
        row = basis.basis_row(u)
        mirror = basis.basis_row(1.0 - u)
        for i in range(7):
            assert row[i] == pytest.approx(1.0 - mirror[6 - i], abs=1e-12)
    assert basis.rows(0.5)[0, 3] == pytest.approx(0.5, abs=1e-12)


def test_monotone_and_bounded(basis):
    vals = basis.rows(np.linspace(0.0, 1.0, 801))
    assert np.all(np.diff(vals, axis=0) >= -1e-13)
    assert vals.min() >= -1e-15 and vals.max() <= 1.0 + 1e-15


def test_ispline_is_integral_of_mspline(basis):
    # independent route: numerical quadrature of the recursive M-spline
    rng = np.random.default_rng(3)
    for i in range(1, 8):
        for u in rng.uniform(0.0, 1.0, 4):
            u = float(u)
            kinks = [t for t in basis.interior_knots if t < u]
            val, err = quad(
                lambda s: _mspline(i, basis.order, s, basis.knots), 0.0, u, points=kinks, limit=200
            )
            assert basis.rows(u)[0, i - 1] == pytest.approx(val, abs=max(1e-9, 10 * err))


def test_mspline_normalization(basis):
    for i in range(1, 8):
        val, _ = quad(
            lambda s: _mspline(i, basis.order, s, basis.knots),
            0.0, 1.0, points=list(basis.interior_knots), limit=200,
        )
        assert val == pytest.approx(1.0, abs=1e-9)


def test_derivative_matches_mspline(basis):
    h = 1e-6
    for i in range(1, 8):
        for u in (0.11, 0.33, 0.52, 0.77, 0.9):
            num = (basis.rows(u + h)[0, i - 1] - basis.rows(u - h)[0, i - 1]) / (2 * h)
            assert num == pytest.approx(_mspline(i, basis.order, u, basis.knots), abs=1e-5)


def test_args_validated(basis):
    with pytest.raises(ValueError):
        basis.rows(-0.1)
    with pytest.raises(ValueError):
        basis.rows(1.1)


def test_bad_construction():
    with pytest.raises(ValueError):
        ISplineBasis(order=0)
    with pytest.raises(ValueError):
        ISplineBasis(interior_knots=(0.4, 0.2))
    with pytest.raises(ValueError):
        ISplineBasis(interior_knots=(0.0, 0.5))


def test_dict_round_trip(basis):
    d = basis.to_dict()
    again = ISplineBasis.from_dict(d)
    assert again == basis
    bad = dict(d)
    bad["mystery"] = 1
    with pytest.raises(ValueError):
        ISplineBasis.from_dict(bad)


# -- independent oracle: the recursive M-spline and the telescoping I-spline sum


def _mspline(i, order, x, knots):
    """1-based ``i``-th M-spline of ``order`` on ``knots`` at ``x`` by the
    standard recursion; ``x == 1`` is evaluated as a left limit."""
    ti = knots[i - 1]
    tik = knots[i + order - 1]
    if order == 1:
        if ti <= x < tik:
            return 1.0 / (tik - ti)
        if x == knots[-1] and ti < x <= tik:
            return 1.0 / (tik - ti)
        return 0.0
    if tik == ti:
        return 0.0
    inside = ti <= x <= tik if x == knots[-1] else ti <= x < tik
    if not inside:
        return 0.0
    a = (x - ti) * _mspline(i, order - 1, x, knots)
    b = (tik - x) * _mspline(i + 1, order - 1, x, knots)
    return order * (a + b) / ((order - 1) * (tik - ti))


def _ispline(basis, i, u):
    """I_i(u) = sum_{m=i+1}^{j} (T_{m+k+1} - T_m) M_m(u | k+1) / (k+1) on the
    order k+1 knots T, with T_j <= u < T_{j+1} (Ramsay 1988); exactly 0 below
    the support and exactly 1 above it."""
    k = basis.order
    knots = (0.0,) * (k + 1) + basis.interior_knots + (1.0,) * (k + 1)
    j = bisect_right(knots, u)
    if i > j:
        return 0.0
    if i < j - k:
        return 1.0
    total = 0.0
    for m in range(i + 1, j + 1):
        width = knots[m + k] - knots[m - 1]
        if width:
            total += width * _mspline(m, k + 1, u, knots) / (k + 1)
    return total


@st.composite
def _bases_and_points(draw):
    order = draw(st.integers(1, 4))
    pool = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6))
    interior = sorted(draw(st.lists(st.sampled_from(pool), max_size=6)))  # repeats allowed
    basis = ISplineBasis(order=order, interior_knots=tuple(interior))
    free = draw(st.lists(st.floats(0.0, 1.0), max_size=12))
    us = np.array(sorted({0.0, 1.0, *interior, *free}))
    n = basis.basis_count
    beta = draw(st.lists(st.floats(-1.0, 0.0), min_size=n, max_size=n))
    return basis, us, beta


@settings(max_examples=300)
@given(_bases_and_points())
def test_deboor_matches_recursive_oracle(case):
    basis, us, beta = case
    n, k = basis.basis_count, basis.order
    oracle = np.array([[_ispline(basis, i, u) for i in range(1, n + 1)] for u in us])
    rows = basis.rows(us)
    assert np.max(np.abs(rows - oracle)) <= 1e-14
    # I_i = sum of the B-splines m >= i (0-based) on the order k+1 knots T, so it
    # is exactly 0 below T[i] and exactly 1 from T[i+k] on
    t = np.array((0.0, *basis.knots, 1.0))
    below = us[:, None] < t[None, 1 : n + 1]
    above = us[:, None] >= t[None, k + 1 : k + 1 + n]
    assert np.all(rows[below] == 0.0) and np.all(rows[above] == 1.0)
    assert np.all(basis.rows(0.0) == 0.0) and np.all(basis.rows(1.0) == 1.0)

    p = FlexParams(beta=beta, basis=basis)
    g = model.price_response(p, us)
    assert np.max(np.abs(g - (p.g0 + oracle @ np.array(beta)))) <= 1e-14
    assert model.price_response(p, 0.0) == p.g0
    assert model.price_response(p, 1.0) == p.g0 + sum(beta)
    # beta <= 0 makes g nonincreasing by construction, so validate needs no grid check of it
    assert np.max(np.diff(model.price_response(p, np.linspace(0.0, 1.0, 1001)))) <= 1e-12


def test_price_response_rejects_beta_of_wrong_length():
    p = FlexParams(beta=(-1.0, -1.0))
    with pytest.raises(ValueError, match="beta has 2 entries but the basis has 7"):
        model.price_response(p, 0.5)
