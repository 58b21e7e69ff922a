"""Demand equilibria of the flexibility function and their certification.

For a constant price ``u*`` the deterministic equilibria are the states
with f(x*) = -g(u*); since f is strictly decreasing the root is unique,
and halving the interval [0, 1] always keeps it bracketed, because
f(0) + g = 1 + g >= 0 >= -1 + g = f(1) + g for g in [-1, 1].  With
multiplicative noise x(1-x) sigma_x the only states where drift and
diffusion vanish together are the corners (x, u) = (1, 0) and (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import StabilityCertificate, check_grid_n, grid_certificate
from .model import FlexParams, charge_response, check_unit, drift, price_response

#: the corner stochastic equilibria, u* -> x*: full charge at zero price,
#: empty charge at the price cap
CORNERS = {0.0: 1.0, 1.0: 0.0}


@dataclass(frozen=True)
class EquilibriumPoint:
    """Equilibrium state for a fixed price: f(x_star) = -g(u_star)."""

    x_star: float
    residual: float


def solve_equilibrium(params: FlexParams, u_star: float) -> EquilibriumPoint:
    """Unique equilibrium state for price ``u_star`` by interval halving.

    Stops when the balance residual |f(x) + g(u*)| drops below 1e-12 or the
    bracketing interval is shorter than 1e-14.
    """
    u_star = check_unit("u_star", u_star)
    g = price_response(params, u_star)

    def h(x: float) -> float:
        return charge_response(params, x) + g

    lo, hi = 0.0, 1.0
    h_lo, h_hi = h(lo), h(hi)
    for x0, h0 in ((lo, h_lo), (hi, h_hi)):
        if abs(h0) < 1e-12:
            return EquilibriumPoint(x_star=x0, residual=abs(h0))
    if h_lo < 0.0 or h_hi > 0.0:
        raise ValueError(
            "equilibrium not bracketed on [0, 1]; f or g violates its range invariants"
        )
    mid, h_mid = 0.5, h(0.5)
    while hi - lo >= 1e-14:
        mid = 0.5 * (lo + hi)
        h_mid = h(mid)
        if abs(h_mid) < 1e-12:
            break
        if h_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return EquilibriumPoint(x_star=mid, residual=abs(h_mid))


def certify_deterministic(
    params: FlexParams,
    u_star: float,
    B_star: float,
    grid_n: int = 2001,
) -> StabilityCertificate:
    """Grid check of asymptotic stability of x* for constant (u*, B*).

    Evaluates dV/dt = drift(x) * (x - x*) for V = (x - x*)^2 / 2 on the
    certificate grid (see :func:`grid_certificate`) and requires it negative
    everywhere.  At the baseline endpoints only the demand branch that can
    actually occur is sampled (B* = 0 admits only rising demand, so only
    x < x* is meaningful; B* = 1 only x > x*); an empty sampled region
    (e.g. u* = 0 with B* = 1) passes vacuously and is flagged degenerate.
    """
    check_grid_n(grid_n)
    B_star = check_unit("B_star", B_star)
    x_star = solve_equilibrium(params, u_star).x_star
    side = {0.0: np.less, 1.0: np.greater}.get(B_star)

    return grid_certificate(
        "det-asymptotic", params.params_hash(), x_star, grid_n,
        lambda xs: drift(params, xs, u_star, B_star) * (xs - x_star),
        keep=None if side is None else lambda xs: side(xs, x_star),
        strict=True,
    )
