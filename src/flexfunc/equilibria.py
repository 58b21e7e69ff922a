"""Demand equilibria of the flexibility function and their certification.

For a constant price ``u*`` the deterministic equilibria are the states
with f(x*) = -g(u*); since f is strictly decreasing (max df/dx <= 0) the
root is unique, and that same max certifies it with no grid.  Halving [0, 1]
keeps the root bracketed: f(0) + g = 1 + g >= 0 >= -1 + g = f(1) + g for g
in [-1, 1].  With multiplicative noise x(1-x) sigma_x the only states where
drift and diffusion vanish together are the corners (x, u) = (1, 0), (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import StabilityCertificate, empty_certificate
from .model import (
    IDENTITY_TOL, FlexParams, charge_response, charge_rise_intervals, charge_slope_max, check_unit,
    price_response,
)

#: the corner stochastic equilibria, u* -> x*: full charge at zero price,
#: empty charge at the price cap
CORNERS = {0.0: 1.0, 1.0: 0.0}


@dataclass(frozen=True)
class EquilibriumPoint:
    """Equilibrium state for a fixed price: f(x_star) = -g(u_star)."""

    x_star: float
    residual: float


def _halve(pred, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats ``lo < hi`` between which ``pred`` turns false, by interval halving.

    ``pred`` must hold at ``lo`` and fail at ``hi``; it is never called at
    either end.  Halving stops when the midpoint rounds to an end point.
    """
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_equilibrium(params: FlexParams, u_star: float) -> EquilibriumPoint:
    """Unique equilibrium state for price ``u_star``.

    A corner is the root if its residual |f(x) + g(u*)| is within 2 ``IDENTITY_TOL``,
    the slack ``validate`` allows two identities; otherwise interval halving
    returns the lower of the two adjacent floats where f + g changes sign.
    """
    u_star = check_unit("u_star", u_star)
    g = price_response(params, u_star)

    def h(x: float) -> float:
        return charge_response(params, x) + g

    h_lo, h_hi = h(0.0), h(1.0)
    for x0, h0 in ((0.0, h_lo), (1.0, h_hi)):
        if abs(h0) <= 2.0 * IDENTITY_TOL:
            return EquilibriumPoint(x_star=x0, residual=abs(h0))
    if h_lo < 0.0 or h_hi > 0.0:
        raise ValueError(
            "equilibrium not bracketed on [0, 1]; f or g violates its range invariants"
        )
    x_star, _ = _halve(lambda x: h(x) > 0.0, 0.0, 1.0)
    return EquilibriumPoint(x_star=x_star, residual=abs(h(x_star)))


def certify_deterministic(params: FlexParams, u_star: float, B_star: float) -> StabilityCertificate:
    """Asymptotic stability of x* for constant (u*, B*), by the demand-change sign law.

    If f strictly decreases, f(x) + g(u*) has the sign of x* - x; tanh is odd
    and increasing, so wherever the slack on that side is positive the drift
    points toward x* and V = (x - x*)^2 / 2 strictly decreases.  ``margin`` is
    max df/dx on [0, 1] and the claim passes iff margin <= 0; ``failures`` are
    the x-intervals where df/dx > 0.  ``region`` is [0, 1], narrowed to [0, x*]
    at B* = 0 (no slack for falling demand) and to [x*, 1] at B* = 1; a
    zero-width region (u* = 0 with B* = 1) passes vacuously, flagged degenerate.
    """
    B_star = check_unit("B_star", B_star)
    x_star = solve_equilibrium(params, u_star).x_star
    region = (x_star if B_star == 1.0 else 0.0, x_star if B_star == 0.0 else 1.0)
    if region[0] == region[1]:
        return empty_certificate("det-asymptotic", params.params_hash(), x_star, 0.0, passed=True)
    margin = charge_slope_max(params)
    failures = charge_rise_intervals(params) if 0.0 < margin < np.inf else ()
    return StabilityCertificate(
        "det-asymptotic", params.params_hash(), region, threshold=0.0, margin=margin,
        passed=margin <= 0.0, failures=failures,
    )
