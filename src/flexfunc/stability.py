"""Stochastic stability certificates for the corner equilibria.

Each claim is decided in the time tau = lambda t / C from two numbers, the
noise eps = sigma_x^2 C / lambda and the drift gain eta = min(B*, 1 - B*):
``_clock`` alone reads lambda, C and sigma_x, and margins and sigma_max are
reported in t, through lambda / C.  All checks revolve around the generator of
the diffusion applied to V = (x - x*)^2 / 2.  In d = |x - x*|, per unit of tau,

    LV = -S tanh(k z / 2) d + 0.5 eps (d (1 - d))^2,   z = (2 x* - 1)(f(x) - f(x*)),

with S the demand slack on x*'s side.  z is f(x) + g(u*) of the model
``validate`` proves, where g(u*) = -f(x*), however their float sum rounds.
LV <= 0 is expected wherever ell(z) d exceeds eps / (32 eta) (boundedness
outside a noise ball) and on the ball d <= min(1, 2 eta theta / eps)
(stability).  Both claims bound LV / d^2 from above on cells of d that tile
their region, so a pass is a proof.  ``validate`` proves f decreasing, so
z >= 0 grows with d: on a cell [a, b], LV / d <= -S tanh(k z(a) / 2) + 0.5 eps
max d (1 - d)^2.  On the first cell [0, 1e-8 R], z = d q(d) with q the mean of
-f' between x* and x, and tanh is concave, so LV / d^2 <= eps / 2 - S (k / 2)
q_min tanh(w) / w, with w = k z / 2 at its far end: the exact local condition
eps < 2 kappa, so in real arithmetic no ball around x* is left out.  In floats
z cancels within about 1e-16 of x*, so a small enough radius fails although
eps < 2 kappa holds (reference params, sigma_x = 0.1, u* = 0: radius 3.4e-9
fails, 3.4e-8 passes).  Only the corner states
(x*, u*) in {(1, 0), (0, 1)} qualify, where drift and diffusion vanish together.
"""

from __future__ import annotations

import math

import numpy as np

from .certificates import MIN_GRID_N, StabilityCertificate, cell_certificate, empty_certificate
from .equilibria import CORNERS, _halve
from .model import (
    FlexParams, _charge_slope, _out, charge_response, check_unit, drift, logistic_response,
)


def _corner(u_star: float) -> float:
    if u_star not in CORNERS:
        raise ValueError(
            f"(x*, u*) must be a corner stochastic equilibrium, got u*={u_star}"
        )
    return CORNERS[u_star]


def _clock(params: FlexParams, B_star: float):
    """(B*, eta, eps, lambda / C): a claim in tau from the one read of lambda, C and sigma_x."""
    b = check_unit("B_star", B_star)
    scale = params.lam / params.C
    if not np.finfo(float).tiny <= scale < np.inf:
        raise ArithmeticError(f"lambda / C = {scale!r} is not a positive normal float")
    root = params.sigma_x * (math.sqrt(params.C) / math.sqrt(params.lam))  # a float product saturates to inf
    return b, min(b, 1.0 - b), root * root, scale


def _corner_claim(params: FlexParams, u_star: float, B_star: float, grid_n: int):
    """(x*, B*, eta, eps, lambda / C) of a corner certificate: the one check of its grid_n, u* and B*."""
    if grid_n < MIN_GRID_N:
        raise ValueError(f"grid_n must be at least {MIN_GRID_N}, got {grid_n}")
    return (_corner(u_star), *_clock(params, B_star))


def lyapunov_rate(params: FlexParams, x, u_star: float, B_star: float):
    """LV of V = (x - x*)^2 / 2 at u*'s corner, with the float f(x) + g(u*): the float-model oracle."""
    xs = np.asarray(x, dtype=float)
    drift_part = drift(params, xs, u_star, check_unit("B_star", B_star)) * (xs - _corner(u_star))
    return _out(drift_part + 0.5 * (xs * (1.0 - xs)) ** 2 * (params.sigma_x * params.sigma_x))


def _cells(params: FlexParams, x_star: float, B_star: float, eps: float, radius: float, grid_n: int):
    """A claim's cells in d = |x - x*|: [0, 1e-8 radius], then ``grid_n`` geometric to ``radius``.

    Returns their edges in x, ell d at each edge and an upper bound of
    LV / d^2 in tau on each cell.  An edge is the float nearest its x, so no float
    x of a cell lies nearer x* than its near edge, where z is least.
    """
    sign = 2.0 * x_star - 1.0  # x = x* - sign d, z = sign (f(x) - f(x*))
    d = radius * np.concatenate(([0.0], np.logspace(-8.0, 0.0, grid_n + 1)))
    xs = x_star - sign * d
    fx = charge_response(params, xs)
    z = sign * (fx - fx[0])  # xs[0] = x*, so z(x*) = 0 exactly
    ell = logistic_response(params, z)
    slack = 1.0 - B_star if x_star == 1.0 else B_star
    h = np.clip(1.0 / 3.0, d[1:-1], d[2:])  # where d (1 - d)^2 peaks on each cell
    rate = -slack * ell[1:-1] + 0.5 * eps * h * (1.0 - h) ** 2  # bounds LV / d
    near = np.where(rate > 0.0, d[1:-1], d[2:])  # LV / d^2 <= rate / near on the cell
    with np.errstate(over="ignore"):  # near may underflow, below normal floats or to 0
        bounds = np.divide(rate, near, out=np.where(rate > 0.0, np.inf, 0.0), where=near > 0.0)
    slope = _charge_slope(params.alpha)  # q >= -f'(x*) - d max|f''| / 2, |f''| <= 2 sum|slope'|
    q_min = max(0.0, -np.polyval(slope, sign) - d[1] * np.abs(np.polyder(slope)).sum())
    w = 0.5 * params.k * z[1]
    secant = np.tanh(w) / w if w > 0.0 else 1.0  # tanh(v) >= secant v for 0 <= v <= w
    c = 0.5 * eps - slack * 0.5 * params.k * q_min * secant
    return xs, ell * d, np.concatenate(([c], bounds))


def certify_bounded(
    params: FlexParams,
    u_star: float,
    B_star: float,
    grid_n: int = 2001,
) -> StabilityCertificate:
    """Noise-ball boundedness certificate at the corner equilibrium of u*.

    Bounds LV on every cell of [0, 1] in d whose far end meets the damping
    condition ell(z) |x - x*| >= eps / (32 eta); that product grows
    with d, so these cells cover the condition's region.
    No such cell is a vacuous pass, flagged degenerate.  B* at 0 or 1 gives
    eta = 0 and an empty condition region; that degenerate certificate is
    flagged and does not pass.
    """
    x_star, b, eta, eps, scale = _corner_claim(params, u_star, B_star, grid_n)
    if eta == 0.0:
        return empty_certificate("stoch-bounded", params.params_hash(), x_star, np.inf, passed=False)
    threshold = eps / (32.0 * eta)  # inf, not OverflowError
    xs, damping, bounds = _cells(params, x_star, b, eps, 1.0, grid_n)
    kept = damping[1:] >= threshold
    if not kept.any():
        return empty_certificate("stoch-bounded", params.params_hash(), x_star, threshold, passed=True)
    first = int(np.argmax(kept))
    return cell_certificate("stoch-bounded", params.params_hash(), xs[first:], bounds[first:], threshold, scale)


def stable_radius(params: FlexParams, B_star: float, theta: float) -> float:
    """Certified radius min(1, 2 eta theta / eps); 1 when the float eps is 0, 0 when inf."""
    _, eta, eps, _ = _clock(params, B_star)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    return 1.0 if eps == 0.0 else min(1.0, 2.0 * eta * theta / eps)


def certify_stable(
    params: FlexParams,
    u_star: float,
    B_star: float,
    theta: float = 0.5,
    grid_n: int = 2001,
) -> StabilityCertificate:
    """Stability certificate on the ball |x - x*| <= stable_radius.

    The reported threshold is the certified radius.  B* at 0 or 1 gives
    eta = 0, and an eps that overflows gives radius 0: both leave no ball
    to check, and the claim is degenerate and failed.
    """
    x_star, b, eta, eps, scale = _corner_claim(params, u_star, B_star, grid_n)
    r = stable_radius(params, b, theta)
    if eta == 0.0 or r == 0.0:
        return empty_certificate("stoch-stable", params.params_hash(), x_star, 0.0, passed=False)
    xs, _, bounds = _cells(params, x_star, b, eps, r, grid_n)
    return cell_certificate("stoch-stable", params.params_hash(), xs, bounds, r, scale)


def radius_meets_target(radius: float, target_radius: float) -> bool:
    """Whether a certified radius covers ``target_radius`` (to 1e-12 of it)."""
    return radius >= target_radius * (1.0 - 1e-12)


def max_stable_noise(
    params: FlexParams,
    u_star: float,
    B_star: float,
    target_radius: float = 1.0,
    theta: float = 0.5,
    grid_n: int = 2001,
) -> float:
    """Largest sigma_x whose stability certificate covers ``target_radius``.

    The radius formula alone caps eps at 2 eta theta / target: sigma_x at
    sqrt(2 eta theta / target) sqrt(lambda / C) is probed once and returned if
    it passes.  Otherwise the LV bound binds, and interval halving from 0 to
    that bound (or to the largest float, if it is inf) returns the lower of two
    adjacent floats at the boundary, which passes: at sigma_x = 0 no cell's bound is positive.
    """
    _, _, eta, _, scale = _corner_claim(params, u_star, B_star, grid_n)
    if not 0.0 < target_radius <= 1.0:
        raise ValueError(f"target_radius must be in (0, 1], got {target_radius}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if eta == 0.0:
        raise ValueError(
            f"eta1 = (lambda / C) min(B*, 1 - B*) is 0 at B_star = {B_star!r}: no certifiable noise level"
        )

    def passes(sigma: float) -> bool:
        cert = certify_stable(params.with_sigma(sigma), u_star, B_star, theta, grid_n)
        return cert.passed and radius_meets_target(cert.threshold, target_radius)

    sigma = math.sqrt(2.0 * eta * theta / target_radius) * math.sqrt(scale)
    if not passes(sigma):
        sigma, _ = _halve(passes, 0.0, min(sigma, float(np.finfo(float).max)))
    return sigma
