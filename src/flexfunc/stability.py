"""Stochastic stability certificates for the corner equilibria.

All checks revolve around the generator of the diffusion applied to the
quadratic Lyapunov function V = (x - x*)^2 / 2:

    LV(x) = (1/C) dD(x, u*, B*) (x - x*) + 0.5 x^2 (1 - x)^2 sigma_x^2.

The drift part is damping (the demand-change sign law), the diffusion part
is destabilizing but bounded by sigma_x^2 / 32.  With the worst-case drift
gain eta1 = (lambda / C) min(B*, 1 - B*), LV <= 0 is guaranteed wherever
|ell(f(x) + g(u*))| |x - x*| exceeds sigma_x^2 / (32 eta1) (boundedness
outside a noise ball) and, for sigma_x^2 <= 2 eta1 theta, on the whole ball
|x - x*| <= min(1, 2 eta1 theta / sigma_x^2) (stability).  The certificates
verify these inequalities pointwise on a fine grid rather than trusting
the derivation.

Only the corner states (x*, u*) in {(1, 0), (0, 1)} qualify: these are the
points where drift and diffusion vanish together.
"""

from __future__ import annotations

import warnings

import numpy as np

from .certificates import StabilityCertificate, check_grid_n, failed_degenerate, grid_certificate
from .equilibria import CORNERS
from .model import FlexParams, charge_response, check_unit, drift, logistic_response, price_response

#: largest sigma_x that max_stable_noise reports
SIGMA_CAP = 1e6


def _corner(u_star: float) -> float:
    if u_star not in CORNERS:
        raise ValueError(
            f"(x*, u*) must be a corner stochastic equilibrium, got u*={u_star}"
        )
    return CORNERS[u_star]


def _corner_claim(params: FlexParams, u_star: float, B_star: float, grid_n: int):
    """(x*, B*, eta1) of a corner certificate: the one check of its grid_n, u* and B*."""
    check_grid_n(grid_n)
    return _corner(u_star), float(B_star), min_drift_gain(params, B_star)


def _lv(params: FlexParams, xs: np.ndarray, x_star: float, u_star: float, b: float):
    drift_part = drift(params, xs, u_star, b) * (xs - x_star)
    return drift_part + 0.5 * (xs * (1.0 - xs)) ** 2 * params.sigma_x**2


def lyapunov_rate(params: FlexParams, x, u_star: float, B_star: float):
    """LV(x) for V = (x - x*)^2 / 2 at the corner equilibrium of u*."""
    val = _lv(params, np.asarray(x, dtype=float), _corner(u_star), u_star,
              check_unit("B_star", B_star))
    return float(val) if np.ndim(x) == 0 else val


def min_drift_gain(params: FlexParams, B_star: float) -> float:
    """Worst-case drift gain eta1 = (lambda / C) min(B*, 1 - B*)."""
    b = check_unit("B_star", B_star)
    return params.lam / params.C * min(b, 1.0 - b)


def certify_bounded(
    params: FlexParams,
    u_star: float,
    B_star: float,
    grid_n: int = 2001,
) -> StabilityCertificate:
    """Noise-ball boundedness certificate at the corner equilibrium of u*.

    Checks LV(x) <= 0 at every grid point where the damping condition
    |ell(f(x) + g(u*))| |x - x*| >= sigma_x^2 / (32 eta1) holds.  B* at 0
    or 1 gives eta1 = 0 and an empty condition region; that degenerate
    certificate is flagged and does not pass.
    """
    x_star, b, eta1 = _corner_claim(params, u_star, B_star, grid_n)
    if eta1 == 0.0:
        return failed_degenerate("stoch-bounded", params.params_hash(), x_star, np.inf)
    threshold = params.sigma_x**2 / (32.0 * eta1)
    g = price_response(params, u_star)

    def damped(xs):
        damping = np.abs(logistic_response(params, charge_response(params, xs) + g))
        return damping * np.abs(xs - x_star) >= threshold

    return grid_certificate(
        "stoch-bounded", params.params_hash(), x_star, grid_n,
        lambda xs: _lv(params, xs, x_star, u_star, b), keep=damped, threshold=threshold,
    )


def stable_radius(params: FlexParams, B_star: float, theta: float) -> float:
    """Certified radius min(1, 2 eta1 theta / sigma_x^2); 1 when sigma_x = 0."""
    eta1 = min_drift_gain(params, B_star)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    return 1.0 if params.sigma_x == 0.0 else min(1.0, 2.0 * eta1 * theta / params.sigma_x**2)


def certify_stable(
    params: FlexParams,
    u_star: float,
    B_star: float,
    theta: float = 0.5,
    grid_n: int = 2001,
) -> StabilityCertificate:
    """Stability certificate on the ball |x - x*| <= stable_radius.

    The reported threshold is the certified radius.  A radius smaller than
    the grid exclusion gives an empty punctured ball; that certificate
    passes vacuously and is flagged degenerate (theta -> 0 limit).  B* at 0
    or 1 gives eta1 = 0: degenerate and failed.
    """
    x_star, b, eta1 = _corner_claim(params, u_star, B_star, grid_n)
    r = stable_radius(params, b, theta)
    if eta1 == 0.0:
        return failed_degenerate("stoch-stable", params.params_hash(), x_star, 0.0)
    return grid_certificate(
        "stoch-stable", params.params_hash(), x_star, grid_n,
        lambda xs: _lv(params, xs, x_star, u_star, b),
        keep=lambda xs: np.abs(xs - x_star) <= r,
        threshold=r,
        region=(max(0.0, x_star - r), min(1.0, x_star + r)),
    )


def max_stable_noise(
    params: FlexParams,
    u_star: float,
    B_star: float,
    target_radius: float = 1.0,
    theta: float = 0.5,
    grid_n: int = 2001,
) -> float:
    """Largest sigma_x whose stability certificate covers ``target_radius``.

    The radius formula alone caps sigma_x at sqrt(2 eta1 theta / target);
    if the certificate also passes there, that bound is returned exactly
    (target_radius = 1 gives sqrt(2 eta1 theta)).  Otherwise the pointwise
    LV check binds and the boundary is found by interval halving.  A formula
    bound beyond ``SIGMA_CAP`` is reported as the cap with a warning.
    """
    _, _, eta1 = _corner_claim(params, u_star, B_star, grid_n)
    if not 0.0 < target_radius <= 1.0:
        raise ValueError(f"target_radius must be in (0, 1], got {target_radius}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    if eta1 == 0.0:
        raise ValueError("eta1 = 0 at B_star in {0, 1}: no certifiable noise level")

    def passes(sigma: float) -> bool:
        cert = certify_stable(params.with_sigma(sigma), u_star, B_star, theta, grid_n)
        return cert.passed and cert.threshold >= target_radius - 1e-12

    sigma_formula = float(np.sqrt(2.0 * eta1 * theta / target_radius))
    if sigma_formula >= SIGMA_CAP:
        if passes(SIGMA_CAP):
            warnings.warn(
                f"sigma_max exceeds the search cap {SIGMA_CAP}; returning the cap",
                stacklevel=2,
            )
            return SIGMA_CAP
        sigma_formula = SIGMA_CAP
    if passes(sigma_formula):
        return sigma_formula
    lo, hi = 0.0, sigma_formula
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(hi, 1.0):
            break
    return lo
