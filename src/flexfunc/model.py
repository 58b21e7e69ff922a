"""Flexibility-function model: smooth price-to-demand dynamics on [0, 1].

The state ``x`` is a normalized state of charge, ``u`` a normalized price
and ``B`` a normalized baseline demand.  A saturating response

    delta = ell(f(x) + g(u)),   ell(z) = -1 + 2 / (1 + exp(-k z))

is rescaled by the available demand slack into the demand deviation

    dD = delta * lambda * (1 - B)   if delta >= 0
         delta * lambda * B         otherwise

so total demand D = B + dD always stays in [0, 1].  The state evolves as

    dX = (dD / C) dt + x (1 - x) sigma_x dW.

``f`` is a monotone decreasing polynomial charge-response with f(0) = 1 and
f(1) = -1; ``g`` is a monotone decreasing I-spline price-response with
g(0) = 1 and g(1) = -1, so full charge at zero price and empty charge at
price cap are exact demand equilibria.

All response functions accept scalars or numpy arrays and broadcast them:
a 0-d result comes back as a Python ``float``, an array result as it is.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .certificates import failure_intervals
from .ispline import ISplineBasis

_REFERENCE_ALPHA = (0.0, 0.25, 0.75, 0.0)
_REFERENCE_BETA = tuple(-v / 16.0 for v in (6, 3, 1, 1, 2, 8, 11))
#: slack ``validate`` allows each identity: alpha[1:] sums to 1, g0 = 1, g0 + sum(beta) = -1
IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class FlexParams:
    """Model parameters.

    ``lam`` is the demand flexibility share (JSON key ``"lambda"``), ``C``
    the storage capacity setting the natural time scale, ``k`` the logistic
    steepness, ``alpha`` the four charge-response shape weights, ``beta``
    the nonpositive I-spline weights of the price response, ``g0`` its
    intercept and ``sigma_x`` the multiplicative noise level.
    """

    C: float = 2.97
    lam: float = 1.0
    k: float = 6.0
    alpha: tuple[float, float, float, float] = _REFERENCE_ALPHA
    beta: tuple[float, ...] = _REFERENCE_BETA
    g0: float = 1.0
    sigma_x: float = 0.1
    basis: ISplineBasis = field(default_factory=ISplineBasis)

    def __post_init__(self) -> None:
        for name in ("C", "lam", "k", "g0", "sigma_x"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))

    def to_dict(self) -> dict:
        return {
            "C": self.C,
            "lambda": self.lam,
            "k": self.k,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "g0": self.g0,
            "sigma_x": self.sigma_x,
            "basis": self.basis.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlexParams":
        allowed = {"C", "lambda", "k", "alpha", "beta", "g0", "sigma_x", "basis"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        kwargs = {("lam" if key == "lambda" else key): value for key, value in data.items()}
        if "basis" in data:
            kwargs["basis"] = ISplineBasis.from_dict(data["basis"])
        return cls(**kwargs)

    def params_hash(self) -> str:
        """Stable short hash of the canonical JSON form, for certificates."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def with_sigma(self, sigma_x: float) -> "FlexParams":
        return replace(self, sigma_x=float(sigma_x))


def reference_params(sigma_x: float = 0.1) -> FlexParams:
    """The reference parameter set used throughout tests and presets."""
    return FlexParams(sigma_x=sigma_x)


def check_unit(name: str, value) -> float:
    """``value`` as a float; a ValueError naming ``name`` if it lies outside [0, 1]."""
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} {value} outside [0, 1]")
    return float(value)


def _out(val):
    """The module's scalar rule: a 0-d ``val`` as a Python float, an array as it is."""
    return float(val) if np.ndim(val) == 0 else val


def charge_response(params: FlexParams, x):
    """Monotone decreasing charge response f(x) on [0, 1].

    f(x) = (1 - 2x + a1 (1 - (2x-1)^2)) * (a2 + a3 (2x-1)^2 + a4 (2x-1)^6)
    with a2 + a3 + a4 = 1, so f(0) = 1 and f(1) = -1 exactly.
    """
    a1, a2, a3, a4 = params.alpha
    y = 2.0 * np.asarray(x, dtype=float) - 1.0
    y2 = y * y
    return _out((-y + a1 * (1.0 - y2)) * (a2 + a3 * y2 + a4 * y2 * y2 * y2))


def _charge_slope(alpha) -> np.ndarray:
    """df/dx as coefficients in y = 2x - 1, highest degree (<= 7) first."""
    a1, a2, a3, a4 = alpha
    return 2.0 * np.polyder(np.polymul([-a1, -1.0, a1], [a4, 0.0, 0.0, 0.0, a3, 0.0, a2]))


def _unit_roots(c) -> np.ndarray:
    """-1, 1 and the real part of each root of ``c`` in [-1, 1]: no cut-off loses a double root.

    Leading terms below eps times the largest go first: they would overflow the companion matrix."""
    r = np.roots(c[np.argmax(np.abs(c) > np.finfo(float).eps * np.max(np.abs(c))):]).real
    return np.concatenate(([-1.0, 1.0], r[np.abs(r) <= 1.0]))


def charge_slope_max(params: FlexParams) -> float:
    """Maximum of df/dx on [0, 1], taken at y = +-1 and the roots of d2f/dx2; inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = _charge_slope(params.alpha)
        d2 = np.polyder(d1)
        finite = np.isfinite(d1).all() and np.isfinite(d2).all()
        return float(np.max(np.polyval(d1, _unit_roots(d2)))) if finite else np.inf


def charge_rise_intervals(params: FlexParams) -> tuple[tuple[float, float], ...]:
    """The x-intervals where df/dx > 0 (finite coefficients): it keeps one sign between roots."""
    d1 = _charge_slope(params.alpha)
    xs = 0.5 * np.unique(_unit_roots(d1)) + 0.5
    rising = np.polyval(d1, xs[:-1] + xs[1:] - 1.0) > 0.0  # each piece's sign at its midpoint
    return failure_intervals(xs, rising)


def price_response(params: FlexParams, u):
    """Monotone decreasing price response g(u) = g0 + sum_i beta_i I_i(u).

    One order k+1 spline with coefficients g0 + [0, cumsum(beta)].
    """
    n = params.basis.basis_count
    if len(params.beta) != n:
        raise ValueError(f"beta has {len(params.beta)} entries but the basis has {n} functions")
    arr = np.asarray(u, dtype=float)
    coefs = params.g0 + np.concatenate(([0.0], np.cumsum(params.beta)))
    return _out(params.basis.spline(coefs, arr).reshape(arr.shape))


def logistic_response(params: FlexParams, z):
    """Saturating response ell(z) = -1 + 2/(1 + exp(-k z)) = tanh(k z / 2).

    The tanh form is used because it cannot overflow; it is algebraically
    identical to the logistic form.
    """
    return _out(np.tanh(0.5 * params.k * np.asarray(z, dtype=float)))


def demand_deviation(params: FlexParams, delta, B):
    """Demand deviation dD: delta scaled by the one-sided slack at B.

    dD = delta * lambda * (1 - B) for delta >= 0, delta * lambda * B
    otherwise, so B + dD stays within [B - lambda B, B + lambda (1 - B)].
    """
    d, b = np.asarray(delta, dtype=float), np.asarray(B, dtype=float)
    return _out((d * params.lam) * np.where(d >= 0.0, 1.0 - b, b))


def deviation(params: FlexParams, x, g, B):
    """Demand deviation dD = slack(B)-scaled ell(f(x) + g) for a price response ``g``.

    The one composition of f, ell and the slack: ``demand`` and ``drift``
    pass g = g(u); the ODE demand column and the SDE drift pass g from a
    per-segment table, so the price response is not re-evaluated per state.
    """
    return demand_deviation(params, logistic_response(params, charge_response(params, x) + g), B)


def demand(params: FlexParams, x, u, B):
    """Total demand D = B + dD(x, u, B), always in [0, 1]."""
    return _out(np.add(B, deviation(params, x, price_response(params, u), B)))


def drift(params: FlexParams, x, u, B):
    """State drift dD / C."""
    return _out(deviation(params, x, price_response(params, u), B) / params.C)


def diffusion(params: FlexParams, x):
    """State diffusion x (1 - x) sigma_x, vanishing at both boundaries."""
    arr = np.asarray(x, dtype=float)
    return _out(arr * (1.0 - arr) * params.sigma_x)


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: hard violations and soft warnings."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(params: FlexParams) -> ValidationReport:
    """Check every structural invariant of a parameter set.

    Returns a report rather than raising so callers can present all
    problems at once.  lambda == 1 sits on the boundary of the admissible
    open interval; it is accepted with a warning because the reference
    reproduction runs use it.
    """
    rep = ValidationReport()
    p = params
    if not np.isfinite(p.C) or p.C <= 0:
        rep.violations.append(f"C must be positive, got {p.C}")
    if not np.isfinite(p.lam) or p.lam <= 0 or p.lam > 1:
        rep.violations.append(f"lambda must be in (0, 1], got {p.lam}")
    elif p.lam == 1.0:
        rep.warnings.append("lambda = 1 is the boundary case (reproduction runs only)")
    if not np.isfinite(p.k) or p.k <= 0:
        rep.violations.append(f"k must be positive, got {p.k}")
    if not np.isfinite(p.sigma_x) or p.sigma_x < 0:
        rep.violations.append(f"sigma_x must be nonnegative, got {p.sigma_x}")
    for name, value in (("alpha", p.alpha), ("beta", p.beta), ("g0", p.g0)):
        if not np.all(np.isfinite(value)):
            rep.violations.append(f"{name} must be finite, got {value}")
    if len(p.alpha) != 4:
        rep.violations.append(f"alpha must have 4 entries, got {len(p.alpha)}")
    else:
        s = p.alpha[1] + p.alpha[2] + p.alpha[3]
        if abs(s - 1.0) > IDENTITY_TOL:
            rep.violations.append(f"alpha[1]+alpha[2]+alpha[3] must be 1, got {s!r}")
    if len(p.beta) != p.basis.basis_count:
        rep.violations.append(
            f"beta must have {p.basis.basis_count} entries (basis size), got {len(p.beta)}"
        )
    if any(b > 0 for b in p.beta):
        rep.violations.append("all beta entries must be <= 0")
    if abs(p.g0 - 1.0) > IDENTITY_TOL:
        rep.violations.append(f"g0 must be 1, got {p.g0}")
    if abs(p.g0 + sum(p.beta) + 1.0) > IDENTITY_TOL:
        rep.violations.append(
            f"g0 + sum(beta) must be -1 (so g(1) = -1), got {p.g0 + sum(p.beta)!r}"
        )
    # Exact monotonicity, once the structure is right: max df/dx <= 0 leaves f strictly
    # decreasing (a nonzero polynomial's zeros are isolated); f(0) = -f(1) = (a2 + a3) + a4
    # in floats too.  g needs no check: with every beta finite and <= 0 its spline
    # coefficients g0 + [0, cumsum(beta)] are nonincreasing, and so is the spline.
    if not rep.violations and not (top := charge_slope_max(p)) <= 0.0:
        rep.violations.append(f"f must be strictly decreasing on [0, 1], but max df/dx = {top!r}")
    return rep
