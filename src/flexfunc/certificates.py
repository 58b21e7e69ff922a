"""Grid-checked stability certificates: the one sampling policy and its result.

Every certificate checks a Lyapunov-type rate on the same sample: a uniform
grid of ``grid_n`` >= ``MIN_GRID_N`` points on [0, 1], minus the ball of radius
``EXCLUSION_RADIUS`` around x* (where every rate vanishes), minus whatever
the claim's ``keep`` predicate drops.  :func:`grid_certificate` owns that
sample, the vacuous pass on an empty sample, and the margin, pass and
failure-interval packaging; the certifiers in ``equilibria`` and
``stability`` only supply x*, the rate and the predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: half-width of the ball around x* excluded from certification grids
EXCLUSION_RADIUS = 1e-6
#: fewest grid points a certifier accepts
MIN_GRID_N = 100


def check_grid_n(grid_n: int) -> None:
    """Refuse a certificate grid of fewer than ``MIN_GRID_N`` points."""
    if grid_n < MIN_GRID_N:
        raise ValueError(f"grid_n must be at least {MIN_GRID_N}, got {grid_n}")


@dataclass(frozen=True)
class StabilityCertificate:
    """Result of a grid check of a Lyapunov-type inequality.

    ``claim`` is one of ``det-asymptotic`` (deterministic asymptotic
    stability), ``stoch-bounded`` (stochastic boundedness outside a noise
    ball) or ``stoch-stable`` (stochastic stability inside a radius).
    ``margin`` is the worst (largest) value of the checked quantity over the
    sampled region, so the certificate passes iff margin <= 0 (margin < 0
    for ``det-asymptotic``).  ``region`` is the sampled x-interval.
    ``degenerate`` marks a vacuous pass on an empty sampled region, or a
    failed claim that has nothing to check.  ``failures`` lists x-intervals
    where the inequality failed, empty when the certificate passes.
    """

    claim: str
    params_hash: str
    region: tuple[float, float]
    threshold: float
    margin: float
    passed: bool
    degenerate: bool = False
    failures: tuple[tuple[float, float], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params_hash": self.params_hash,
            "region": [self.region[0], self.region[1]],
            "threshold": self.threshold,
            "margin": self.margin,
            "pass": self.passed,
        }


def failure_intervals(xs, bad) -> tuple[tuple[float, float], ...]:
    """Group a boolean failure mask over sorted sample points into intervals."""
    xs = np.asarray(xs, dtype=float)
    padded = np.concatenate(([False], np.asarray(bad, dtype=bool), [False]))
    flips = np.flatnonzero(np.diff(padded))  # alternately the first bad and the first good index
    return tuple(zip(xs[flips[::2]].tolist(), xs[flips[1::2] - 1].tolist()))


def grid_certificate(
    claim: str,
    params_hash: str,
    x_star: float,
    grid_n: int,
    rate,
    keep=None,
    threshold: float = 0.0,
    region: tuple[float, float] | None = None,
    strict: bool = False,
) -> StabilityCertificate:
    """Check ``rate(xs) <= 0`` (``< 0`` if ``strict``) on the certificate grid.

    The sample is the ``grid_n``-point uniform grid on [0, 1] outside the
    exclusion ball around ``x_star``, narrowed by ``keep(xs)`` (a boolean
    mask) when given.  An empty sample passes vacuously and is flagged
    degenerate.  ``region`` defaults to the span of the sample;
    ``threshold`` is reported as given.
    """
    xs = np.linspace(0.0, 1.0, grid_n)
    xs = xs[np.abs(xs - x_star) > EXCLUSION_RADIUS]
    if keep is not None:
        xs = xs[keep(xs)]
    if xs.size == 0:
        return StabilityCertificate(
            claim=claim,
            params_hash=params_hash,
            region=(x_star, x_star),
            threshold=threshold,
            margin=-np.inf,
            passed=True,
            degenerate=True,
        )
    values = rate(xs)
    margin = float(np.max(values))
    return StabilityCertificate(
        claim=claim,
        params_hash=params_hash,
        region=(float(xs[0]), float(xs[-1])) if region is None else region,
        threshold=threshold,
        margin=margin,
        passed=bool(margin < 0.0 if strict else margin <= 0.0),
        failures=failure_intervals(xs, values >= 0.0 if strict else values > 0.0),
    )


def failed_degenerate(
    claim: str, params_hash: str, x_star: float, threshold: float
) -> StabilityCertificate:
    """A claim with nothing to check (zero drift gain): degenerate and failed."""
    return StabilityCertificate(
        claim=claim,
        params_hash=params_hash,
        region=(x_star, x_star),
        threshold=threshold,
        margin=np.inf,
        passed=False,
        degenerate=True,
    )
