"""Stability certificates: the result type and the one packager of cell bounds.

The stochastic certificates bound a Lyapunov rate from above on cells that
tile their region (see ``stability``).  :func:`cell_certificate` turns those
bounds into a margin, a verdict and failure intervals; the certifiers in
``stability`` only supply the cells and their bounds.  ``grid_n`` >=
``MIN_GRID_N`` counts the cells.  The deterministic claim needs no cells
(see ``equilibria.certify_deterministic``).  :func:`empty_certificate`
builds every certificate that checks nothing: the vacuous pass on an empty
region and the failed claim with nothing to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: fewest cells (``grid_n``) a certifier accepts
MIN_GRID_N = 100


@dataclass(frozen=True)
class StabilityCertificate:
    """Result of a check of a Lyapunov-type inequality.

    ``claim`` is one of ``det-asymptotic`` (deterministic asymptotic
    stability), ``stoch-bounded`` (stochastic boundedness outside a noise
    ball) or ``stoch-stable`` (stochastic stability inside a radius).
    ``margin`` is the worst (largest) upper bound of the checked quantity
    over the x-interval ``region`` (for ``det-asymptotic``, max df/dx on
    [0, 1]; for the stochastic claims, of LV / (x - x*)^2 on a cell), so it
    passes iff margin <= 0.  ``degenerate`` marks a vacuous pass on an
    empty region, or a failed claim that has nothing to check.  ``failures``
    lists x-intervals where the inequality may fail, empty when it passes.
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


def failure_intervals(edges, bad) -> tuple[tuple[float, float], ...]:
    """Merge runs of bad cells between sorted ``edges``: cells a..b-1 give [edges[a], edges[b]]."""
    edges = np.asarray(edges, dtype=float)
    padded = np.concatenate(([False], np.asarray(bad, dtype=bool), [False]))
    flips = np.flatnonzero(np.diff(padded))  # alternately the first bad and the first good cell
    return tuple(zip(edges[flips[::2]].tolist(), edges[flips[1::2]].tolist()))


def cell_certificate(
    claim: str, params_hash: str, edges, bounds, threshold: float, scale: float
) -> StabilityCertificate:
    """Check ``bounds`` <= 0: upper bounds of a rate in a rescaled time on the cells between ``edges``.

    ``margin`` is the largest bound times ``scale``, per unit of t, ``region``
    the span of the cells and ``failures`` the cells whose bound is positive,
    merged where they touch; ``threshold`` is reported as given.
    """
    if edges[0] > edges[-1]:  # cells ascending in x
        edges, bounds = edges[::-1], bounds[::-1]
    margin = float(np.max(bounds))  # the verdict's, before scale can round it to 0 or inf
    return StabilityCertificate(
        claim, params_hash, (float(edges[0]), float(edges[-1])), threshold, margin * scale,
        passed=margin <= 0.0, failures=failure_intervals(edges, bounds > 0.0),
    )


def empty_certificate(
    claim: str, params_hash: str, x_star: float, threshold: float, passed: bool
) -> StabilityCertificate:
    """A degenerate certificate that checks nothing: margin -inf if it passes, else +inf."""
    return StabilityCertificate(
        claim=claim,
        params_hash=params_hash,
        region=(x_star, x_star),
        threshold=threshold,
        margin=-np.inf if passed else np.inf,
        passed=passed,
        degenerate=True,
    )
