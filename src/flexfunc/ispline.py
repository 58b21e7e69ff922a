"""Monotone spline basis (M-splines and their running integrals, I-splines).

M-splines of order ``k`` are nonnegative piecewise polynomials that each
integrate to one over a clamped knot vector on [0, 1].  The I-spline family
is obtained by integrating them from the left endpoint, which yields smooth
nondecreasing functions rising from 0 to 1.  A nonpositive combination of
I-splines plus an intercept is the natural parameterization of a monotone
decreasing response curve, which is how the price-response curve ``g`` is
built elsewhere in this package.

Every value comes from one B-spline kernel, :func:`_deboor`.  An M-spline
is a scaled B-spline, and I-spline ``i`` is the sum of the order ``k+1``
B-splines with index above ``i`` (Ramsay 1988), so a combination of
I-splines is one order ``k+1`` spline whose coefficients are running sums
of the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _deboor(knots, order: int, coefs, u) -> np.ndarray:
    """Spline sum_m coefs[m] B_m(u) by de Boor's algorithm, vectorized over ``u``.

    ``knots`` is a clamped knot vector of ``len(coefs) + order`` entries.
    Splines are right-continuous, except that the right end of the domain
    is evaluated as a left limit.
    """
    t = np.asarray(knots, dtype=float)
    c = np.asarray(coefs, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))[:, None]
    k = order
    # span j with t[j] <= u < t[j+1]; the right end falls in the last span
    j = k - 1 + np.searchsorted(t[k : len(c)], u, side="right")
    idx = j + np.arange(1 - k, 1)  # the k coefficients acting on span j
    d = c[idx]
    for s in range(1, k):
        lo = t[idx[:, s:]]
        a = (u - lo) / (t[idx[:, s:] + k - s] - lo)
        d[:, s:] = (1.0 - a) * d[:, s - 1 : k - 1] + a * d[:, s:]
    return d[:, k - 1]


@dataclass(frozen=True)
class ISplineBasis:
    """Clamped I-spline basis on [0, 1].

    Parameters
    ----------
    order : int
        Polynomial order of the underlying M-splines (3 gives piecewise
        quadratic densities and piecewise cubic I-splines).
    interior_knots : tuple of float
        Strictly increasing mesh points inside (0, 1).  The full knot vector
        repeats 0 and 1 ``order`` times at the ends.

    With ``q`` mesh points (interior knots plus both endpoints) the family
    contains ``q - 2 + order`` basis functions, e.g. order 3 with interior
    knots {0.2, 0.4, 0.6, 0.8} gives 7.
    """

    order: int = 3
    interior_knots: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    # derived, filled in __post_init__
    knots: tuple[float, ...] = field(init=False, repr=False)
    basis_count: int = field(init=False)

    def __post_init__(self) -> None:
        if int(self.order) != self.order or self.order < 1:
            raise ValueError(f"order must be a positive integer, got {self.order}")
        interior = tuple(float(t) for t in self.interior_knots)
        for t in interior:
            if not 0.0 < t < 1.0:
                raise ValueError(f"interior knot {t} outside (0, 1)")
        if any(b < a for a, b in zip(interior, interior[1:])):
            raise ValueError("interior knots must be nondecreasing")
        object.__setattr__(self, "interior_knots", interior)
        object.__setattr__(
            self, "knots", (0.0,) * self.order + interior + (1.0,) * self.order
        )
        object.__setattr__(self, "basis_count", len(interior) + self.order)

    def spline(self, coefs, u) -> np.ndarray:
        """sum_m coefs[m] B_m(u) over the order ``k+1`` B-splines, one entry
        per point of ``u`` in [0, 1], flattened."""
        u = np.asarray(u, dtype=float).ravel()
        inside = (u >= 0.0) & (u <= 1.0)
        if not inside.all():
            raise ValueError(f"argument {u[~inside][0]} outside [0, 1]")
        # the order k+1 knots: one more 0 and one more 1 than the order k ones
        return _deboor((0.0, *self.knots, 1.0), self.order + 1, coefs, u)

    def basis_row(self, u: float) -> list[float]:
        """All I-spline values at ``u`` as a length ``basis_count`` list.

        I_i is the order ``k+1`` spline with coefficients ``[m > i]``, so it
        is exactly 0 below its support and exactly 1 above it.
        """
        m = np.arange(self.basis_count + 1)
        return [float(self.spline(m > i, u)[0]) for i in range(self.basis_count)]

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "knots": list(self.knots),
            "basis_count": self.basis_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ISplineBasis":
        allowed = {"order", "knots", "interior_knots", "basis_count"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown basis keys: {sorted(unknown)}")
        if "knots" in data and "interior_knots" in data:
            raise ValueError("basis takes knots or interior_knots, not both")
        order = data.get("order", cls.order)
        if "knots" in data:
            knots = [float(t) for t in data["knots"]]
            head, tail = knots[:order], knots[-order:]
            if head != [0.0] * order or tail != [1.0] * order:
                raise ValueError("knot vector must be clamped ([0]*order ... [1]*order)")
            interior = tuple(knots[order:-order])
        else:
            interior = tuple(float(t) for t in data.get("interior_knots", cls.interior_knots))
        basis = cls(order=order, interior_knots=interior)
        if "basis_count" in data and int(data["basis_count"]) != basis.basis_count:
            raise ValueError(
                f"basis_count {data['basis_count']} inconsistent with knots "
                f"(expected {basis.basis_count})"
            )
        return basis
