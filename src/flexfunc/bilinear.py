"""Bilinear scalar toy system in two guises, used to validate the solvers.

The same right-hand side r1 x + r2 x (disturbance) is treated as

* the mean equation dE/dt = (r1 + r2 omega) E for a disturbance with
  constant expectation omega,
* an Ito SDE dx = r1 x dt + r2 x dw with exact solution
  x(t) = x0 exp((r1 - r2^2 / 2) t + r2 w(t)).

The closed forms make the system a sharp oracle: the mean equation is
linear, the SDE is exactly solvable pathwise, and the almost-sure growth
rate r1 - r2^2 / 2 can differ in sign from the mean growth rate r1 + r2
(mean-square unstable but almost-surely stable, and vice versa).  A strong
convergence study of Euler-Maruyama against the exact solution on shared
Brownian increments exhibits the order-1/2 error decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from ._csvio import write_csv
from .dynamics import Trajectory, time_grid


@dataclass(frozen=True)
class BilinearParams:
    r1: float = 1.0
    r2: float = -1.2
    x0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def as_growth(self) -> float:
        """Almost-sure exponential growth rate of the Ito system."""
        return self.r1 - 0.5 * self.r2**2


def mean_ode(bp: BilinearParams, omega: float, dt: float, t_end: float) -> Trajectory:
    """RK4 path of the mean evolution dE/dt = (r1 + r2 omega) E; closed form is exponential."""
    times = time_grid(dt, t_end)
    xs = np.empty(len(times))
    x = float(bp.x0)
    xs[0] = x

    def rhs(y: float) -> float:
        return bp.r1 * y + bp.r2 * y * omega

    for i in range(len(times) - 1):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        xs[i + 1] = x
    return Trajectory(times=times, states=xs)


def exact_path(bp: BilinearParams, times: np.ndarray, w_path: np.ndarray) -> np.ndarray:
    """Pathwise exact solution of the Ito SDE on a given Brownian path."""
    times = np.asarray(times, dtype=float)
    w_path = np.asarray(w_path, dtype=float)
    if times.shape != w_path.shape:
        raise ValueError("times and w_path must have matching shapes")
    return bp.x0 * np.exp(bp.as_growth * times + bp.r2 * w_path)


def em_path(bp: BilinearParams, dt: float, dw: np.ndarray) -> np.ndarray:
    """Euler-Maruyama path of the Ito SDE from Brownian increments dw."""
    dw = np.asarray(dw, dtype=float)
    xs = np.empty(len(dw) + 1)
    x = float(bp.x0)
    xs[0] = x
    for i, inc in enumerate(dw):
        x = x + bp.r1 * x * dt + bp.r2 * x * inc
        xs[i + 1] = x
    return xs


@dataclass(frozen=True)
class ConvergenceStudy:
    dts: np.ndarray
    errors: np.ndarray  # mean |x_em(T) - x_exact(T)| over paths
    slope: float

    def to_csv(self, path) -> None:
        write_csv(path, "dt,strong_error", (self.dts, self.errors))


_DEFAULT_DTS = tuple(2.0**-l for l in range(6, 13))
_PW_BLOCKSIZE = 128  # numpy's pairwise summation adds runs of at most this many items in a loop


def _pairwise_leaves(n: int, start: int = 0) -> list[tuple[int, int, int]]:
    """The leaves of numpy's pairwise summation of an ``n``-long row, in order.

    numpy splits a run of more than ``_PW_BLOCKSIZE`` items after
    n // 2 - (n // 2) % 8 items and adds the two halves' sums; shorter runs
    are the leaves.  Each leaf is (a, b, adds): its items [a, b) and how many
    of those additions its sum completes (see ``_pairwise_push``).
    """
    if n <= _PW_BLOCKSIZE:
        return [(start, start + n, 0)]
    n2 = n // 2 - (n // 2) % 8
    leaves = _pairwise_leaves(n2, start) + _pairwise_leaves(n - n2, start + n2)
    a, b, adds = leaves[-1]
    leaves[-1] = (a, b, adds + 1)
    return leaves


def _pairwise_push(stack: list, leaf_sum, adds: int) -> None:
    """Push the next leaf's sum and complete ``adds`` pairwise additions.

    Pushing every leaf of ``_pairwise_leaves(n)`` in order leaves one entry:
    the row sum with the bits of numpy's ``sum`` over the whole row.
    """
    stack.append(leaf_sum)
    for _ in range(adds):
        right = stack.pop()
        stack[-1] = stack[-1] + right


def strong_convergence_study(
    bp: BilinearParams,
    dts: Sequence[float] = _DEFAULT_DTS,
    n_paths: int = 1000,
    master_seed: int = 2024,
    t_end: float = 1.0,
) -> ConvergenceStudy:
    """Strong error of Euler-Maruyama at t_end for each step size in dts.

    All step sizes share the same Brownian paths: increments are drawn once
    at the finest resolution with per-path counter-based streams and summed
    in groups for the coarser grids, so the exact terminal value is common
    and the error decay is a pure discretization effect.  Every dt must be
    an integer multiple of the finest dt dividing t_end in whole steps.

    All paths advance together, one time block of fine increments at a
    time; every step size takes its steps from the block into its own state
    vector.  A block is a run of leaves of numpy's pairwise summation of an
    n_fine-long row (``_pairwise_leaves``) that ends on a multiple of every
    ratio dt / dt_fine, so each coarse increment sums the same fine ones as
    over the whole row, and w(t_end) is the leaf sums added in numpy's
    order, with the bits of a whole-row ``sum``.  Memory is
    O(n_paths * block): one leaf of at most 128 steps per block at the
    default step sizes, and all n_fine steps in one block when no earlier
    leaf ends on a multiple of every ratio.  A system that every step size
    solves exactly has no error slope and raises ``ArithmeticError``.
    """
    dts = np.asarray(sorted(set(float(d) for d in dts), reverse=True))
    if dts.size < 2:
        raise ValueError("need at least two distinct step sizes to fit a slope")
    if dts[-1] <= 0.0:
        raise ValueError("step sizes must be positive")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    dt_fine = dts[-1]
    n_fine = int(round(t_end / dt_fine))
    if abs(n_fine * dt_fine - t_end) > 1e-12 * t_end:
        raise ValueError("finest dt must divide t_end in whole steps")
    ratios = []
    for dt in dts:
        r = int(round(dt / dt_fine))
        if abs(r * dt_fine - dt) > 1e-12 * dt or n_fine % r != 0:
            raise ValueError(f"dt {dt} is not a whole multiple of the finest dt {dt_fine}")
        ratios.append(r)

    every_ratio = math.lcm(*ratios)
    streams = [rng.path_stream(master_seed, p) for p in range(n_paths)]
    xs = [np.full(n_paths, float(bp.x0)) for _ in ratios]
    partial = []  # open pairwise partial sums of each path's fine increments
    s0, leaves = 0, []
    for leaf in _pairwise_leaves(n_fine):
        leaves.append(leaf)
        s1 = leaf[1]
        if s1 % every_ratio:
            continue
        dw_fine = rng.fill_normals(streams, np.empty((n_paths, s1 - s0)))
        dw_fine *= math.sqrt(dt_fine)
        for a, b, adds in leaves:
            _pairwise_push(partial, dw_fine[:, a - s0 : b - s0].sum(axis=1), adds)
        for j, (dt, ratio) in enumerate(zip(dts, ratios)):
            dw = dw_fine if ratio == 1 else dw_fine.reshape(n_paths, -1, ratio).sum(axis=2)
            x = xs[j]
            for i in range(dw.shape[1]):
                x = x + bp.r1 * x * dt + bp.r2 * x * dw[:, i]
            xs[j] = x
        s0, leaves = s1, []
    (w_end,) = partial
    x_exact_end = exact_path(bp, np.full(n_paths, t_end), w_end)

    errors = np.array([np.mean(np.abs(x - x_exact_end)) for x in xs])
    if not errors.any():
        raise ArithmeticError("every strong error is 0, so there is no slope to fit")
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return ConvergenceStudy(dts=dts, errors=errors, slope=slope)


def as_growth_estimate(
    bp: BilinearParams,
    t_end: float = 10.0,
    n_paths: int = 1000,
    master_seed: int = 99,
) -> float:
    """Monte Carlo estimate of the almost-sure growth rate log|x(T)| / T."""
    w_end = math.sqrt(t_end) * rng.normals(master_seed, range(n_paths), 1)[:, 0]
    x_end = exact_path(bp, np.full(n_paths, t_end), w_end)
    return float(np.mean(np.log(np.abs(x_end)) / t_end))


def demo_paths(
    bp: BilinearParams,
    t_end: float = 1.0,
    n_steps: int = 256,
    master_seed: int = 7,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Euler-Maruyama path next to the exact path on the same noise."""
    dt = t_end / n_steps
    dw = math.sqrt(dt) * rng.path_normals(master_seed, 0, n_steps)
    times = np.arange(n_steps + 1) * dt
    w_path = np.concatenate(([0.0], np.cumsum(dw)))
    return times, em_path(bp, dt, dw), exact_path(bp, times, w_path)


def write_paths_csv(path, times: np.ndarray, x_em: np.ndarray, x_exact: np.ndarray) -> None:
    write_csv(path, "t,x_em,x_exact", (times, x_em, x_exact))
