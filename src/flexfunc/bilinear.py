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

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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

    def rhs(y: float) -> float:
        return bp.r1 * y + bp.r2 * y * omega

    def step(x: float, _) -> float:
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        return x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0

    times = time_grid(dt, t_end)
    states = itertools.accumulate(range(len(times) - 1), step, initial=float(bp.x0))
    return Trajectory(times=times, states=np.fromiter(states, float, len(times)))


def exact_path(bp: BilinearParams, times: np.ndarray, w_path: np.ndarray) -> np.ndarray:
    """Pathwise exact solution of the Ito SDE on a given Brownian path."""
    times = np.asarray(times, dtype=float)
    w_path = np.asarray(w_path, dtype=float)
    if times.shape != w_path.shape:
        raise ValueError("times and w_path must have matching shapes")
    return bp.x0 * np.exp(bp.as_growth * times + bp.r2 * w_path)


def em_path(bp: BilinearParams, dt: float, dw: np.ndarray, x0=None) -> Iterator[np.ndarray]:
    """Euler-Maruyama states of the Ito SDE from time-major Brownian increments ``dw``.

    ``dw`` has one row per step, for one path or a row of paths.  The states
    come lazily, one row per time, the first being ``x0`` (default ``bp.x0``)
    broadcast to a row, so a caller stores only the states it reads.
    """
    dw = np.asarray(dw, dtype=float)
    x0 = np.broadcast_to(float(bp.x0) if x0 is None else x0, dw.shape[1:])
    return itertools.accumulate(dw, lambda x, inc: x + bp.r1 * x * dt + bp.r2 * x * inc, initial=x0)


@dataclass(frozen=True)
class ConvergenceStudy:
    dts: np.ndarray
    errors: np.ndarray  # mean |x_em(T) - x_exact(T)| over paths
    slope: float

    def to_csv(self, path) -> None:
        write_csv(path, "dt,strong_error", (self.dts, self.errors))


_DEFAULT_DTS = tuple(2.0**-l for l in range(6, 13))


def strong_convergence_study(
    bp: BilinearParams,
    dts: Sequence[float] = _DEFAULT_DTS,
    n_paths: int = 1000,
    master_seed: int = 2024,
    t_end: float = 1.0,
) -> ConvergenceStudy:
    """Strong error of Euler-Maruyama at t_end for each step size in dts.

    All step sizes share the same Brownian paths: increments are drawn once
    at the finest resolution with counter-based streams, one per tile of 64
    paths (see ``rng``), and summed in groups for the coarser grids, so the
    exact terminal value is common and the error decay is a pure
    discretization effect.  Every dt must be an integer multiple of the
    finest dt dividing t_end in whole steps.

    All paths advance together through ``rng.normal_blocks``, one time-major
    (steps, n_paths) block of fine increments at a time; every step size
    takes its steps from the block's rows, summed in groups of its ratio,
    into its own state vector, and w(t_end) adds up each block's rows.  A
    block is the largest multiple of lcm(dt / dt_fine) that fits in
    ``_CHUNK`` steps, or the lcm itself when that is larger, so each block
    holds whole coarse steps and memory is O(n_paths * max(_CHUNK, lcm)).
    A system that every step size solves exactly has no error slope and
    raises ``ArithmeticError``.
    """
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    dts = np.asarray(sorted(set(float(d) for d in dts), reverse=True))
    if not np.isfinite(dts).all():
        raise ValueError(f"dts must be finite, got {dts.tolist()}")
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
    rows = every_ratio * max(1, rng._CHUNK // every_ratio)
    xs = [np.full(n_paths, float(bp.x0)) for _ in ratios]
    w_end = np.zeros(n_paths)
    for dw_fine in rng.normal_blocks(master_seed, range(n_paths), n_fine, rows):
        dw_fine *= math.sqrt(dt_fine)
        w_end += dw_fine.sum(axis=0)
        for j, (dt, ratio) in enumerate(zip(dts, ratios)):
            dw = dw_fine if ratio == 1 else dw_fine.reshape(-1, ratio, n_paths).sum(axis=1)
            for xs[j] in em_path(bp, dt, dw, xs[j]):
                pass
    x_exact_end = exact_path(bp, np.full(n_paths, t_end), w_end)

    errors = np.array([np.mean(np.abs(x - x_exact_end)) for x in xs])
    if not errors.any():
        raise ArithmeticError("every strong error is 0, so there is no slope to fit")
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return ConvergenceStudy(dts=dts, errors=errors, slope=slope)


def demo_paths(
    bp: BilinearParams,
    t_end: float = 1.0,
    n_steps: int = 256,
    master_seed: int = 7,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Euler-Maruyama path next to the exact path on the same noise."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    dt = t_end / n_steps
    times = time_grid(dt, t_end)
    dw = math.sqrt(dt) * rng.path_normals(master_seed, 0, n_steps)
    w_path = np.concatenate(([0.0], np.cumsum(dw)))
    return times, np.array(list(em_path(bp, dt, dw))), exact_path(bp, times, w_path)


def write_paths_csv(path, times: np.ndarray, x_em: np.ndarray, x_exact: np.ndarray) -> None:
    write_csv(path, "t,x_em,x_exact", (times, x_em, x_exact))
