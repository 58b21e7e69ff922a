"""Time integration of the flexibility-function dynamics.

Deterministic runs use a classical fourth-order one-step method on the
drift; stochastic runs use Euler-Maruyama with per-path counter-based
noise streams.  Both clamp the state to [0, 1] after every step, which is
harmless because the drift points inward at the boundaries and the
diffusion vanishes there.  Price and baseline inputs are piecewise-constant
schedules.

Defaults scale with the capacity: dt = 0.01 C and t_end = 20 C.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .model import (
    FlexParams,
    charge_response,
    demand_deviation,
    logistic_response,
    price_response,
)

_BLOCK = 1024  # paths per work block; fixed so results never depend on threads


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant (u, B) inputs; level j applies on [t_j, t_{j+1})."""

    breakpoints: tuple[float, ...]
    u_values: tuple[float, ...]
    B_values: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(t) for t in self.breakpoints)
        uv = tuple(float(v) for v in self.u_values)
        bv = tuple(float(v) for v in self.B_values)
        if not bp:
            raise ValueError("schedule must have at least one segment")
        if len(bp) != len(uv) or len(bp) != len(bv):
            raise ValueError("breakpoints, u_values and B_values must have equal length")
        if bp[0] != 0.0:
            raise ValueError(f"first breakpoint must be 0.0, got {bp[0]}")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for name, vals in (("u", uv), ("B", bv)):
            for v in vals:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{name} value {v} outside [0, 1]")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "u_values", uv)
        object.__setattr__(self, "B_values", bv)

    @classmethod
    def constant(cls, u: float, B: float) -> "Schedule":
        return cls(breakpoints=(0.0,), u_values=(u,), B_values=(B,))

    def value_at(self, t: float) -> tuple[float, float]:
        if t < 0.0:
            raise ValueError(f"schedule queried at negative time {t}")
        j = bisect_right(self.breakpoints, t) - 1
        return self.u_values[j], self.B_values[j]


@dataclass(frozen=True)
class Trajectory:
    """One path on a uniform time grid, with realized total demand."""

    times: np.ndarray
    states: np.ndarray
    demands: np.ndarray | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if self.demands is None:
                fh.write("t,x\n")
                for t, x in zip(self.times, self.states):
                    fh.write(f"{float(t)!r},{float(x)!r}\n")
            else:
                fh.write("t,x,d\n")
                for t, x, d in zip(self.times, self.states, self.demands):
                    fh.write(f"{float(t)!r},{float(x)!r},{float(d)!r}\n")


@dataclass(frozen=True)
class Ensemble:
    """A set of paths on a shared grid with reproducible per-path streams."""

    times: np.ndarray
    states: np.ndarray  # (n_paths, n_times)
    master_seed: int
    pre_clamp_min: float
    pre_clamp_max: float

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[:, -1]

    @property
    def paths(self) -> list[Trajectory]:
        return [Trajectory(times=self.times, states=row) for row in self.states]

    def summary(self) -> dict[str, np.ndarray]:
        return {
            "t": self.times,
            "mean": self.states.mean(axis=0),
            "var": self.states.var(axis=0),
            "q05": np.quantile(self.states, 0.05, axis=0),
            "q50": np.quantile(self.states, 0.50, axis=0),
            "q95": np.quantile(self.states, 0.95, axis=0),
        }

    def to_csv(self, path) -> None:
        s = self.summary()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,mean,var,q05,q50,q95\n")
            for i in range(len(self.times)):
                fh.write(
                    ",".join(
                        repr(float(col[i]))
                        for col in (s["t"], s["mean"], s["var"], s["q05"], s["q50"], s["q95"])
                    )
                    + "\n"
                )


def _grid(params: FlexParams, dt: float | None, t_end: float | None):
    if dt is None:
        dt = 0.01 * params.C
    if t_end is None:
        t_end = 20.0 * params.C
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.isfinite(t_end) and t_end >= dt):
        raise ValueError(f"t_end must be at least dt, got {t_end}")
    n_steps = max(1, int(round(t_end / dt)))
    times = np.arange(n_steps + 1) * dt
    return dt, times


def _check_x0(x0: float) -> float:
    x0 = float(x0)
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 {x0} outside [0, 1]")
    return x0


def _segment_tables(params: FlexParams, schedule: Schedule):
    """Price response and baseline per schedule segment (g is the slow part)."""
    g_seg = [price_response(params, u) for u in schedule.u_values]
    return g_seg, list(schedule.B_values)


def _drift_scalar(params: FlexParams, x: float, g: float, B: float) -> float:
    a1, a2, a3, a4 = params.alpha
    y = 2.0 * x - 1.0
    y2 = y * y
    f = (-y + a1 * (1.0 - y2)) * (a2 + a3 * y2 + a4 * y2 * y2 * y2)
    d = math.tanh(0.5 * params.k * (f + g))
    dd = d * params.lam * ((1.0 - B) if d >= 0.0 else B)
    return dd / params.C


def integrate_ode(
    params: FlexParams,
    x0: float,
    schedule: Schedule,
    dt: float | None = None,
    t_end: float | None = None,
) -> Trajectory:
    """Deterministic trajectory (sigma_x plays no role here).

    The horizon is rounded to a whole number of steps.  States are clamped
    to [0, 1] after each step; stage evaluations may transiently poke
    outside, which the responses tolerate.  The demand column is computed
    in one array pass from the per-segment g(u) table, so the price
    response is evaluated once per schedule segment, not once per time
    point.
    """
    x = _check_x0(x0)
    dt, times = _grid(params, dt, t_end)
    g_seg, B_seg = _segment_tables(params, schedule)
    bp = schedule.breakpoints

    def seg_at(t: float) -> int:
        return bisect_right(bp, t) - 1 if t >= 0.0 else 0

    states = np.empty(times.shape)
    states[0] = x
    for i in range(len(times) - 1):
        t = times[i]
        j0 = seg_at(t)
        jh = seg_at(t + 0.5 * dt)
        j1 = seg_at(t + dt)
        k1 = _drift_scalar(params, x, g_seg[j0], B_seg[j0])
        k2 = _drift_scalar(params, x + 0.5 * dt * k1, g_seg[jh], B_seg[jh])
        k3 = _drift_scalar(params, x + 0.5 * dt * k2, g_seg[jh], B_seg[jh])
        k4 = _drift_scalar(params, x + dt * k3, g_seg[j1], B_seg[j1])
        x += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(x):
            raise RuntimeError(f"numerical failure: non-finite state at t={t + dt}")
        x = min(1.0, max(0.0, x))
        states[i + 1] = x
    seg = np.searchsorted(bp, times, side="right") - 1
    g_t = np.asarray(g_seg)[seg]
    B_t = np.asarray(B_seg)[seg]
    delta = logistic_response(params, charge_response(params, states) + g_t)
    demands = B_t + demand_deviation(params, delta, B_t)
    return Trajectory(times=times, states=states, demands=demands)


def simulate_sde(
    params: FlexParams,
    x0: float,
    schedule: Schedule,
    n_paths: int,
    master_seed: int,
    dt: float | None = None,
    t_end: float | None = None,
    threads: int = 1,
) -> Ensemble:
    """Euler-Maruyama ensemble with per-path Philox streams.

    Path ``p`` draws all its increments from the stream keyed by
    (master_seed, p), so the ensemble is bit-identical for any ``threads``.
    Work is split into fixed-size path blocks and reassembled by index.
    """
    x0 = _check_x0(x0)
    rng.check_seed(master_seed)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    dt, times = _grid(params, dt, t_end)
    n_steps = len(times) - 1
    g_seg, B_seg = _segment_tables(params, schedule)
    bp = schedule.breakpoints
    seg_idx = np.array([bisect_right(bp, float(t)) - 1 for t in times[:-1]])
    g_step = np.array([g_seg[j] for j in seg_idx])
    B_step = np.array([B_seg[j] for j in seg_idx])

    a1, a2, a3, a4 = params.alpha
    lam, k, C, sig = params.lam, params.k, params.C, params.sigma_x
    sqdt = math.sqrt(dt)

    states = np.empty((n_paths, len(times)))
    extremes = np.empty((int(np.ceil(n_paths / _BLOCK)), 2))

    def run_block(b: int) -> None:
        p0, p1 = b * _BLOCK, min((b + 1) * _BLOCK, n_paths)
        z = np.empty((p1 - p0, n_steps))
        for p in range(p0, p1):
            z[p - p0] = rng.path_normals(master_seed, p, n_steps)
        x = np.full(p1 - p0, x0)
        states[p0:p1, 0] = x
        lo, hi = x0, x0
        for i in range(n_steps):
            y = 2.0 * x - 1.0
            y2 = y * y
            f = (-y + a1 * (1.0 - y2)) * (a2 + a3 * y2 + a4 * y2 * y2 * y2)
            d = np.tanh(0.5 * k * (f + g_step[i]))
            dd = lam * np.where(d >= 0.0, d * (1.0 - B_step[i]), d * B_step[i])
            x = x + (dd / C) * dt + x * (1.0 - x) * sig * sqdt * z[:, i]
            lo = min(lo, float(x.min()))
            hi = max(hi, float(x.max()))
            np.clip(x, 0.0, 1.0, out=x)
            states[p0:p1, i + 1] = x
        if not np.all(np.isfinite(x)):
            raise RuntimeError("numerical failure: non-finite state in ensemble")
        extremes[b] = (lo, hi)

    n_blocks = extremes.shape[0]
    if threads == 1 or n_blocks == 1:
        for b in range(n_blocks):
            run_block(b)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_block, range(n_blocks)))
    return Ensemble(
        times=times,
        states=states,
        master_seed=int(master_seed),
        pre_clamp_min=float(extremes[:, 0].min()),
        pre_clamp_max=float(extremes[:, 1].max()),
    )


def ensemble_stats(ens: Ensemble, t: float, bins: int = 50) -> dict:
    """Mean, variance and histogram of the ensemble at the grid time nearest t."""
    idx = int(np.argmin(np.abs(ens.times - t)))
    col = ens.states[:, idx]
    counts, edges = np.histogram(col, bins=bins, range=(0.0, 1.0))
    return {
        "t": float(ens.times[idx]),
        "mean": float(col.mean()),
        "var": float(col.var()),
        "hist": counts,
        "edges": edges,
    }
