"""Time integration of the flexibility-function dynamics.

Deterministic runs use a classical fourth-order one-step method on the
drift; stochastic runs use Euler-Maruyama with counter-based noise
streams, one per tile of 64 paths.  Both clamp the state to [0, 1] after
every step, which is harmless because the drift points inward at the
boundaries and the diffusion vanishes there.  Price and baseline inputs are
piecewise-constant schedules.

Defaults scale with the capacity: dt = 0.01 C and t_end = 20 C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import rng
from ._csvio import write_csv
from .model import FlexParams, check_unit, deviation, diffusion, price_response
from .rng import _CHUNK

_LEVELS = np.array([0.05, 0.50, 0.95])  # the ensemble quantiles


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant (u, B) inputs; level j applies on [t_j, t_{j+1})."""

    breakpoints: tuple[float, ...]
    u_values: tuple[float, ...]
    B_values: tuple[float, ...]

    def __post_init__(self) -> None:
        bp = tuple(float(t) for t in self.breakpoints)
        uv = tuple(check_unit("u value", v) for v in self.u_values)
        bv = tuple(check_unit("B value", v) for v in self.B_values)
        if not bp:
            raise ValueError("schedule must have at least one segment")
        if len(bp) != len(uv) or len(bp) != len(bv):
            raise ValueError("breakpoints, u_values and B_values must have equal length")
        if bp[0] != 0.0:
            raise ValueError(f"first breakpoint must be 0.0, got {bp[0]}")
        if not math.isfinite(bp[-1]) or any(not b > a for a, b in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must be finite and strictly increasing, got {bp}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "u_values", uv)
        object.__setattr__(self, "B_values", bv)

    @classmethod
    def constant(cls, u: float, B: float) -> "Schedule":
        return cls(breakpoints=(0.0,), u_values=(u,), B_values=(B,))


@dataclass(frozen=True)
class Trajectory:
    """One path on a uniform time grid, with realized total demand."""

    times: np.ndarray
    states: np.ndarray
    demands: np.ndarray | None = None

    def to_csv(self, path) -> None:
        if self.demands is None:
            write_csv(path, "t,x", (self.times, self.states))
        else:
            write_csv(path, "t,x,d", (self.times, self.states, self.demands))


@dataclass(frozen=True)
class Ensemble:
    """Per-time statistics of a set of paths, plus the paths it was asked to keep.

    ``states`` holds the first ``keep`` paths (n_keep, n_times) and
    ``terminal`` the final state of every path; the moments cover all paths.
    """

    times: np.ndarray
    states: np.ndarray  # (n_keep, n_times)
    terminal: np.ndarray  # (n_paths,)
    mean: np.ndarray
    var: np.ndarray
    q05: np.ndarray
    q50: np.ndarray
    q95: np.ndarray
    pre_clamp_min: float
    pre_clamp_max: float

    def summary(self) -> dict[str, np.ndarray]:
        return {
            "t": self.times,
            "mean": self.mean,
            "var": self.var,
            "q05": self.q05,
            "q50": self.q50,
            "q95": self.q95,
        }

    def to_csv(self, path) -> None:
        s = self.summary()
        write_csv(path, ",".join(s), s.values())


def time_grid(dt: float, t_end: float) -> np.ndarray:
    """Uniform times 0, dt, ..., n dt with the horizon rounded to n >= 1 steps."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.isfinite(t_end) and t_end >= dt):
        raise ValueError(f"t_end must be at least dt, got {t_end}")
    n_steps = max(1, int(round(t_end / dt)))
    return np.arange(n_steps + 1) * dt


def _grid(params: FlexParams, dt: float | None, t_end: float | None):
    """Step and time grid, defaulting to dt = 0.01 C and t_end = 20 C."""
    if dt is None:
        dt = 0.01 * params.C
    if t_end is None:
        t_end = 20.0 * params.C
    return dt, time_grid(dt, t_end)


def _segments(params: FlexParams, schedule: Schedule, *times: np.ndarray):
    """Per-segment g(u) and B tables, and the segment of every entry of each ``times``.

    g is evaluated once per segment, not once per time point: it is the slow part.
    """
    g_seg = np.array([price_response(params, u) for u in schedule.u_values])
    segs = [np.searchsorted(schedule.breakpoints, t, side="right") - 1 for t in times]
    return g_seg, np.array(schedule.B_values), segs


def _drift_scalar(params: FlexParams, x: float, g: float, B: float) -> float:
    """``model.deviation(...) / C`` for one float state; the RK4 loop's fast path."""
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
    point.  The segments of every step's start, midpoint and end are looked
    up before the loop.

    A settled start stops costing steps.  When a step whose three stages read
    one segment returns its own input, that input is a fixed point of the
    segment's step map, so every step up to the first one whose end reads a
    later segment returns it too: those states are filled in and the loop
    resumes there.  The states equal those of computing every step, bit for
    bit.
    """
    x = check_unit("x0", x0)
    dt, times = _grid(params, dt, t_end)
    t0 = times[:-1]
    g_seg, B_seg, (seg, seg_h, seg_1) = _segments(params, schedule, times, t0 + 0.5 * dt, t0 + dt)
    g, B = g_seg.tolist(), B_seg.tolist()

    states = np.empty(times.shape)
    states[0] = x
    steps = enumerate(zip(seg.tolist(), seg_h.tolist(), seg_1.tolist()))
    for i, (j0, jh, j1) in steps:
        k1 = _drift_scalar(params, x, g[j0], B[j0])
        k2 = _drift_scalar(params, x + 0.5 * dt * k1, g[jh], B[jh])
        k3 = _drift_scalar(params, x + 0.5 * dt * k2, g[jh], B[jh])
        k4 = _drift_scalar(params, x + dt * k3, g[j1], B[j1])
        x_new = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(x_new):
            raise RuntimeError(f"non-finite state at t={times[i] + dt}")
        x_new = min(1.0, max(0.0, x_new))
        if x_new == x and j0 == j1:
            # a fixed point of segment j0's step map holds until a step ends in a later segment
            end = int(np.searchsorted(seg_1, j1, side="right"))
            states[i + 1 : end + 1] = x_new
            next(islice(steps, end - i - 1, end - i - 1), None)  # resume at step ``end``
        else:
            states[i + 1] = x_new
        x = x_new
    g_t, B_t = g_seg[seg], B_seg[seg]
    demands = B_t + deviation(params, states, g_t, B_t)
    return Trajectory(times=times, states=states, demands=demands)


def _quantiles(rows: np.ndarray) -> np.ndarray:
    """The 5/50/95% quantiles of each sorted row, one row of the result per level.

    The bits are those of ``np.quantile(..., method="linear")`` on the
    unsorted rows: the virtual index (n - 1) q; at or past the last index
    both neighbours are the last element and the weight is measured from
    index -1; and a + (b - a) t, or b - (b - a)(1 - t) where t >= 0.5.
    ``np.quantile(rows, _LEVELS, axis=1, overwrite_input=True)`` gives the
    same bits, but it partitions each row at eight indices (0, n - 1 and
    two per level) and took about 5x as long as an in-place sort of the
    rows on a 128 x 4096 block (ROADMAP, "Measured rejections").
    """
    n = rows.shape[1]
    pos = (n - 1) * _LEVELS
    below = np.floor(pos)
    below[pos >= n - 1] = -1
    above = np.where(below == -1, -1, below + 1)
    t = pos - below
    a, b = rows[:, below.astype(np.intp)], rows[:, above.astype(np.intp)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t).T


def simulate_sde(
    params: FlexParams,
    x0: float,
    schedule: Schedule,
    n_paths: int,
    master_seed: int,
    dt: float | None = None,
    t_end: float | None = None,
    keep: int | None = None,
) -> Ensemble:
    """Euler-Maruyama ensemble with one Philox stream per tile of 64 paths.

    Path ``p`` draws all its increments from column ``p % 64`` of the
    stream keyed by (master_seed, p // 64), so they do not depend on
    ``n_paths`` (see ``rng``).  All paths advance together, one block of
    at most ``_CHUNK`` steps at a time: each time-major (steps, n_paths)
    noise block that ``rng.normal_blocks`` yields becomes the state block,
    and each step overwrites its row with the pre-clamp states.  A
    non-finite state raises ``RuntimeError``; otherwise the block's
    extremes update ``pre_clamp_min``/``max``, the block is clamped, the
    first ``keep`` paths (all of them when None) are copied out, the mean
    and variance are taken along each row, and the rows are then sorted in
    place for the 5/50/95% quantiles.
    The t = 0 column is x0 exactly, with variance 0.  Memory is
    O(n_paths * _CHUNK + keep * n_times).  The drift is
    ``model.deviation``, the kernel that also computes the ODE demand column.
    """
    x0 = check_unit("x0", x0)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    keep = n_paths if keep is None else keep
    if not 0 <= keep <= n_paths:
        raise ValueError(f"keep must be between 0 and n_paths, got {keep}")
    dt, times = _grid(params, dt, t_end)
    g_seg, B_seg, (seg,) = _segments(params, schedule, times[:-1])
    g_step, B_step = g_seg[seg], B_seg[seg]
    sqdt = math.sqrt(dt)

    states = np.empty((keep, len(times)))
    mean, var, q05, q50, q95 = np.empty((5, len(times)))
    states[:, 0] = mean[0] = q05[0] = q50[0] = q95[0] = x0
    var[0] = 0.0
    x = np.full(n_paths, x0)
    lo, hi, n_steps = x0, x0, len(times) - 1
    blocks = rng.normal_blocks(master_seed, range(n_paths), n_steps, _CHUNK)
    for s0, block in zip(range(0, n_steps, _CHUNK), blocks):
        s1 = s0 + len(block)
        # Row j is time s0 + 1 + j, one contiguous row of paths.  Each row
        # holds its step's noise until the step overwrites it with the
        # pre-clamp state.
        # an overflow leaves a non-finite state, which the check below reports
        with np.errstate(over="ignore", invalid="ignore"):
            for j, i in enumerate(range(s0, s1)):
                dd = deviation(params, x, g_step[i], B_step[i])
                x = x + (dd / params.C) * dt + diffusion(params, x) * sqdt * block[j]
                block[j] = x
                np.clip(x, 0.0, 1.0, out=x)
        b_lo, b_hi = float(block.min()), float(block.max())
        if not (math.isfinite(b_lo) and math.isfinite(b_hi)):
            raise RuntimeError("non-finite state in ensemble")
        lo, hi = min(lo, b_lo), max(hi, b_hi)
        np.clip(block, 0.0, 1.0, out=block)
        cols = slice(s0 + 1, s1 + 1)
        states[:, cols] = block[:, :keep].T
        mean[cols] = block.mean(axis=1)
        var[cols] = block.var(axis=1)
        block.sort(axis=1)
        q05[cols], q50[cols], q95[cols] = _quantiles(block)
    return Ensemble(
        times=times,
        states=states,
        terminal=x,
        mean=mean,
        var=var,
        q05=q05,
        q50=q50,
        q95=q95,
        pre_clamp_min=lo,
        pre_clamp_max=hi,
    )
