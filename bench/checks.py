"""Output checks against independent oracles.

Every checker takes a finished job and returns a list of problems (empty
when the outputs are right).  They run outside the timed region and read
only the files the job wrote plus its config.
"""

from __future__ import annotations

import json
from bisect import bisect_right

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, eigvalsh

from flexfunc.generator import StateGrid, build_generator, evolve_pdf, point_mass_pdf
from flexfunc.model import FlexParams, demand, drift

from workloads import Job

CERT_KEYS = frozenset(
    {
        "det-asymptotic",
        "stoch-bounded",
        "stoch-stable",
        "theta",
        "target_radius",
        "stable_radius",
        "radius_meets_target",
        "sigma_max",
        "overall_pass",
    }
)
CLAIM_KEYS = frozenset({"claim", "params_hash", "region", "threshold", "margin", "pass"})
ODE_TOL = 1e-7  # RK4 at dt = 0.01 C agrees with DOP853 to ~3e-9 on smooth segments
GAP_RTOL = 1e-6
MASS_TOL = 1e-9
DENSE_LIMIT = 500  # n_cells up to which the dense eigensolver is the oracle
ORACLE_CELLS = 201  # odd, so the point start 0.5 sits on a cell center
MEAN_TOL = 0.01  # Euler-Maruyama, implicit-Euler and cell-width bias of the mean oracle


def _table(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def check_job(job: Job, exit_code: int) -> list[str]:
    """Exit code, expected files, then the job's own output checker."""
    if exit_code != 0:
        return [f"{job.name}: exit code {exit_code}"]
    missing = [name for name in job.outputs if not (job.out_dir / name).is_file()]
    if missing:
        return [f"{job.name}: missing {', '.join(missing)}"]
    try:
        return [f"{job.name}: {msg}" for msg in CHECKERS[job.check](job)]
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return [f"{job.name}: unreadable output ({exc!r})"]


def check_ode(job: Job) -> list[str]:
    """RK4 states against solve_ivp, restarted on each schedule segment.

    A step whose stages straddle a schedule breakpoint mixes two levels, so
    only grid points joined by steps inside one segment are compared; the
    demand column is recomputed with ``model.demand`` on sampled rows.
    """
    params = FlexParams.from_dict(job.config["params"])
    block = job.config["simulate"]
    sched = block["schedule"]
    bps = sched.get("breakpoints", [0.0])
    us = sched.get("u_values", [sched.get("u")])
    bs = sched.get("B_values", [sched.get("B")])
    dt = 0.01 * params.C
    problems = []
    for name, x0 in zip(job.outputs, block["x0"]):
        t, x, d = _table(job.out_dir / name).T
        if abs(t[-1] - block["t_end"]) > dt or np.max(np.abs(np.diff(t) - dt)) > 1e-9:
            problems.append(f"{name}: time grid does not span [0, t_end] at dt = {dt}")
            continue
        if x[0] != x0 or np.any(x < 0.0) or np.any(x > 1.0):
            problems.append(f"{name}: state leaves [0, 1] or does not start at x0")
            continue
        seg = np.array([bisect_right(bps, ti) - 1 for ti in t])
        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        ends = np.r_[starts[1:] - 1, len(t) - 1]
        for a, b in zip(starts, ends):
            if b == a:
                continue
            u, B = us[seg[a]], bs[seg[a]]
            idx = np.unique(np.linspace(a, b, 20).astype(int))
            sol = solve_ivp(
                lambda _t, y: [drift(params, float(y[0]), u, B)],
                (t[a], t[b]),
                [x[a]],
                t_eval=t[idx],
                method="DOP853",
                rtol=1e-11,
                atol=1e-13,
            )
            err = float(np.max(np.abs(sol.y[0] - x[idx])))
            if not sol.success or err > ODE_TOL:
                problems.append(f"{name}: state differs from solve_ivp by {err:.3g} on [{t[a]}, {t[b]}]")
        rows = np.unique(np.linspace(0, len(t) - 1, 50).astype(int))
        want = [demand(params, x[i], us[seg[i]], bs[seg[i]]) for i in rows]
        if np.max(np.abs(np.asarray(want) - d[rows])) > 1e-12:
            problems.append(f"{name}: d column differs from model.demand")
    return problems


def check_certify(job: Job) -> list[str]:
    doc = json.loads((job.out_dir / job.outputs[0]).read_text(encoding="utf-8"))
    if set(doc) != CERT_KEYS:
        return [f"certificate keys {sorted(doc)} are not the documented ones"]
    bad = [c for c in ("det-asymptotic", "stoch-bounded", "stoch-stable") if set(doc[c]) != CLAIM_KEYS]
    if bad:
        return [f"claim objects {bad} do not have exactly {sorted(CLAIM_KEYS)}"]
    return [] if doc["overall_pass"] is True else ["overall_pass is not true"]


def check_ensemble(job: Job) -> list[str]:
    """Summary sanity plus the ensemble mean against a two-stage
    ``evolve_pdf`` oracle (u = 0, then u = 1): one and two time units into
    each stage, where the paths are in transit, and at the end of each
    stage, where they have settled at a corner."""
    params = FlexParams.from_dict(job.config["params"])
    block = job.config["simulate"]
    t, mean, var, q05, q50, q95 = _table(job.out_dir / job.outputs[0]).T
    problems = []
    cols = np.vstack([mean, q05, q50, q95])
    if np.any(cols < 0.0) or np.any(cols > 1.0):
        problems.append("summary leaves [0, 1]")
    if np.any(q05 > q50) or np.any(q50 > q95):
        problems.append("quantiles are not ordered q05 <= q50 <= q95")
    if np.any(var < 0.0):
        problems.append("negative variance")
    for name in job.outputs[1:]:
        path = _table(job.out_dir / name)
        if path.shape != (len(t), 2) or np.any(path[:, 1] < 0.0) or np.any(path[:, 1] > 1.0):
            problems.append(f"{name}: sample path has the wrong shape or leaves [0, 1]")
    sched = block["schedule"]
    B = sched["B_values"][0]
    dt = t[1] - t[0]
    i_sw = int(np.searchsorted(t, sched["breakpoints"][1]))
    pdf = point_mass_pdf(StateGrid(ORACLE_CELLS), block["x0"])
    samples = []  # (grid index, oracle pdf)
    for u, a, b in ((0.0, 0, i_sw), (1.0, i_sw, len(t) - 1)):
        gen = build_generator(params, u, B, n_cells=ORACLE_CELLS)
        early = [a + round(1.0 / dt), a + round(2.0 / dt)]
        transient = evolve_pdf(gen, pdf, t[early] - t[a], dt=0.01)
        pdf = evolve_pdf(gen, transient.pdfs[-1], [t[b] - t[early[-1]]], dt=0.1).pdfs[-1]
        samples += list(zip(early, transient.pdfs)) + [(b, pdf)]
    centers = StateGrid(ORACLE_CELLS).centers
    for i, pdf in samples:
        oracle = float(np.sum(pdf * centers)) / ORACLE_CELLS
        tol = 4.0 * np.sqrt(var[i] / block["n_paths"]) + MEAN_TOL
        if abs(mean[i] - oracle) > tol:
            problems.append(f"mean {mean[i]:.6f} at t={t[i]:.4f} differs from evolve_pdf {oracle:.6f} by more than {tol:.3g}")
    return problems


def check_examples(job: Job) -> list[str]:
    dts, errors = _table(job.out_dir / "ex_convergence.csv").T
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    return [] if 0.4 <= slope <= 0.6 else [f"strong-error slope {slope:.3f} outside [0.4, 0.6]"]


def _gap_oracle(params: FlexParams, u: float, B: float, n_cells: int) -> float:
    """Second-largest eigenvalue of the generator symmetrized by its stationary measure."""
    gen = build_generator(params, u, B, n_cells=n_cells)
    diag = -(gen.up + gen.down)
    off = np.sqrt(gen.up[:-1] * gen.down[1:])
    if n_cells <= DENSE_LIMIT:
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        return float(eigvalsh(dense)[-2])
    sel = (n_cells - 2, n_cells - 2)
    return float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=sel)[0])


def check_sweep(job: Job) -> list[str]:
    params = FlexParams.from_dict(job.config["params"])
    block = job.config["sweep"]
    n_cells = block["n_cells"]

    def values(spec):
        return np.linspace(spec["start"], spec["stop"], spec["count"]) if isinstance(spec, dict) else spec

    grid = [(u, B) for u in values(block["u_values"]) for B in values(block["B_values"])]
    rows = _table(job.out_dir / job.outputs[0])
    if rows.shape != (len(grid), 5) or not np.allclose(rows[:, :2], grid, rtol=0, atol=1e-12):
        return ["rows do not follow the u-major (u, B) grid"]
    problems = []
    for u, B, mean, var, gap in rows:
        if not (0.0 <= mean <= 1.0 and 0.0 <= var <= 1.0):
            problems.append(f"(u={u}, B={B}): mean or variance outside [0, 1]")
        want = _gap_oracle(params, u, B, n_cells)
        if abs(gap - want) > GAP_RTOL * abs(want):
            problems.append(f"(u={u}, B={B}): gap {gap:.10g} differs from eigensolver {want:.10g}")
    return problems


def _rows_by_time(table: np.ndarray) -> list[np.ndarray]:
    times = np.unique(table[:, 0])
    return [table[table[:, 0] == t, 2] for t in times]


def check_density(job: Job) -> list[str]:
    block = job.config["density"]
    n_cells, prefix = block["n_cells"], block["prefix"]
    h = 1.0 / n_cells
    problems = []
    series = {kind: _rows_by_time(_table(job.out_dir / f"{prefix}_{kind}.csv"))
              for kind in ("transient", "cdf") if kind in block["write"]}
    for kind, rows in series.items():
        if len(rows) != len(block["times"]):
            problems.append(f"{kind} has {len(rows)} times, not the {len(block['times'])} requested")
    pdf_rows = list(series.get("transient", []))
    if "stationary" in block["write"]:
        pdf_rows.append(_table(job.out_dir / f"{prefix}_stationary.csv")[:, 1])
    for row in pdf_rows:
        if row.shape != (n_cells,) or np.any(row < 0.0) or abs(row.sum() * h - 1.0) > MASS_TOL:
            problems.append(f"pdf row with mass {row.sum() * h:.12f} is negative, short or off unit mass")
    if "cdf" in series:
        for row in series["cdf"]:
            if row.shape != (n_cells,) or np.any(np.diff(row) < 0.0) or abs(row[-1] - 1.0) > MASS_TOL:
                problems.append(f"cdf row ending at {row[-1]:.12f} is decreasing, short or does not end at 1")
    info = json.loads((job.out_dir / f"{prefix}_info.json").read_text(encoding="utf-8"))
    if not (0.0 <= info["stationary_mean"] <= 1.0 and info["spectral_gap"] < 0.0):
        problems.append("info.json moments or spectral gap out of range")
    return problems


CHECKERS = {
    "ode": check_ode,
    "certify": check_certify,
    "ensemble": check_ensemble,
    "examples": check_examples,
    "sweep": check_sweep,
    "density": check_density,
}
