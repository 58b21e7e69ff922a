"""Seed-driven workload definitions.

Each workload is a list of CLI jobs.  The seed draws only values (starting
states, schedule levels, baselines, master seeds), never sizes, so every
seed asks for the same amount of work.  ``small=True`` shrinks the sizes
for the benchmark's own smoke test only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REF_PARAMS = {
    "C": 2.97,
    "lambda": 1.0,
    "k": 6.0,
    "alpha": [0.0, 0.25, 0.75, 0.0],
    "beta": [-0.375, -0.1875, -0.0625, -0.0625, -0.125, -0.5, -0.6875],
    "g0": 1.0,
    "sigma_x": 0.1,
}


@dataclass
class Job:
    """One CLI invocation: ``flexfunc <command> --config <cfg> --out <out>``.

    ``outputs`` are the files the job must leave in its output directory;
    ``check`` names the checker in ``checks.py`` that reads them.
    """

    name: str
    command: str
    config: dict
    outputs: list[str]
    check: str
    out_dir: Path = field(default=Path("."))
    config_path: Path = field(default=Path("."))

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config_path), "--out", str(self.out_dir)]


def _params(**overrides) -> dict:
    return dict(REF_PARAMS, **overrides)


def _round(values) -> list[float]:
    return [round(float(v), 6) for v in values]


def ode_fan(rng: np.random.Generator, small: bool) -> list[Job]:
    t_fan, t_pw = (11.88, 5.94) if small else (118.8, 59.4)
    starts = _round(np.sort(rng.uniform(0.05, 0.95, 9)))
    cuts = np.sort(rng.uniform(0.05, 0.95, 5)) * t_pw
    piecewise = {
        "breakpoints": [0.0] + _round(cuts),
        "u_values": _round(rng.uniform(0.0, 1.0, 6)),
        "B_values": _round(rng.uniform(0.2, 0.8, 6)),
    }
    jobs = [
        Job(
            "fan",
            "simulate",
            {
                "params": _params(sigma_x=0.0),
                "simulate": {
                    "mode": "ode",
                    "x0": starts,
                    "schedule": {"u": 0.5, "B": 0.4},
                    "t_end": t_fan,
                    "output": "fan.csv",
                },
            },
            [f"fan_{i:02d}.csv" for i in range(1, 10)],
            "ode",
        ),
        Job(
            "piecewise",
            "simulate",
            {
                "params": _params(sigma_x=0.0),
                "simulate": {
                    "mode": "ode",
                    "x0": starts,
                    "schedule": piecewise,
                    "t_end": t_pw,
                    "output": "pw.csv",
                },
            },
            [f"pw_{i:02d}.csv" for i in range(1, 10)],
            "ode",
        ),
    ]
    for u_star in (0.0, 1.0):
        b_star = round(float(rng.uniform(0.2, 0.8)), 6)
        jobs.append(
            Job(
                f"certify_u{int(u_star)}",
                "certify",
                {
                    "params": _params(),
                    "certify": {"u_star": u_star, "B_star": b_star, "output": "cert.json"},
                },
                ["cert.json"],
                "certify",
            )
        )
    return jobs


def mc_ensemble(rng: np.random.Generator, small: bool) -> list[Job]:
    t_step = round(float(rng.uniform(20.0, 40.0)), 6)
    baseline = round(float(rng.uniform(0.2, 0.8)), 6)
    sim_seed = int(rng.integers(0, 2**32))
    ex_seed = int(rng.integers(0, 2**32))
    n_paths = 256 if small else 4096
    conv_paths = 200 if small else 1000
    return [
        Job(
            "ensemble",
            "simulate",
            {
                "params": _params(),
                "seed": sim_seed,
                "threads": 1,
                "simulate": {
                    "mode": "sde",
                    "x0": 0.5,
                    "schedule": {
                        "breakpoints": [0.0, t_step],
                        "u_values": [0.0, 1.0],
                        "B_values": [baseline, baseline],
                    },
                    "t_end": 59.4,
                    "n_paths": n_paths,
                    "sample_paths": 8,
                    "output": "ens.csv",
                },
            },
            ["ens_summary.csv"] + [f"ens_path{i:02d}.csv" for i in range(1, 9)],
            "ensemble",
        ),
        Job(
            "examples",
            "examples",
            {
                "params": _params(),
                "seed": ex_seed,
                "examples": {
                    "systems": [
                        {"r1": 1.0, "r2": -1.2, "x0": 1.0},
                        {"r1": 1.0, "r2": 2.0, "x0": 1.0},
                    ],
                    "omega": 1.0,
                    "t_end": 1.0,
                    "n_steps": 256,
                    "mean_dt": 0.01,
                    "convergence": {"n_paths": conv_paths, "t_end": 1.0},
                    "prefix": "ex",
                },
            },
            [
                "ex_system1_mean.csv",
                "ex_system1_paths.csv",
                "ex_system2_mean.csv",
                "ex_system2_paths.csv",
                "ex_convergence.csv",
            ],
            "examples",
        ),
    ]


def gap_sweep(rng: np.random.Generator, small: bool) -> list[Job]:
    coarse, fine = (40, 200) if small else (200, 2000)
    count = 4 if small else 11
    return [
        Job(
            "sweep_fig9",
            "sweep",
            {
                "params": _params(),
                "threads": 1,
                "sweep": {
                    "u_values": {"start": 0.0, "stop": 1.0, "count": count},
                    "B_values": {"start": 0.0, "stop": 1.0, "count": count},
                    "n_cells": coarse,
                    "output": "grid.csv",
                },
            },
            ["grid.csv"],
            "sweep",
        ),
        Job(
            "sweep_fine",
            "sweep",
            {
                "params": _params(),
                "threads": 1,
                "sweep": {
                    "u_values": {"start": 0.0, "stop": 1.0, "count": 6},
                    "B_values": _round(np.sort(rng.uniform(0.1, 0.9, 3))),
                    "n_cells": fine,
                    "output": "fine.csv",
                },
            },
            ["fine.csv"],
            "sweep",
        ),
    ]


def density_transient(rng: np.random.Generator, small: bool) -> list[Job]:
    coarse, fine = (50, 100) if small else (200, 1000)
    times = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    presets = [  # the fig5, fig6 and fig7 shapes
        ("fig5", 0.2, times, ["transient", "stationary"]),
        ("fig6", 0.8, times, ["transient", "stationary"]),
        ("fig7", 0.2, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0], ["cdf"]),
    ]
    jobs = [
        Job(
            name,
            "density",
            {
                "params": _params(),
                "density": {
                    "u": u,
                    "B": 0.4,
                    "n_cells": coarse,
                    "initial": {"kind": "point", "x": 0.5},
                    "times": ts,
                    "write": write,
                    "prefix": name,
                },
            },
            [f"{name}_{w}.csv" for w in write] + [f"{name}_info.json"],
            "density",
        )
        for name, u, ts, write in presets
    ]
    write = ["transient", "cdf", "stationary"]
    jobs.append(
        Job(
            "fine",
            "density",
            {
                "params": _params(),
                "density": {
                    "u": round(float(rng.uniform(0.2, 0.8)), 6),
                    "B": round(float(rng.uniform(0.3, 0.7)), 6),
                    "n_cells": fine,
                    "initial": {"kind": "point", "x": round(float(rng.uniform(0.1, 0.9)), 6)},
                    "times": times,
                    "write": write,
                    "prefix": "fine",
                },
            },
            [f"fine_{w}.csv" for w in write] + ["fine_info.json"],
            "density",
        )
    )
    return jobs


def gap_density(rng: np.random.Generator, small: bool) -> list[Job]:
    """The generator layer used both ways: many builds each solved once
    (sweeps), then one build per job solved ~1000 times (densities)."""
    return gap_sweep(rng, small) + density_transient(rng, small)


WORKLOADS = {
    "ode_fan": ode_fan,
    "mc_ensemble": mc_ensemble,
    "gap_density": gap_density,
}


def build(name: str, seed: int, work_dir: Path, small: bool = False) -> list[Job]:
    """Generate the workload's jobs and write their configs under ``work_dir``."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    jobs = WORKLOADS[name](rng, small)
    for i, job in enumerate(jobs):
        job.config_path = work_dir / f"{i:02d}_{job.name}.json"
        job.out_dir = work_dir / f"{i:02d}_{job.name}"
        job.config_path.write_text(json.dumps(job.config, indent=1), encoding="utf-8")
    return jobs
