"""Batch command-line front end.

One JSON config file drives each run; subcommands pick the block they
need.  One table of fields checks the whole config before any output
directory is created.  All outputs are CSV (single header row, full double
precision) or JSON files under --out, deterministic given the config and
master seed and byte-identical across repeated runs.  ``--threads`` and the
"threads" key are accepted and checked so that older configs keep working;
they have no effect.

Exit codes: 0 success, 1 validation or certificate failure, 2 usage,
config or output-path error, 3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bilinear, rng
from ._csvio import write_csv
from .certificates import MIN_GRID_N
from .dynamics import Schedule, Trajectory, integrate_ode, simulate_sde
from .equilibria import CORNERS, certify_deterministic
from .generator import (
    EIGEN_MODES,
    MIN_CELLS,
    build_generator,
    density_moments,
    evolve_pdf,
    point_mass_pdf,
    spectral_gap,
    stationary_moments,
    stationary_pdf,
    write_stationary_csv,
)
from .model import FlexParams, validate
from .stability import certify_bounded, certify_stable, max_stable_noise, radius_meets_target

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Config contents (or flag combination) the CLI cannot act on."""


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"config parse error in {path}: nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


# Field parsers.  Each takes a config value and the name of its key and
# returns the checked value, or raises ConfigError naming the key.


def _number(value, name: str, kind=float, what: str = "number"):
    """``kind(value)`` for a config value that must be a JSON number a double can hold.

    Booleans and other types are a ConfigError saying ``name`` must be a
    ``what``, and so are integers past the largest double (``float`` would
    overflow) and, for ``kind=int``, fractional and non-finite values: they
    are never truncated.
    """
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    what = "number with an integer value" if kind is int else what
    if not is_number or (kind is int and value % 1 != 0):  # nan % 1 and inf % 1 are nan
        raise ConfigError(f"{name} must be a {what}, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # exact int-float comparison
        raise ConfigError(f"{name} must be within the range of a double, got {len(str(abs(value)))} digits")
    return kind(value)


def _int(value, name: str, low=-math.inf, high=math.inf) -> int:
    number = _number(value, name, int)
    if number < low:
        raise ConfigError(f"{name} must be >= {low}, got {number}")
    if number > high:
        raise ConfigError(f"{name} must be <= {high}, got {number}")
    return number


_count = functools.partial(_int, low=1)
_seed = functools.partial(_int, low=0, high=rng._U64_MAX)
_n_cells = functools.partial(_int, low=MIN_CELLS)
_grid_n = functools.partial(_int, low=MIN_GRID_N)


def _finite(value, name: str) -> float:
    number = _number(value, name)
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _interval(text: str, inside):
    """Parser for a finite number that ``inside`` accepts; ``text`` names the interval."""

    def parse(value, name: str) -> float:
        number = _finite(value, name)
        if not inside(number):
            raise ConfigError(f"{name} must be in {text}, got {value!r}")
        return number

    return parse


_unit = _interval("[0, 1]", lambda v: 0.0 <= v <= 1.0)
_theta = _interval("(0, 1)", lambda v: 0.0 < v < 1.0)
_target_radius = _interval("(0, 1]", lambda v: 0.0 < v <= 1.0)


def _corner(value, name: str) -> float:
    number = _finite(value, name)
    if number not in CORNERS:
        raise ConfigError(f"{name} must be 0 or 1 (a corner equilibrium), got {value!r}")
    return number


def _positive(value, name: str) -> float:
    number = _number(value, name, what="positive number")
    if not (math.isfinite(number) and number > 0):
        raise ConfigError(f"{name} must be a positive number, got {value!r}")
    return number


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _one_of(*choices: str):
    def parse(value, name: str) -> str:
        if not isinstance(value, str) or value not in choices:
            options = " or ".join(f'"{c}"' for c in choices)
            raise ConfigError(f"{name} must be {options}, got {value!r}")
        return value

    return parse


def _list(item, nonempty: bool = False, what: str = "numbers"):
    def parse(value, name: str) -> list:
        if not isinstance(value, list) or (nonempty and not value):
            kind = "nonempty list" if nonempty else "list"
            raise ConfigError(f"{name} must be a {kind} of {what}, got {value!r}")
        return [item(v, f"{name}[{i}]") for i, v in enumerate(value)]

    return parse


_REQUIRED = object()  # field default: the key must be present


def _object(fields: dict, build=dict):
    """Parser for a JSON object with no keys but those of ``fields``.

    ``fields`` maps each key to ``(parser, default)``.  An absent key takes
    its default, parsed like a given value; a default of None stays None.
    The parser returns ``build(**checked)``, with every key of ``fields``.
    """

    def parse(value, name: str) -> dict:
        where = name or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object, got {value!r}")
        unknown = set(value) - set(fields)
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
        prefix = name.replace('"', "") + " " if name else ""
        out = {}
        for key, (parser, default) in fields.items():
            if key in value:
                out[key] = parser(value[key], f'{prefix}"{key}"')
            elif default is _REQUIRED:
                raise ConfigError(f'{where} needs "{key}"')
            else:
                out[key] = None if default is None else parser(default, f'{prefix}"{key}"')
        return build(**out)

    return parse


# params entries are numbers, finite or not: a NaN is for validate to report (exit 1).
_PARAM_FIELDS = _object({
    **{key: (_number, None) for key in ("C", "lambda", "k", "g0", "sigma_x")},
    "alpha": (_list(_number), None),
    "beta": (_list(_number), None),
    "basis": (_object({
        "order": (_int, None),
        "basis_count": (_int, None),
        "knots": (_list(_number), None),
        "interior_knots": (_list(_number), None),
    }), None),
})


def _params(value, name: str) -> FlexParams:
    params = {key: v for key, v in _PARAM_FIELDS(value, name).items() if v is not None}
    if "basis" in params:  # absent keys take the library defaults
        params["basis"] = {key: v for key, v in params["basis"].items() if v is not None}
    try:
        return FlexParams.from_dict(params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params block: {exc}") from exc


_floats = _list(_finite, nonempty=True)
_units = _list(_unit, nonempty=True)


def _x0(value, name: str) -> list[float]:
    """One start, or a nonempty list of starts."""
    return _units(value, name) if isinstance(value, list) else [_unit(value, name)]


_CONSTANT = _object({"u": (_finite, _REQUIRED), "B": (_finite, _REQUIRED)}, Schedule.constant)
_PIECEWISE = _object(
    {key: (_floats, _REQUIRED) for key in ("breakpoints", "u_values", "B_values")}, Schedule
)


def _schedule(value, name: str) -> Schedule:
    """Constant ``u``/``B``, or a ``breakpoints``/``u_values``/``B_values`` triple."""
    piecewise = isinstance(value, dict) and "breakpoints" in value
    return (_PIECEWISE if piecewise else _CONSTANT)(value, name)


_RANGE = _object(
    {"start": (_finite, _REQUIRED), "stop": (_finite, _REQUIRED), "count": (_count, _REQUIRED)}
)


def _sweep_values(value, name: str) -> list[float]:
    """A nonempty list of values in [0, 1], or a start/stop/count range."""
    if isinstance(value, dict):
        spec = _RANGE(value, name)
        value = np.linspace(spec["start"], spec["stop"], spec["count"]).tolist()
    return _units(value, name)


def _simulate(**block) -> dict:
    if block["mode"] == "sde":
        if block["n_paths"] is None:
            raise ConfigError('sde mode needs "n_paths"')
        if len(block["x0"]) != 1:
            raise ConfigError("sde mode takes a single x0")
        if not 0 <= block["sample_paths"] <= block["n_paths"]:
            raise ConfigError("sample_paths must be between 0 and n_paths")
    return block


def _density(**block) -> dict:
    if block["times"] is None and {"transient", "cdf"} & set(block["write"]):
        raise ConfigError('density block needs a nonempty "times" list for transient output')
    return block


_SIMULATE = _object({
    "mode": (_one_of("ode", "sde"), _REQUIRED),
    "x0": (_x0, 0.5),
    "schedule": (_schedule, _REQUIRED),
    "dt": (_positive, None),
    "t_end": (_positive, None),
    "n_paths": (_count, None),
    "sample_paths": (_int, 0),
    "output": (_text, "simulate.csv"),
}, _simulate)
_EIGEN_MODE = _one_of(*EIGEN_MODES)
_DENSITY = _object({
    "u": (_unit, _REQUIRED),
    "B": (_unit, _REQUIRED),
    "n_cells": (_n_cells, 200),
    "initial": (_object({"kind": (_one_of("point", "uniform"), _REQUIRED), "x": (_unit, 0.5)}),
                {"kind": "point"}),
    "times": (_floats, None),
    "dt": (_positive, None),
    "write": (_list(_one_of("transient", "cdf", "stationary"), what="names"),
              ["transient", "stationary"]),
    "prefix": (_text, "density"),
    "eigen_mode": (_EIGEN_MODE, "slowest"),
}, _density)
_SWEEP = _object({
    "u_values": (_sweep_values, _REQUIRED),
    "B_values": (_sweep_values, _REQUIRED),
    "n_cells": (_n_cells, 200),
    "output": (_text, "sweep.csv"),
    "eigen_mode": (_EIGEN_MODE, "slowest"),
})
_CERTIFY = _object({
    "u_star": (_corner, _REQUIRED),
    "B_star": (_unit, _REQUIRED),
    "theta": (_theta, 0.5),
    "target_radius": (_target_radius, 1.0),
    "grid_n": (_grid_n, 2001),
    "output": (_text, "certificates.json"),
})
_SYSTEM = _object(
    {"r1": (_finite, 1.0), "r2": (_finite, -1.2), "x0": (_finite, 1.0)}, bilinear.BilinearParams
)
_EXAMPLES = _object({
    "systems": (_list(_SYSTEM, nonempty=True, what="objects"),
                [{"r1": 1.0, "r2": -1.2, "x0": 1.0}, {"r1": 1.0, "r2": 2.0, "x0": 1.0}]),
    "omega": (_finite, 1.0),
    "t_end": (_positive, 1.0),
    "n_steps": (_count, 256),
    "mean_dt": (_positive, 0.01),
    "convergence": (_object({
        "dts": (_list(_positive, nonempty=True), list(bilinear._DEFAULT_DTS)),
        "n_paths": (_count, 1000),
        "t_end": (_positive, 1.0),
    }), {}),
    "prefix": (_text, "examples"),
})
_CONFIG = _object({
    "params": (_params, _REQUIRED),
    "seed": (_seed, 1234),
    "threads": (_count, 1),
    "simulate": (_SIMULATE, None),
    "density": (_DENSITY, None),
    "sweep": (_SWEEP, None),
    "certify": (_CERTIFY, None),
    "examples": (_EXAMPLES, None),
})


def _read_config(args) -> dict:
    """The checked config, with each flag of ``args`` in place of its key."""
    cfg = _load_config(args.config)
    if args.command != "validate" and args.command not in cfg:
        raise ConfigError(f'config must contain a "{args.command}" block for this command')
    # A flag replaces its key before the checks, so the two follow one rule.
    block = cfg.get(args.command)
    flags = [(block, key, getattr(args, key, None)) for key in ("mode", "eigen_mode")]
    flags += [(cfg, "seed", args.seed), (cfg, "threads", args.threads)]
    for where, key, value in flags:
        if value is not None and isinstance(where, dict):
            if key in where and where[key] != value:
                flag = key.replace("_", "-")
                print(f"flag --{flag}={value} overrides config {key}={where[key]}", file=sys.stderr)
            where[key] = value
    return _CONFIG(cfg, "")


def _require_valid(params: FlexParams) -> bool:
    """Print violations (exit-1 contract) and report whether params are usable."""
    rep = validate(params)
    for msg in rep.violations:
        print(msg, file=sys.stderr)
    return rep.ok


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(cfg: dict, out: str) -> int:
    rep = validate(cfg["params"])
    for msg in rep.violations:
        print(msg)
    for msg in rep.warnings:
        print(f"warning: {msg}")
    if rep.ok:
        print("valid")
        return EXIT_OK
    return EXIT_FAIL


def cmd_simulate(cfg: dict, out: str) -> int:
    params, block = cfg["params"], cfg["simulate"]
    x0_list, schedule, dt, t_end = block["x0"], block["schedule"], block["dt"], block["t_end"]
    stem = block["output"].removesuffix(".csv")

    if block["mode"] == "ode":
        trajs = [integrate_ode(params, x0, schedule, dt=dt, t_end=t_end) for x0 in x0_list]
        out = _out_dir(out)
        for i, traj in enumerate(trajs, start=1):
            traj.to_csv(out / (block["output"] if len(trajs) == 1 else f"{stem}_{i:02d}.csv"))
        print(f"wrote {len(trajs)} trajectory file(s) to {out}")
        return EXIT_OK

    ens = simulate_sde(
        params, x0_list[0], schedule, block["n_paths"], master_seed=cfg["seed"], dt=dt,
        t_end=t_end, keep=block["sample_paths"],
    )
    out = _out_dir(out)
    ens.to_csv(out / f"{stem}_summary.csv")
    for i, path in enumerate(ens.states, start=1):
        Trajectory(ens.times, path).to_csv(out / f"{stem}_path{i:02d}.csv")
    print(f"wrote ensemble summary and {len(ens.states)} sample path(s) to {out}")
    print(f"pre-clamp state range: min={ens.pre_clamp_min!r} max={ens.pre_clamp_max!r}")
    return EXIT_OK


def cmd_density(cfg: dict, out: str) -> int:
    params, block = cfg["params"], cfg["density"]
    prefix, write, initial = block["prefix"], block["write"], block["initial"]

    gen = build_generator(params, block["u"], block["B"], n_cells=block["n_cells"])
    point = initial["kind"] == "point"
    pdf0 = point_mass_pdf(gen.grid, initial["x"]) if point else np.full(gen.n_cells, 1.0)
    if "transient" in write or "cdf" in write:
        series = evolve_pdf(gen, pdf0, block["times"], dt=block["dt"])
    pdf_inf = stationary_pdf(gen)
    mean, var = density_moments(gen.grid, pdf_inf)
    info = {
        "u": block["u"], "B": block["B"], "n_cells": block["n_cells"],
        "stationary_mean": mean, "stationary_var": var,
        "stationary_mode": float(gen.grid.centers[int(np.argmax(pdf_inf))]),
        "eigen_mode": block["eigen_mode"],
        "spectral_gap": spectral_gap(gen, mode=block["eigen_mode"]),
    }

    out = _out_dir(out)
    if "transient" in write:
        series.to_csv(out / f"{prefix}_transient.csv")
    if "cdf" in write:
        series.cumulative().to_csv(out / f"{prefix}_cdf.csv", value_label="cdf")
    if "stationary" in write:
        write_stationary_csv(out / f"{prefix}_stationary.csv", gen.grid, pdf_inf)
    (out / f"{prefix}_info.json").write_text(json.dumps(info, indent=2) + "\n", encoding="utf-8")
    print(f"wrote density outputs ({', '.join(write)}) and {prefix}_info.json to {out}")
    return EXIT_OK


def cmd_sweep(cfg: dict, out: str) -> int:
    params, block = cfg["params"], cfg["sweep"]
    n_cells, mode = block["n_cells"], block["eigen_mode"]

    rows = []
    for u in block["u_values"]:  # u-major row order
        for B in block["B_values"]:
            gen = build_generator(params, u, B, n_cells=n_cells)
            rows.append((u, B, *stationary_moments(gen), spectral_gap(gen, mode=mode)))
    path = _out_dir(out) / block["output"]
    write_csv(path, "u,B,mean,var,gap", zip(*rows))
    print(f"wrote {len(rows)} sweep rows to {path}")
    return EXIT_OK


def cmd_certify(cfg: dict, out: str) -> int:
    params, block = cfg["params"], cfg["certify"]
    u_star, B_star, theta = block["u_star"], block["B_star"], block["theta"]
    target_radius, grid_n = block["target_radius"], block["grid_n"]

    certs = [
        certify_deterministic(params, u_star, B_star),
        certify_bounded(params, u_star, B_star, grid_n=grid_n),
        certify_stable(params, u_star, B_star, theta=theta, grid_n=grid_n),
    ]
    radius = certs[2].threshold  # 0 when B* is 0 or 1
    sigma_max = None
    if 0.0 < B_star < 1.0:
        sigma_max = max_stable_noise(params, u_star, B_star, target_radius, theta, grid_n=grid_n)
    radius_ok = radius_meets_target(radius, target_radius)
    overall = all(c.passed for c in certs) and radius_ok

    doc = {c.claim: c.to_json_dict() for c in certs} | {
        "theta": theta, "target_radius": target_radius, "stable_radius": radius,
        "radius_meets_target": radius_ok, "sigma_max": sigma_max, "overall_pass": overall,
    }
    (_out_dir(out) / block["output"]).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    for c in certs:
        state = "pass" if c.passed else "FAIL"
        extra = " (degenerate)" if c.degenerate else ""
        print(f"{c.claim}: {state}{extra} margin={c.margin!r}")
        if c.failures:  # only a failed claim has intervals where its inequality fails
            print(f"{c.claim} fails on " + ", ".join(f"[{a!r}, {b!r}]" for a, b in c.failures))
    verdict = "pass" if radius_ok else "FAIL"
    print(f"stable radius {radius!r} vs target {target_radius!r}: {verdict}")
    return EXIT_OK if overall else EXIT_FAIL


def cmd_examples(cfg: dict, out: str) -> int:
    block, seed = cfg["examples"], cfg["seed"]
    toys, t_end, prefix = block["systems"], block["t_end"], block["prefix"]
    conv = block["convergence"]
    study = bilinear.strong_convergence_study(
        toys[0], dts=conv["dts"], n_paths=conv["n_paths"], master_seed=seed, t_end=conv["t_end"]
    )
    systems = [
        (bilinear.mean_ode(bp, block["omega"], block["mean_dt"], t_end),
         bilinear.demo_paths(bp, t_end, block["n_steps"], (seed + i) % (rng._U64_MAX + 1)))
        for i, bp in enumerate(toys, start=1)
    ]
    out = _out_dir(out)

    for i, (mean, paths) in enumerate(systems, start=1):
        mean.to_csv(out / f"{prefix}_system{i}_mean.csv")
        bilinear.write_paths_csv(out / f"{prefix}_system{i}_paths.csv", *paths)
    study.to_csv(out / f"{prefix}_convergence.csv")
    print(f"wrote {len(toys)} system(s) and convergence table to {out}")
    print(f"strong-error slope: {study.slope!r}")
    return EXIT_OK


@functools.cache  # parse_args leaves the parser unchanged; build it once per process
def build_parser() -> argparse.ArgumentParser:
    description = "Simulation and stability analysis of the flexibility function."
    parser = argparse.ArgumentParser(prog="flexfunc", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler, help_text in (
        ("validate", cmd_validate, "check a parameter set"),
        ("simulate", cmd_simulate, "integrate trajectories or SDE ensembles"),
        ("density", cmd_density, "transient and stationary state distributions"),
        ("sweep", cmd_sweep, "stationary moments and spectral gap over a (u, B) grid"),
        ("certify", cmd_certify, "deterministic and stochastic stability certificates"),
        ("examples", cmd_examples, "bilinear toy system and integrator convergence study"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--threads", type=int, help="accepted for older scripts; no effect")
        if command == "simulate":
            p.add_argument("--mode", choices=("ode", "sde"), help="integrator family")
        if command in ("density", "sweep"):
            p.add_argument("--eigen-mode", choices=EIGEN_MODES)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _read_config(args)
        # validate reports on the params itself; the toy systems of examples ignore them
        if args.command not in ("validate", "examples") and not _require_valid(cfg["params"]):
            return EXIT_FAIL
        return args.handler(cfg, args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
