"""Batch command-line front end.

One JSON config file drives each run; subcommands pick the block they
need.  All outputs are CSV (single header row, full double precision) or
JSON files under --out, deterministic given the config and master seed
and byte-identical across repeated runs.  ``--threads`` and the "threads"
key are accepted and checked so that older configs keep working; they have
no effect.

Exit codes: 0 success, 1 validation or certificate failure, 2 usage or
config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bilinear
from ._csvio import write_csv
from .dynamics import Schedule, Trajectory, integrate_ode, simulate_sde
from .equilibria import certify_deterministic
from .generator import (
    build_generator,
    evolve_pdf,
    point_mass_pdf,
    spectral_gap,
    stationary_moments,
    stationary_pdf,
    write_stationary_csv,
)
from .model import FlexParams, validate
from .stability import certify_bounded, certify_stable, max_stable_noise, min_drift_gain, stable_radius

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_TOP_KEYS = {"params", "seed", "threads", "simulate", "density", "sweep", "certify", "examples"}


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
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    if "params" not in cfg:
        raise ConfigError('config must contain a "params" object')
    return cfg


# Numeric entries of the params block and of its "basis" block: JSON numbers
# (float or int) or lists of them (list).
_PARAM_NUMBERS = {
    "C": float, "lambda": float, "k": float, "g0": float, "sigma_x": float, "alpha": list, "beta": list
}
_BASIS_NUMBERS = {"order": int, "basis_count": int, "knots": list, "interior_knots": list}


def _config_params(cfg: dict) -> FlexParams:
    params = _numeric_block(cfg["params"], "params", _PARAM_NUMBERS)
    if "basis" in params:
        params["basis"] = _numeric_block(params["basis"], "params basis", _BASIS_NUMBERS)
    try:
        return FlexParams.from_dict(params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params block: {exc}") from exc


def _numeric_block(block, where: str, kinds: dict) -> dict:
    """Copy of the config object ``block`` with each key of ``kinds`` that it
    holds checked by :func:`_numbers` (kind ``list``) or :func:`_number`."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    out = dict(block)
    for key, kind in kinds.items():
        if key in block:
            name = f'{where} "{key}"'
            value = block[key]
            out[key] = _numbers(value, name) if kind is list else _number(value, name, kind)
    return out


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _block(cfg: dict, name: str, allowed: set[str]) -> dict:
    if name not in cfg:
        raise ConfigError(f'config must contain a "{name}" block for this command')
    block = cfg[name]
    _check_keys(block, allowed, f'"{name}" block')
    return block


def _require_valid(params: FlexParams) -> bool:
    """Print violations (exit-1 contract) and report whether params are usable."""
    rep = validate(params)
    for msg in rep.violations:
        print(msg, file=sys.stderr)
    return rep.ok


def _override(args_value, cfg: dict, key: str, default):
    """Flag wins over config; overrides are logged to stderr."""
    if args_value is not None:
        if key in cfg and cfg[key] != args_value:
            print(f"flag --{key}={args_value} overrides config {key}={cfg[key]}", file=sys.stderr)
        return args_value
    return cfg.get(key, default)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _stem(name: str) -> str:
    return name[:-4] if name.endswith(".csv") else name


def _positive(block: dict, key: str, where: str):
    """Optional positive finite number ``block[key]``; None when absent."""
    value = block.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        math.isfinite(value) and value > 0
    ):
        raise ConfigError(f'{where} "{key}" must be a positive number, got {value!r}')
    return value


def _number(value, name: str, kind=float):
    """``kind(value)`` for a config value that must be a JSON number.

    Booleans and other types are a ConfigError, and so, for ``kind=int``,
    are fractional and non-finite values: they are never truncated.
    """
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not is_number or (kind is int and value % 1 != 0):  # nan % 1 and inf % 1 are nan
        what = "number with an integer value" if kind is int else "number"
        raise ConfigError(f"{name} must be a {what}, got {value!r}")
    return kind(value)


def _numbers(values, name: str, kind=float) -> list:
    """Each entry of the config list ``values`` through :func:`_number`."""
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return [_number(v, f"{name}[{i}]", kind) for i, v in enumerate(values)]


def _check_threads(args, cfg: dict) -> None:
    """``threads`` has no effect but must still be an integer >= 1."""
    threads = _number(_override(args.threads, cfg, "threads", 1), '"threads"', int)
    if threads < 1:
        raise ConfigError(f'"threads" must be >= 1, got {threads}')


def _schedule_from(block: dict) -> Schedule:
    sched = block.get("schedule")
    if sched is None:
        raise ConfigError('simulate block needs a "schedule" object')
    _check_keys(sched, {"u", "B", "breakpoints", "u_values", "B_values"}, '"schedule"')
    if "breakpoints" in sched:
        for key in ("u_values", "B_values"):
            if key not in sched:
                raise ConfigError(f'piecewise schedule needs "{key}"')
        return Schedule(
            breakpoints=_numbers(sched["breakpoints"], 'schedule "breakpoints"'),
            u_values=_numbers(sched["u_values"], 'schedule "u_values"'),
            B_values=_numbers(sched["B_values"], 'schedule "B_values"'),
        )
    if "u" not in sched or "B" not in sched:
        raise ConfigError('schedule needs either constant "u"/"B" or a piecewise triple')
    return Schedule.constant(
        _number(sched["u"], 'schedule "u"'), _number(sched["B"], 'schedule "B"')
    )


def _grid_values(spec, where: str) -> list[float]:
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{where} must not be empty")
        return _numbers(spec, where)
    if isinstance(spec, dict):
        _check_keys(spec, {"start", "stop", "count"}, where)
        try:
            count = _number(spec["count"], f'{where} "count"', int)
            start = _number(spec["start"], f'{where} "start"')
            stop = _number(spec["stop"], f'{where} "stop"')
        except KeyError as exc:
            raise ConfigError(f"{where} needs start/stop/count") from exc
        if count < 1:
            raise ConfigError(f"{where} count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    raise ConfigError(f"{where} must be a list or a start/stop/count object")


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    params = _config_params(cfg)
    rep = validate(params)
    for msg in rep.violations:
        print(msg)
    for msg in rep.warnings:
        print(f"warning: {msg}")
    if rep.ok:
        print("valid")
        return EXIT_OK
    return EXIT_FAIL


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    params = _config_params(cfg)
    if not _require_valid(params):
        return EXIT_FAIL
    block = _block(
        cfg,
        "simulate",
        {"mode", "x0", "schedule", "dt", "t_end", "n_paths", "sample_paths", "output"},
    )
    mode = _override(args.mode, block, "mode", None)
    if mode not in ("ode", "sde"):
        raise ConfigError(f'simulate mode must be "ode" or "sde", got {mode!r}')
    schedule = _schedule_from(block)
    dt = _positive(block, "dt", "simulate block")
    t_end = _positive(block, "t_end", "simulate block")
    output = block.get("output", "simulate.csv")
    out = _out_dir(args)
    seed = _number(_override(args.seed, cfg, "seed", 1234), '"seed"', int)
    _check_threads(args, cfg)

    x0_spec = block.get("x0", 0.5)
    if isinstance(x0_spec, list):
        x0_list = _numbers(x0_spec, 'simulate "x0"')
    else:
        x0_list = [_number(x0_spec, 'simulate "x0"')]
    if not x0_list:
        raise ConfigError("x0 list must not be empty")

    if mode == "ode":
        files = []
        for i, x0 in enumerate(x0_list, start=1):
            name = output if len(x0_list) == 1 else f"{_stem(output)}_{i:02d}.csv"
            traj = integrate_ode(params, x0, schedule, dt=dt, t_end=t_end)
            traj.to_csv(out / name)
            files.append(name)
        print(f"wrote {len(files)} trajectory file(s) to {out}")
        return EXIT_OK

    n_paths = _number(block.get("n_paths"), 'simulate "n_paths"', int)
    if n_paths < 1:
        raise ConfigError(f"sde mode needs integer n_paths >= 1, got {n_paths!r}")
    if len(x0_list) != 1:
        raise ConfigError("sde mode takes a single x0")
    sample = _number(block.get("sample_paths", 0), 'simulate "sample_paths"', int)
    if sample < 0 or sample > n_paths:
        raise ConfigError("sample_paths must be between 0 and n_paths")
    ens = simulate_sde(params, x0_list[0], schedule, n_paths, master_seed=seed, dt=dt, t_end=t_end)
    ens.to_csv(out / f"{_stem(output)}_summary.csv")
    for i in range(sample):
        path = Trajectory(times=ens.times, states=ens.states[i])
        path.to_csv(out / f"{_stem(output)}_path{i + 1:02d}.csv")
    print(f"wrote ensemble summary and {sample} sample path(s) to {out}")
    return EXIT_OK


def cmd_density(args) -> int:
    cfg = _load_config(args.config)
    params = _config_params(cfg)
    if not _require_valid(params):
        return EXIT_FAIL
    block = _block(
        cfg,
        "density",
        {"u", "B", "n_cells", "initial", "times", "dt", "write", "prefix", "eigen_mode"},
    )
    for key in ("u", "B"):
        if key not in block:
            raise ConfigError(f'density block needs "{key}"')
    u = _number(block["u"], 'density "u"')
    B = _number(block["B"], 'density "B"')
    n_cells = _number(block.get("n_cells", 200), 'density "n_cells"', int)
    prefix = block.get("prefix", "density")
    write = block.get("write", ["transient", "stationary"])
    if not isinstance(write, list) or set(write) - {"transient", "cdf", "stationary"}:
        raise ConfigError('density "write" must be a list drawn from transient/cdf/stationary')
    eigen_mode = _override(args.eigen_mode, block, "eigen_mode", "slowest")
    out = _out_dir(args)

    gen = build_generator(params, u, B, n_cells=n_cells)

    initial = block.get("initial", {"kind": "point", "x": 0.5})
    _check_keys(initial, {"kind", "x"}, '"initial"')
    kind = initial.get("kind")
    if kind == "point":
        pdf0 = point_mass_pdf(gen.grid, _number(initial.get("x", 0.5), 'initial "x"'))
    elif kind == "uniform":
        pdf0 = np.full(n_cells, 1.0)
    else:
        raise ConfigError(f'initial kind must be "point" or "uniform", got {kind!r}')

    if "transient" in write or "cdf" in write:
        times = block.get("times")
        if not isinstance(times, list) or not times:
            raise ConfigError('density block needs a nonempty "times" list for transient output')
        times = _numbers(times, 'density "times"')
        series = evolve_pdf(gen, pdf0, times, dt=_positive(block, "dt", "density block"))
        if "transient" in write:
            series.to_csv(out / f"{prefix}_transient.csv")
        if "cdf" in write:
            series.cumulative().to_csv(out / f"{prefix}_cdf.csv", value_label="cdf")

    pdf_inf = stationary_pdf(gen)
    if "stationary" in write:
        write_stationary_csv(out / f"{prefix}_stationary.csv", gen.grid, pdf_inf)

    mean, var = stationary_moments(gen)
    info = {
        "u": u,
        "B": B,
        "n_cells": n_cells,
        "stationary_mean": mean,
        "stationary_var": var,
        "stationary_mode": float(gen.grid.centers[int(np.argmax(pdf_inf))]),
        "eigen_mode": eigen_mode,
        "spectral_gap": spectral_gap(gen, mode=eigen_mode),
    }
    (out / f"{prefix}_info.json").write_text(json.dumps(info, indent=2) + "\n", encoding="utf-8")
    print(f"wrote density outputs ({', '.join(write)}) and {prefix}_info.json to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    params = _config_params(cfg)
    if not _require_valid(params):
        return EXIT_FAIL
    block = _block(cfg, "sweep", {"u_values", "B_values", "n_cells", "output", "eigen_mode"})
    for key in ("u_values", "B_values"):
        if key not in block:
            raise ConfigError(f'sweep block needs "{key}"')
    us = _grid_values(block["u_values"], "u_values")
    bs = _grid_values(block["B_values"], "B_values")
    n_cells = _number(block.get("n_cells", 200), 'sweep "n_cells"', int)
    eigen_mode = _override(args.eigen_mode, block, "eigen_mode", "slowest")
    output = block.get("output", "sweep.csv")
    _check_threads(args, cfg)
    out = _out_dir(args)

    rows = []
    for u in us:  # u-major row order
        for B in bs:
            gen = build_generator(params, u, B, n_cells=n_cells)
            rows.append((u, B, *stationary_moments(gen), spectral_gap(gen, mode=eigen_mode)))
    write_csv(out / output, "u,B,mean,var,gap", zip(*rows))
    print(f"wrote {len(rows)} sweep rows to {out / output}")
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _load_config(args.config)
    params = _config_params(cfg)
    if not _require_valid(params):
        return EXIT_FAIL
    block = _block(
        cfg, "certify", {"u_star", "B_star", "theta", "target_radius", "grid_n", "output"}
    )
    for key in ("u_star", "B_star"):
        if key not in block:
            raise ConfigError(f'certify block needs "{key}"')
    u_star = _number(block["u_star"], 'certify "u_star"')
    B_star = _number(block["B_star"], 'certify "B_star"')
    theta = _number(block.get("theta", 0.5), 'certify "theta"')
    target_radius = _number(block.get("target_radius", 1.0), 'certify "target_radius"')
    grid_n = _number(block.get("grid_n", 2001), 'certify "grid_n"', int)
    output = block.get("output", "certificates.json")
    out = _out_dir(args)

    certs = [
        certify_deterministic(params, u_star, B_star, grid_n=grid_n),
        certify_bounded(params, u_star, B_star, grid_n=grid_n),
        certify_stable(params, u_star, B_star, theta=theta, grid_n=grid_n),
    ]
    eta1 = min_drift_gain(params, B_star)
    radius = stable_radius(params, B_star, theta) if eta1 > 0.0 else 0.0
    sigma_max = (
        max_stable_noise(params, u_star, B_star, target_radius=target_radius, theta=theta)
        if eta1 > 0.0
        else None
    )
    radius_ok = radius >= target_radius - 1e-12
    overall = all(c.passed for c in certs) and radius_ok

    doc = {c.claim: c.to_json_dict() for c in certs}
    doc.update(
        {
            "theta": theta,
            "target_radius": target_radius,
            "stable_radius": radius,
            "radius_meets_target": radius_ok,
            "sigma_max": sigma_max,
            "overall_pass": overall,
        }
    )
    (out / output).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    for c in certs:
        state = "pass" if c.passed else "FAIL"
        extra = " (degenerate)" if c.degenerate else ""
        print(f"{c.claim}: {state}{extra} margin={c.margin!r}")
    print(f"stable radius {radius!r} vs target {target_radius!r}: "
          f"{'pass' if radius_ok else 'FAIL'}")
    return EXIT_OK if overall else EXIT_FAIL


def cmd_examples(args) -> int:
    cfg = _load_config(args.config)
    _config_params(cfg)  # params must parse even though the toy system ignores them
    block = _block(
        cfg,
        "examples",
        {"systems", "omega", "t_end", "n_steps", "mean_dt", "convergence", "prefix"},
    )
    systems = block.get(
        "systems",
        [{"r1": 1.0, "r2": -1.2, "x0": 1.0}, {"r1": 1.0, "r2": 2.0, "x0": 1.0}],
    )
    if not isinstance(systems, list) or not systems:
        raise ConfigError('"systems" must be a nonempty list')
    omega = _number(block.get("omega", 1.0), 'examples "omega"')
    t_end = _number(block.get("t_end", 1.0), 'examples "t_end"')
    n_steps = _number(block.get("n_steps", 256), 'examples "n_steps"', int)
    mean_dt = _number(block.get("mean_dt", 0.01), 'examples "mean_dt"')
    prefix = block.get("prefix", "examples")
    seed = _number(_override(args.seed, cfg, "seed", 1234), '"seed"', int)
    out = _out_dir(args)

    toys = []
    for i, sys_spec in enumerate(systems):
        where = f"systems[{i}]"
        _check_keys(sys_spec, {"r1", "r2", "x0"}, where)
        toys.append(
            bilinear.BilinearParams(
                r1=_number(sys_spec.get("r1", 1.0), f'{where} "r1"'),
                r2=_number(sys_spec.get("r2", -1.2), f'{where} "r2"'),
                x0=_number(sys_spec.get("x0", 1.0), f'{where} "x0"'),
            )
        )
    for i, bp in enumerate(toys, start=1):
        bilinear.mean_ode(bp, omega, mean_dt, t_end).to_csv(out / f"{prefix}_system{i}_mean.csv")
        times, x_em, x_exact = bilinear.demo_paths(bp, t_end, n_steps, master_seed=seed + i)
        bilinear.write_paths_csv(out / f"{prefix}_system{i}_paths.csv", times, x_em, x_exact)

    conv = block.get("convergence", {})
    _check_keys(conv, {"dts", "n_paths", "t_end"}, '"convergence"')
    study = bilinear.strong_convergence_study(
        toys[0],
        dts=_numbers(conv["dts"], 'convergence "dts"') if "dts" in conv else bilinear._DEFAULT_DTS,
        n_paths=_number(conv.get("n_paths", 1000), 'convergence "n_paths"', int),
        master_seed=seed,
        t_end=_number(conv.get("t_end", 1.0), 'convergence "t_end"'),
    )
    study.to_csv(out / f"{prefix}_convergence.csv")
    print(f"wrote {len(systems)} system(s) and convergence table to {out}")
    print(f"strong-error slope: {study.slope!r}")
    return EXIT_OK


@functools.cache  # parse_args leaves the parser unchanged; build it once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexfunc",
        description="Simulation and stability analysis of the flexibility function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--threads", type=int, default=None, help="accepted for older scripts; no effect"
        )

    p = sub.add_parser("validate", help="check a parameter set")
    common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("simulate", help="integrate trajectories or SDE ensembles")
    common(p)
    p.add_argument("--mode", choices=("ode", "sde"), default=None, help="integrator family")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("density", help="transient and stationary state distributions")
    common(p)
    p.add_argument("--eigen-mode", choices=("slowest", "fastest"), default=None)
    p.set_defaults(handler=cmd_density)

    p = sub.add_parser("sweep", help="stationary moments and spectral gap over a (u, B) grid")
    common(p)
    p.add_argument("--eigen-mode", choices=("slowest", "fastest"), default=None)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("certify", help="deterministic and stochastic stability certificates")
    common(p)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("examples", help="bilinear toy system and integrator convergence study")
    common(p)
    p.set_defaults(handler=cmd_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be a nonnegative integer", file=sys.stderr)
        return EXIT_USAGE
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
