"""End-to-end checks of the batch CLI: exit codes, file contracts, determinism."""

import ast
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexfunc import stability
from flexfunc._csvio import write_csv
from flexfunc.cli import ConfigError, _number, main
from flexfunc.model import FlexParams

REF_PARAMS = {
    "C": 2.97,
    "lambda": 1.0,
    "k": 6.0,
    "alpha": [0.0, 0.25, 0.75, 0.0],
    "beta": [-0.375, -0.1875, -0.0625, -0.0625, -0.125, -0.5, -0.6875],
    "g0": 1.0,
    "sigma_x": 0.1,
}

BAD_PARAMS = dict(REF_PARAMS, alpha=[0.0, 2.0, 0.0, 0.0])


def cfg_file(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body, indent=1), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_validate_ok_with_boundary_warning(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS})
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert "warning:" in out  # lambda = 1 sits on the admissible boundary


def test_validate_reports_violations(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"params": BAD_PARAMS})
    assert main(["validate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "alpha" in out
    assert "valid" not in out.splitlines()


def test_missing_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n"params": }\n}', encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2 column" in err


def test_config_root_must_be_an_object(tmp_path, capsys):
    assert main(["validate", "--config", cfg_file(tmp_path, [])]) == 2
    assert "config root must be a JSON object" in capsys.readouterr().err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, "bogus": 1})
    assert main(["validate", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


def test_unknown_block_key_rejected(tmp_path, capsys):
    body = {
        "params": REF_PARAMS,
        "simulate": {
            "mode": "ode",
            "x0": 0.5,
            "schedule": {"u": 0.5, "B": 0.4},
            "t_end": 1.0,
            "typo_key": True,
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_missing_command_block(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert '"simulate" block' in capsys.readouterr().err


def test_simulate_ode_multiple_x0(tmp_path):
    body = {
        "params": REF_PARAMS,
        "simulate": {
            "mode": "ode",
            "x0": [0.2, 0.8],
            "schedule": {"u": 0.5, "B": 0.4},
            "t_end": 1.0,
            "output": "tr.csv",
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    for i, x0 in ((1, 0.2), (2, 0.8)):
        header, rows = read_rows(tmp_path / f"tr_{i:02d}.csv")
        assert header == "t,x,d"
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == x0
        # repr round trip keeps full precision
        assert rows[-1][1] == repr(float(rows[-1][1]))


def test_simulate_ode_single_x0_keeps_name(tmp_path):
    body = {
        "params": REF_PARAMS,
        "simulate": {
            "mode": "ode",
            "x0": 0.5,
            "schedule": {"u": 0.5, "B": 0.4},
            "t_end": 1.0,
            "output": "solo.csv",
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "solo.csv").exists()
    assert not (tmp_path / "solo_01.csv").exists()


def test_simulate_sde_outputs(tmp_path):
    body = {
        "params": REF_PARAMS,
        "seed": 5,
        "simulate": {
            "mode": "sde",
            "x0": 0.5,
            "schedule": {"u": 0.5, "B": 0.4},
            "t_end": 0.3,
            "n_paths": 8,
            "sample_paths": 3,
            "output": "ens.csv",
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "ens_summary.csv")
    assert header == "t,mean,var,q05,q50,q95"
    assert all(len(r) == 6 for r in rows)
    for i in (1, 2, 3):
        header, _ = read_rows(tmp_path / f"ens_path{i:02d}.csv")
        assert header == "t,x"
    assert not (tmp_path / "ens_path04.csv").exists()


def test_simulate_sde_files_are_full_state_statistics(tmp_path):
    from flexfunc.dynamics import Schedule, Trajectory, simulate_sde
    from flexfunc.model import FlexParams

    body = {
        "params": REF_PARAMS,
        "seed": 21,
        "simulate": {
            "mode": "sde",
            "x0": 0.3,
            "schedule": {"u": 0.5, "B": 0.4},
            "dt": 0.01,
            "t_end": 3.0,
            "n_paths": 200,
            "sample_paths": 2,
            "output": "ens.csv",
        },
    }
    assert main(["simulate", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path / "cli")]) == 0
    full = simulate_sde(
        FlexParams.from_dict(REF_PARAMS), 0.3, Schedule.constant(0.5, 0.4), 200, 21, dt=0.01, t_end=3.0
    )
    x = full.states
    rows = x.T.copy()  # one contiguous row of paths per time, summed as the ensemble sums it
    stats = np.array([rows.mean(axis=1), rows.var(axis=1), *np.quantile(x, [0.05, 0.50, 0.95], axis=0)])
    stats[:, 0] = (0.3, 0.0, 0.3, 0.3, 0.3)  # t = 0 is x0 exactly
    write_csv(tmp_path / "oracle.csv", "t,mean,var,q05,q50,q95", (full.times, *stats))
    assert (tmp_path / "cli" / "ens_summary.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    for i in (1, 2):
        Trajectory(full.times, x[i - 1]).to_csv(tmp_path / "path.csv")
        assert (tmp_path / "cli" / f"ens_path{i:02d}.csv").read_bytes() == (tmp_path / "path.csv").read_bytes()
    assert not (tmp_path / "cli" / "ens_path03.csv").exists()


def test_simulate_sde_prints_the_pre_clamp_range(tmp_path, capsys):
    from flexfunc.dynamics import Schedule, simulate_sde
    from flexfunc.model import FlexParams

    params = dict(REF_PARAMS, sigma_x=2.0)  # strong noise steps outside [0, 1] before the clamp
    body = {
        "params": params,
        "seed": 8,
        "simulate": {
            "mode": "sde",
            "x0": 0.5,
            "schedule": {"u": 0.5, "B": 0.4},
            "dt": 0.1,
            "t_end": 1.0,
            "n_paths": 100,
            "sample_paths": 1,
            "output": "ens.csv",
        },
    }
    assert main(["simulate", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path / "cli")]) == 0
    ens = simulate_sde(
        FlexParams.from_dict(params), 0.5, Schedule.constant(0.5, 0.4), 100, 8, dt=0.1, t_end=1.0, keep=1
    )
    assert ens.pre_clamp_min < 0.0 and ens.pre_clamp_max > 1.0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == f"pre-clamp state range: min={ens.pre_clamp_min!r} max={ens.pre_clamp_max!r}"
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == ["ens_path01.csv", "ens_summary.csv"]


@pytest.mark.parametrize("n_paths", [0, 2.5, "8"])
def test_simulate_sde_rejects_bad_n_paths(tmp_path, n_paths, capsys):
    body = {
        "params": REF_PARAMS,
        "simulate": {
            "mode": "sde",
            "x0": 0.5,
            "schedule": {"u": 0.5, "B": 0.4},
            "t_end": 0.3,
            "n_paths": n_paths,
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "n_paths" in capsys.readouterr().err


def test_mode_flag_overrides_config(tmp_path, capsys):
    body = {
        "params": REF_PARAMS,
        "simulate": {
            "mode": "sde",
            "x0": 0.5,
            "schedule": {"u": 0.5, "B": 0.4},
            "t_end": 1.0,
            "n_paths": 4,
            "output": "ovr.csv",
        },
    }
    cfg = cfg_file(tmp_path, body)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path), "--mode", "ode"])
    assert rc == 0
    assert "overrides" in capsys.readouterr().err
    assert (tmp_path / "ovr.csv").exists()
    assert not (tmp_path / "ovr_summary.csv").exists()
    # the message names the flag as it is typed, not as the config key
    body = {"params": REF_PARAMS, "sweep": {"u_values": [0.5], "B_values": [0.4], "n_cells": 16,
                                            "eigen_mode": "slowest"}}
    cfg = cfg_file(tmp_path, body, "sweep.json")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--eigen-mode", "fastest"]) == 0
    assert "flag --eigen-mode=fastest overrides config eigen_mode=slowest" in capsys.readouterr().err


def test_simulate_invalid_params_exit1(tmp_path, capsys):
    body = {
        "params": BAD_PARAMS,
        "simulate": {
            "mode": "ode",
            "x0": 0.5,
            "schedule": {"u": 0.5, "B": 0.4},
            "t_end": 1.0,
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "alpha" in capsys.readouterr().err


# f rises on an end interval narrower than a 1001-point grid step (see test_model)
NON_MONOTONE_PARAMS = dict(REF_PARAMS, alpha=[-1.07243, 0.19973, 0.91510, -0.11483])


def test_validate_refuses_f_rising_between_grid_points(tmp_path, capsys):
    cfg = cfg_file(tmp_path, {"params": NON_MONOTONE_PARAMS})
    assert main(["validate", "--config", cfg]) == 1
    assert "f must be strictly decreasing" in capsys.readouterr().out


def test_simulate_refuses_f_rising_between_grid_points(tmp_path, capsys):
    body = {
        "params": NON_MONOTONE_PARAMS,
        "simulate": {"mode": "ode", "x0": 0.9999, "schedule": {"u": 0.0, "B": 0.4}, "t_end": 1.0},
    }
    cfg = cfg_file(tmp_path, body)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "decreasing" in capsys.readouterr().err
    assert not out.exists()


def test_density_full_outputs(tmp_path):
    body = {
        "params": REF_PARAMS,
        "density": {
            "u": 0.2,
            "B": 0.4,
            "n_cells": 32,
            "initial": {"kind": "point", "x": 0.5},
            "times": [0.5, 1.5],
            "write": ["transient", "cdf", "stationary"],
            "prefix": "d",
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["density", "--config", cfg, "--out", str(tmp_path)]) == 0

    header, rows = read_rows(tmp_path / "d_transient.csv")
    assert header == "t,x,pdf"
    assert len(rows) == 2 * 32
    header, rows = read_rows(tmp_path / "d_cdf.csv")
    assert header == "t,x,cdf"
    last_block = [float(r[2]) for r in rows[32:]]
    assert last_block == sorted(last_block)
    assert last_block[-1] == pytest.approx(1.0, abs=1e-9)
    header, rows = read_rows(tmp_path / "d_stationary.csv")
    assert header == "x,pdf"
    assert len(rows) == 32

    info = json.loads((tmp_path / "d_info.json").read_text(encoding="utf-8"))
    assert {"u", "B", "n_cells", "stationary_mean", "stationary_var",
            "stationary_mode", "eigen_mode", "spectral_gap"} <= set(info)
    assert 0.0 < info["stationary_mean"] < 1.0
    assert info["spectral_gap"] < 0.0


def test_density_evolves_once_for_transient_and_cdf(tmp_path, monkeypatch):
    import flexfunc.cli as cli
    from flexfunc import generator
    from flexfunc.generator import build_generator, point_mass_pdf
    from flexfunc.model import FlexParams

    calls = []
    evolve_pdf = generator.evolve_pdf

    def counting_evolve(*args, **kwargs):
        calls.append(args)
        return evolve_pdf(*args, **kwargs)

    for module in (cli, generator):
        monkeypatch.setattr(module, "evolve_pdf", counting_evolve)
    body = {
        "params": REF_PARAMS,
        "density": {
            "u": 0.2,
            "B": 0.4,
            "n_cells": 32,
            "times": [0.5, 1.5],
            "write": ["transient", "cdf"],
            "prefix": "d",
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["density", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    gen = build_generator(FlexParams.from_dict(REF_PARAMS), 0.2, 0.4, n_cells=32)
    evolve_pdf(gen, point_mass_pdf(gen.grid, 0.5), [0.5, 1.5]).cumulative().to_csv(
        tmp_path / "ref_cdf.csv", value_label="cdf"
    )
    assert (tmp_path / "d_cdf.csv").read_bytes() == (tmp_path / "ref_cdf.csv").read_bytes()


def test_density_computes_the_stationary_density_once(tmp_path, monkeypatch):
    from flexfunc import generator
    from flexfunc.model import FlexParams

    calls = []
    log_stationary = generator._log_stationary

    def counting(gen):
        calls.append(gen)
        return log_stationary(gen)

    monkeypatch.setattr(generator, "_log_stationary", counting)
    body = {
        "params": REF_PARAMS,
        "density": {"u": 0.2, "B": 0.4, "n_cells": 32, "write": ["stationary"], "prefix": "d"},
    }
    assert main(["density", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    info = json.loads((tmp_path / "d_info.json").read_text(encoding="utf-8"))
    gen = generator.build_generator(FlexParams.from_dict(REF_PARAMS), 0.2, 0.4, n_cells=32)
    assert (info["stationary_mean"], info["stationary_var"]) == generator.stationary_moments(gen)


@pytest.mark.parametrize("value", ["0.1", -0.1, [0.1], True])
@pytest.mark.parametrize("command,key", [("density", "dt"), ("simulate", "dt"), ("simulate", "t_end")])
def test_bad_step_or_horizon_is_config_error(tmp_path, command, key, value, capsys):
    blocks = {
        "density": {"u": 0.2, "B": 0.4, "n_cells": 32, "times": [0.5]},
        "simulate": {"mode": "ode", "x0": 0.5, "schedule": {"u": 0.5, "B": 0.4}, "t_end": 1.0},
    }
    block = dict(blocks[command], **{key: value})
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, command: block})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f'"{key}" must be a positive number' in capsys.readouterr().err


_SDE_BLOCK = {"mode": "sde", "schedule": {"u": 0.5, "B": 0.4}, "t_end": 0.3}


@pytest.mark.parametrize(
    "command,block,key",
    [
        ("density", {"u": 0.2, "B": 0.4, "n_cells": 32, "times": [1.0, None]}, "times"),
        ("density", {"u": 0.2, "B": 0.4, "n_cells": None, "write": ["stationary"]}, "n_cells"),
        ("simulate", {"mode": "ode", "schedule": {"u": [0.5], "B": 0.4}, "t_end": 1.0}, "u"),
        (
            "simulate",
            {
                "mode": "ode",
                "schedule": {"breakpoints": [0.0, None], "u_values": [0.1, 0.9], "B_values": [0.4, 0.4]},
                "t_end": 1.0,
            },
            "breakpoints",
        ),
        ("certify", {"u_star": 0.0, "B_star": 0.4, "grid_n": None}, "grid_n"),
        # integer keys: fractions and booleans are refused, never truncated
        ("density", {"u": 0.2, "B": 0.4, "n_cells": 32.9, "write": ["stationary"]}, "n_cells"),
        ("certify", {"u_star": 0.0, "B_star": 0.4, "grid_n": True}, "grid_n"),
        ("simulate", dict(_SDE_BLOCK, n_paths=True), "n_paths"),
        ("simulate", dict(_SDE_BLOCK, n_paths=8.5), "n_paths"),
        ("sweep", {"u_values": {"start": 0.1, "stop": 0.9, "count": 2.5}, "B_values": [0.5]}, "count"),
        ("examples", {"n_steps": 64.5}, "n_steps"),
        # "validate" blocks are entries of the params block itself
        ("validate", {"C": True}, "C"),
        ("validate", {"lambda": "1"}, "lambda"),
        ("validate", {"k": None}, "k"),
        ("validate", {"g0": "1.0"}, "g0"),
        ("validate", {"sigma_x": False}, "sigma_x"),
        ("validate", {"alpha": [0.0, "0.25", 0.75, 0.0]}, "alpha"),
        ("validate", {"beta": [-0.375, -0.1875, -0.0625, -0.0625, -0.125, -0.5, True]}, "beta"),
        ("validate", {"basis": {"order": True}}, "order"),
        ("validate", {"basis": {"basis_count": 7.5}}, "basis_count"),
        ("validate", {"basis": {"interior_knots": [0.2, "0.4", 0.6, 0.8]}}, "interior_knots"),
        ("validate", {"basis": {"knots": [0, 0, 0, 0.2, 0.4, 0.6, 0.8, 1, 1, True]}}, "knots"),
    ],
)
def test_wrong_json_type_is_config_error(tmp_path, command, block, key, capsys):
    if command == "validate":
        body = {"params": dict(REF_PARAMS, **block)}
    else:
        body = {"params": REF_PARAMS, command: block}
    cfg = cfg_file(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f'"{key}"' in err and "must be a number" in err


@pytest.mark.parametrize(
    "entry", [{"alpha": "0123"}, {"beta": -1.0}, {"basis": {"interior_knots": "0.5"}}]
)
def test_params_list_entry_must_be_a_list(tmp_path, entry, capsys):
    cfg = cfg_file(tmp_path, {"params": dict(REF_PARAMS, **entry)})
    assert main(["validate", "--config", cfg]) == 2
    assert "must be a list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_non_finite_params_exit1(tmp_path, command, capsys):
    body = {
        "params": dict(REF_PARAMS, g0=float("nan")),
        "simulate": {"mode": "ode", "x0": 0.5, "schedule": {"u": 0.5, "B": 0.4}, "t_end": 1.0},
    }
    cfg = cfg_file(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "g0 must be finite" in captured.out + captured.err


@pytest.mark.parametrize(
    "basis,beta,code,message",
    [
        ({"interior_knots": [0.25, 0.5, 0.75]}, [-0.25, -0.25, -0.25, -0.25, -0.5, -0.5], 0, ""),
        ({"knots": [0, 0, 0.1, 0.2, 0.4, 0.6, 0.8, 1, 1, 1]}, None, 2, "knot vector must be clamped"),
        ({"basis_count": 9}, None, 2, "inconsistent"),
        ({"interior_knots": [0.5]}, None, 1, "beta must have 4 entries"),
    ],
    ids=["interior_knots", "unclamped_knots", "basis_count", "beta_length"],
)
@pytest.mark.parametrize("command", ["validate", "certify"])
def test_params_basis_block(tmp_path, command, basis, beta, code, message, capsys):
    params = dict(REF_PARAMS, basis=basis, beta=beta or REF_PARAMS["beta"])
    body = {"params": params, "certify": {"u_star": 0.0, "B_star": 0.4, "grid_n": 101}}
    assert main([command, "--config", cfg_file(tmp_path, body), "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


@pytest.mark.parametrize("value", [32.9, True, float("inf"), float("nan"), "32", None])
def test_integer_config_value_is_never_truncated(value):
    with pytest.raises(ConfigError, match="must be a number with an integer value"):
        _number(value, '"n_cells"', int)
    assert _number(32.0, '"n_cells"', int) == 32


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_threads_below_one_is_config_error(tmp_path, command, capsys):
    blocks = {
        "simulate": {"mode": "ode", "schedule": {"u": 0.5, "B": 0.4}, "t_end": 1.0},
        "sweep": {"u_values": [0.5], "B_values": [0.5], "n_cells": 24},
    }
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, "threads": 0, command: blocks[command]})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert '"threads" must be >= 1' in capsys.readouterr().err


def test_density_needs_times_for_transient(tmp_path, capsys):
    body = {
        "params": REF_PARAMS,
        "density": {"u": 0.2, "B": 0.4, "n_cells": 32, "write": ["transient"]},
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["density", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "times" in capsys.readouterr().err


def test_density_rejects_unknown_write_target(tmp_path):
    body = {
        "params": REF_PARAMS,
        "density": {"u": 0.2, "B": 0.4, "n_cells": 32, "write": ["nonsense"]},
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["density", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("kind,rc", [("uniform", 0), ("blob", 2)])
def test_density_initial_kinds(tmp_path, kind, rc):
    body = {
        "params": REF_PARAMS,
        "density": {
            "u": 0.5,
            "B": 0.5,
            "n_cells": 24,
            "initial": {"kind": kind},
            "write": ["stationary"],
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["density", "--config", cfg, "--out", str(tmp_path)]) == rc


def test_eigen_mode_flag_changes_gap(tmp_path):
    body = {
        "params": REF_PARAMS,
        "density": {"u": 0.3, "B": 0.5, "n_cells": 32, "write": ["stationary"]},
    }
    cfg = cfg_file(tmp_path, body)
    gaps = {}
    for mode in ("slowest", "fastest"):
        out = tmp_path / mode
        assert main(["density", "--config", cfg, "--out", str(out),
                     "--eigen-mode", mode]) == 0
        gaps[mode] = json.loads((out / "density_info.json").read_text())["spectral_gap"]
    assert gaps["slowest"] < 0.0
    assert gaps["fastest"] < gaps["slowest"]


def test_sweep_grid_order_and_content(tmp_path):
    body = {
        "params": REF_PARAMS,
        "sweep": {
            "u_values": [0.2, 0.8],
            "B_values": {"start": 0.4, "stop": 0.6, "count": 2},
            "n_cells": 24,
            "output": "sw.csv",
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "sw.csv")
    assert header == "u,B,mean,var,gap"
    got = [(float(r[0]), float(r[1])) for r in rows]
    assert got == [(0.2, 0.4), (0.2, 0.6), (0.8, 0.4), (0.8, 0.6)]  # u-major
    means = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    for b in (0.4, 0.6):
        assert means[(0.2, b)] > means[(0.8, b)]  # higher price pushes demand down
    assert all(float(r[4]) < 0.0 for r in rows)


def test_sweep_threads_byte_identical(tmp_path):
    body = {
        "params": REF_PARAMS,
        "sweep": {
            "u_values": [0.2, 0.5, 0.8],
            "B_values": [0.4, 0.6],
            "n_cells": 24,
            "output": "sw.csv",
        },
    }
    cfg = cfg_file(tmp_path, body)
    blobs = []
    for threads, sub in ((1, "a"), (3, "b")):
        out = tmp_path / sub
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--threads", str(threads)]) == 0
        blobs.append((out / "sw.csv").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "values", [{"start": 0.1, "stop": 0.9, "count": 0}, []]
)
def test_sweep_grid_validation(tmp_path, values):
    body = {
        "params": REF_PARAMS,
        "sweep": {"u_values": values, "B_values": [0.5], "n_cells": 24},
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_certify_reference_passes(tmp_path, capsys):
    body = {
        "params": REF_PARAMS,
        "certify": {"u_star": 0.0, "B_star": 0.4, "output": "cert.json"},
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") >= 4  # three certificates plus the radius line

    doc = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    assert set(doc) == {
        "det-asymptotic", "stoch-bounded", "stoch-stable",
        "theta", "target_radius", "stable_radius", "radius_meets_target",
        "sigma_max", "overall_pass",
    }
    for claim in ("det-asymptotic", "stoch-bounded", "stoch-stable"):
        cert = doc[claim]
        assert set(cert) == {"claim", "params_hash", "region", "threshold",
                             "margin", "pass"}
        assert cert["pass"] is True
        assert cert["margin"] <= 0.0
    assert doc["overall_pass"] is True
    assert doc["stable_radius"] == 1.0
    assert doc["sigma_max"] == pytest.approx(0.36698792170878686, rel=1e-12)


def test_certify_grid_n_reaches_the_noise_search(tmp_path, monkeypatch):
    import flexfunc.cli as cli

    seen = []
    search = cli.max_stable_noise

    def spy(*args, **kwargs):
        seen.append(kwargs.get("grid_n"))
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "max_stable_noise", spy)
    body = {"params": REF_PARAMS, "certify": {"u_star": 0.0, "B_star": 0.4, "grid_n": 150}}
    assert main(["certify", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path)]) == 0
    assert seen == [150]


def test_certify_high_noise_fails_on_radius(tmp_path, capsys):
    body = {
        "params": dict(REF_PARAMS, sigma_x=2.0),
        "certify": {"u_star": 0.0, "B_star": 0.4, "output": "cert.json"},
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out
    doc = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    # the conditioned certificates still hold, only the usable radius shrinks
    assert doc["stoch-stable"]["pass"] is True
    assert doc["stable_radius"] == pytest.approx(0.03367003367003367, rel=1e-12)
    assert doc["radius_meets_target"] is False
    assert doc["overall_pass"] is False


def test_certify_fails_a_radius_far_below_a_target_below_1e12(tmp_path, capsys):
    # the radius 1.35e-15 is a hundredth of the target: no absolute slack may cover the gap
    configs = Path(__file__).resolve().parent.parent / "configs"
    body = json.loads((configs / "certify.json").read_text(encoding="utf-8"))
    body["params"]["sigma_x"] = 1e7
    body["certify"]["target_radius"] = 1e-13
    assert main(["certify", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path)]) == 1
    assert "stable radius 1.3468013468013466e-15 vs target 1e-13: FAIL" in capsys.readouterr().out.splitlines()
    doc = json.loads((tmp_path / body["certify"]["output"]).read_text(encoding="utf-8"))
    assert doc["stable_radius"] == 1.3468013468013466e-15
    assert doc["radius_meets_target"] is False


def test_certify_prints_the_failure_intervals_of_a_failed_claim(tmp_path, capsys):
    body = {
        "params": dict(REF_PARAMS, sigma_x=1.0),
        "certify": {"u_star": 0.0, "B_star": 0.9, "output": "cert.json"},
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = lines.index(next(line for line in lines if line.startswith("stoch-stable: FAIL")))
    prefix = "stoch-stable fails on "
    assert lines[failed + 1].startswith(prefix)
    printed = ast.literal_eval(f"[{lines[failed + 1][len(prefix):]}]")
    cert = stability.certify_stable(FlexParams.from_dict(body["params"]), 0.0, 0.9)
    # the failing cells: a superset of where LV > 0, [0.9665, 0.9865] on a 2001-point grid
    assert cert.failures == ((0.9663299663299664, 0.9947561851538724),)
    assert [tuple(interval) for interval in printed] == list(cert.failures)  # repr floats: exact
    # the passing claims print no failure line
    assert sum(" fails on " in line for line in lines) == 1


@pytest.mark.parametrize("sigma_x", [1e-170, 1e-300, 5e-324])
def test_certify_takes_a_noise_whose_square_underflows(tmp_path, sigma_x):
    # sigma_x**2 is 0 as a float: the certified radius is the noiseless 1, not a division by zero
    configs = Path(__file__).resolve().parent.parent / "configs"
    body = json.loads((configs / "certify.json").read_text(encoding="utf-8"))
    body["params"]["sigma_x"] = sigma_x
    assert main(["certify", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / body["certify"]["output"]).read_text(encoding="utf-8"))
    assert doc["stable_radius"] == 1.0


def test_certify_fails_the_touching_alpha_next_to_the_corner(tmp_path, capsys):
    # f'(1) = 0 leaves no damping to first order at x* = 1, so LV > 0 on (1 - 3.7e-4, 1);
    # that gap lies between the points of a 2001-point grid and x*
    body = {
        "params": dict(REF_PARAMS, alpha=[-0.5, 1.0, 0.0, 0.0], sigma_x=0.03),
        "certify": {"u_star": 0.0, "B_star": 0.4, "output": "cert.json"},
    }
    assert main(["certify", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    prefix = "stoch-stable fails on "
    failed = [line[len(prefix):] for line in lines if line.startswith(prefix)]
    assert len(failed) == 1
    intervals = ast.literal_eval(f"[{failed[0]}]")
    assert intervals[-1][0] < 1.0 - 3.7e-4 and intervals[-1][1] == 1.0


@pytest.mark.parametrize(
    "params,u_star",
    [
        # f(1) + g(0) = 5e-10 and f(0) + g(1) = -5e-10: each identity is off by less
        # than validate's slack, so the corner is the equilibrium
        (dict(REF_PARAMS, g0=1.0000000005, beta=[*REF_PARAMS["beta"][:-1], -0.6875000005]), 0.0),
        (dict(REF_PARAMS, alpha=[0.0, 0.25, 0.7499999995, 0.0]), 1.0),
    ],
)
def test_certify_accepts_what_validate_accepts_near_an_identity(tmp_path, params, u_star, capsys):
    body = {"params": params, "certify": {"u_star": u_star, "B_star": 0.4, "grid_n": 101}}
    cfg = cfg_file(tmp_path, body)
    assert main(["validate", "--config", cfg]) == 0
    assert "valid" in capsys.readouterr().out.splitlines()
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_certify_passes_a_corner_whose_identity_rounds_below_zero(tmp_path, capsys):
    # f(1) rounds to -1 - 2^-52, so f(1) + g(0) < 0 in floats; validate proves g(0) = -f(1),
    # and the claims certify that model: sigma_max passes, it is not 0
    body = {
        "params": dict(REF_PARAMS, alpha=[0.0, 0.33, 0.56, 0.11]),
        "certify": {"u_star": 0.0, "B_star": 0.4, "output": "cert.json"},
    }
    assert main(["certify", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    doc = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    assert doc["overall_pass"] is True
    assert np.isfinite(doc["sigma_max"]) and doc["sigma_max"] > 0.0


def test_certify_fails_a_noise_whose_square_overflows(tmp_path, capsys):
    # sigma_x * sigma_x is inf: no ball is left, a failed claim (exit 1), not a numerical failure
    body = {
        "params": dict(REF_PARAMS, sigma_x=2e154),
        "certify": {"u_star": 0.0, "B_star": 0.4, "output": "cert.json"},
    }
    assert main(["certify", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and "stoch-stable: FAIL (degenerate)" in captured.out
    doc = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    assert doc["stable_radius"] == 0.0 and doc["stoch-stable"]["pass"] is False


def test_certify_fails_a_baseline_whose_eta1_underflows(tmp_path, capsys):
    # (lambda / C) * 5e-324 rounds to 0, but the claims are decided in tau, where the gain is
    # 5e-324 itself: the noise ball is all of [0, 1] and the certified radius is 1.7e-322
    body = {"params": REF_PARAMS, "certify": {"u_star": 0.0, "B_star": 5e-324, "output": "cert.json"}}
    assert main(["certify", "--config", cfg_file(tmp_path, body), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "stoch-bounded: pass (degenerate) margin=-inf" in captured.out
    assert "stoch-stable: FAIL margin=" in captured.out  # a claim with cells, not degenerate
    doc = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    assert doc["stoch-bounded"]["pass"] is True and doc["stoch-stable"]["pass"] is False
    assert 0.0 < doc["sigma_max"] < np.inf and doc["overall_pass"] is False
    params = FlexParams.from_dict(REF_PARAMS).with_sigma(doc["sigma_max"])
    assert stability.certify_stable(params, 0.0, 5e-324).passed


def test_certify_interior_anchor_is_usage_error(tmp_path, capsys):
    body = {
        "params": REF_PARAMS,
        "certify": {"u_star": 0.3, "B_star": 0.4},
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "corner" in capsys.readouterr().err


def test_examples_writes_tables(tmp_path, capsys):
    body = {
        "params": REF_PARAMS,
        "seed": 3,
        "examples": {
            "systems": [{"r1": 1.0, "r2": -1.2, "x0": 1.0}],
            "t_end": 1.0,
            "n_steps": 64,
            "convergence": {"dts": [2**-6, 2**-7, 2**-8], "n_paths": 30},
            "prefix": "ex",
        },
    }
    cfg = cfg_file(tmp_path, body)
    assert main(["examples", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "slope" in capsys.readouterr().out

    header, _ = read_rows(tmp_path / "ex_system1_mean.csv")
    assert header == "t,x"
    header, rows = read_rows(tmp_path / "ex_system1_paths.csv")
    assert header == "t,x_em,x_exact"
    assert len(rows) == 65
    header, rows = read_rows(tmp_path / "ex_convergence.csv")
    assert header == "dt,strong_error"
    assert len(rows) == 3


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--threads", "0"]])
def test_flag_validation(tmp_path, flags, capsys):
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS})
    assert main(["validate", "--config", cfg] + flags) == 2
    assert "error" in capsys.readouterr().err


def test_sde_byte_determinism_subprocess(tmp_path):
    # same seed must give byte-identical files across reruns and thread counts
    body = {
        "params": REF_PARAMS,
        "seed": 77,
        "simulate": {
            "mode": "sde",
            "x0": 0.5,
            "schedule": {"u": 0.5, "B": 0.4},
            "t_end": 0.2,
            "n_paths": 1500,
            "sample_paths": 1,
            "output": "det.csv",
        },
    }
    cfg = cfg_file(tmp_path, body)
    blobs = []
    for threads, sub in ((1, "a"), (1, "b"), (4, "c")):
        out = tmp_path / sub
        res = subprocess.run(
            [sys.executable, "-m", "flexfunc.cli", "simulate",
             "--config", cfg, "--out", str(out), "--threads", str(threads)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        blobs.append(
            (out / "det_summary.csv").read_bytes()
            + (out / "det_path01.csv").read_bytes()
        )
    assert blobs[0] == blobs[1] == blobs[2]


def test_simulate_writes_the_same_bytes_after_a_density_run_on_another_grid(tmp_path):
    # the CSV writer keeps the previous file's leading-column text between
    # calls; fig2 in a fresh process and fig2 after fig7's density tables
    # (a t column repeated per cell) in one process must agree
    configs = Path(__file__).resolve().parent.parent / "configs"
    fig2 = ["simulate", "--config", str(configs / "fig2.json"), "--out"]
    res = subprocess.run(
        [sys.executable, "-m", "flexfunc.cli", *fig2, str(tmp_path / "alone")], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert main(["density", "--config", str(configs / "fig7.json"), "--out", str(tmp_path / "fig7")]) == 0
    assert main([*fig2, str(tmp_path / "after")]) == 0
    alone = sorted((tmp_path / "alone").iterdir())
    assert len(alone) == 9
    for path in alone:
        assert (tmp_path / "after" / path.name).read_bytes() == path.read_bytes(), path.name


def test_cli_import_leaves_scipy_submodules_unloaded(tmp_path):
    # scipy loads on first use, and only the generator layer uses it: an
    # eager import costs every command ~25 MB of peak memory and ~0.3 s of
    # start-up.  The commands that build no generator (ode and sde simulate,
    # examples, certify, validate) must finish in the same process with no
    # scipy module loaded at all.
    configs = Path(__file__).resolve().parent.parent / "configs"
    runs = [
        ["simulate", "--config", str(configs / "fig2.json"), "--out", str(tmp_path / "fig2")],
        ["simulate", "--config", str(configs / "fig4.json"), "--out", str(tmp_path / "fig4")],
        ["examples", "--config", str(configs / "fig3.json"), "--out", str(tmp_path / "fig3")],
        ["certify", "--config", str(configs / "certify.json"), "--out", str(tmp_path / "certify")],
        ["validate", "--config", str(configs / "fig2.json")],
    ]
    code = (
        "import json, sys, flexfunc.cli\n"
        "codes = [flexfunc.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    res = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


_NAN = float("nan")
_SMALL = {
    "simulate": {"mode": "ode", "schedule": {"u": 0.5, "B": 0.4}, "t_end": 0.3},
    "density": {"u": 0.2, "B": 0.4, "n_cells": 32, "times": [0.5]},
    "sweep": {"u_values": [0.5], "B_values": [0.5], "n_cells": 24},
    "certify": {"u_star": 0.0, "B_star": 0.4, "grid_n": 101},
    "examples": {
        "systems": [{"r1": 1.0, "r2": -1.2, "x0": 1.0}],
        "n_steps": 16,
        "convergence": {"dts": [0.25, 0.125], "n_paths": 4},
    },
}


def _small(command, **changes):
    return dict(_SMALL[command], **changes)


@pytest.mark.parametrize(
    "command,block,top,key",
    [
        *[
            (command, _small(command, output=value), {}, "output")
            for command in ("simulate", "sweep", "certify")
            for value in (5, None, [])
        ],
        ("density", _small("density", write=[["a"]]), {}, "write"),
        ("density", _small("density", times=[_NAN]), {}, "times"),
        (
            "simulate",
            _small(
                "simulate",
                schedule={"breakpoints": [0.0, _NAN], "u_values": [0.1, 0.9], "B_values": [0.4, 0.4]},
            ),
            {},
            "breakpoints",
        ),
        ("examples", _small("examples", omega=_NAN), {}, "omega"),
        ("examples", _small("examples", systems=[{"r1": 1.0, "r2": _NAN, "x0": 1.0}]), {}, "r2"),
        ("density", _small("density", prefix=[1]), {}, "prefix"),
        ("density", _small("density", write=["stationary"], eigen_mode="bogus"), {}, "eigen_mode"),
        ("examples", _small("examples", n_steps=0), {}, "n_steps"),
        ("examples", _SMALL["examples"], {"seed": -5}, "seed"),
        ("density", _small("density", initial={"kind": "uniform", "x": "zz"}), {}, "x"),
        ("density", _small("density", u=1.5), {}, "u"),
        ("density", _small("density", B=-0.1), {}, "B"),
        ("density", _small("density", initial={"kind": "point", "x": 1.5}), {}, "x"),
        ("density", _small("density", n_cells=8), {}, "n_cells"),
        ("sweep", _small("sweep", u_values=[0.5, 1.5]), {}, "u_values"),
        ("sweep", _small("sweep", B_values={"start": 0.5, "stop": 1.5, "count": 3}), {}, "B_values"),
        ("sweep", _small("sweep", n_cells=15), {}, "n_cells"),
        ("certify", _small("certify", u_star=0.5), {}, "u_star"),
        ("certify", _small("certify", B_star=1.5), {}, "B_star"),
        ("simulate", _small("simulate", x0=[0.5, 1.5]), {}, "x0"),
        ("certify", _small("certify", grid_n=99), {}, "grid_n"),
        ("certify", 5, {}, "certify"),
    ],
)
def test_bad_key_is_refused_before_any_output(tmp_path, command, block, top, key, capsys):
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, command: block, **top})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f'"{key}"' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,block,top,key",
    [
        ("density", _small("density", u=10**400), {}, "u"),
        ("simulate", _small("simulate", t_end=10**400), {}, "t_end"),
        ("density", _small("density", n_cells=10**400), {}, "n_cells"),
        ("examples", _small("examples", n_steps=10**400), {}, "n_steps"),
        ("density", _small("density"), {"params": dict(REF_PARAMS, C=10**400)}, "C"),
    ],
    ids=["float-key", "positive-key", "integer-key", "count-key", "params-key"],
)
def test_an_integer_past_the_largest_double_is_refused_before_any_output(
    tmp_path, command, block, top, key, capsys
):
    # a 401-digit integer: float() of it would overflow
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, command: block, **top})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f'"{key}" must be within the range of a double' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value", [("theta", 0), ("theta", 1), ("theta", 2), ("target_radius", 0), ("target_radius", 5)]
)
@pytest.mark.parametrize("B_star", [0.0, 0.4, 1.0])
def test_certify_theta_and_target_radius_refused_at_every_baseline(tmp_path, B_star, key, value, capsys):
    # at B* in {0, 1} the noise search, which also checks both keys, never runs
    block = _small("certify", B_star=B_star, **{key: value})
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, "certify": block})
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
    assert f'"{key}"' in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "changes,message",
    [
        ({}, 'sde mode needs "n_paths"'),
        ({"n_paths": 4, "x0": [0.2, 0.8]}, "sde mode takes a single x0"),
        ({"n_paths": 4, "sample_paths": 5}, "sample_paths must be between 0 and n_paths"),
    ],
)
def test_sde_block_rules_refused_before_any_output(tmp_path, changes, message, capsys):
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, "simulate": _small("simulate", mode="sde", **changes)})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_GENERATOR_RUNS = {
    "sweep": _small("sweep", u_values=[0.0, 0.5], n_cells=200),
    "density-stationary": _small("density", initial={"kind": "uniform"}, write=["stationary"], n_cells=400),
    "density-transient": _small("density", write=["transient", "stationary"], n_cells=200),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # as CI runs the console script
@pytest.mark.parametrize(
    "command,block,message",
    [
        (
            "simulate", _small("simulate", mode="ode", dt=0.01, t_end=1.0, n_paths=4),
            "non-finite state at t=0.01",
        ),
        (
            "simulate", _small("simulate", mode="sde", dt=0.01, t_end=1.0, n_paths=4),
            "non-finite state in ensemble",
        ),
        ("sweep", _GENERATOR_RUNS["sweep"], "non-finite jump rate at (u, B) = (0.0, 0.5)"),
        ("density", _GENERATOR_RUNS["density-stationary"], "non-finite jump rate at (u, B) = (0.2, 0.4)"),
        ("density", _GENERATOR_RUNS["density-transient"], "non-finite jump rate at (u, B) = (0.2, 0.4)"),
        ("certify", {"u_star": 0.0, "B_star": 0.4}, "lambda / C = inf is not a positive normal float"),
    ],
    ids=["ode", "sde", *_GENERATOR_RUNS, "certify"],
)
def test_numerical_failure_exits_3_before_any_output(tmp_path, command, block, message, capsys):
    # a valid but absurd capacity: the drift dD / C overflows the first step's state or every jump
    # rate, and lambda / C, the certificates' unit of time, overflows
    body = {"params": dict(REF_PARAMS, C=1e-320), command: block}
    out = tmp_path / "out"
    assert main([command, "--config", cfg_file(tmp_path, body), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # as CI runs the console script
@pytest.mark.parametrize("run", _GENERATOR_RUNS)
def test_noise_too_small_to_divide_by_answers_as_no_noise(tmp_path, run):
    # at sigma_x = 1e-160 D is subnormal or 0 and v h / D overflows: the chain is the upwind one
    command = run.split("-")[0]
    outs = {}
    for sigma_x in (1e-160, 0.0):
        body = {"params": dict(REF_PARAMS, sigma_x=sigma_x), command: _GENERATOR_RUNS[run]}
        out = tmp_path / str(sigma_x)
        assert main([command, "--config", cfg_file(tmp_path, body), "--out", str(out)]) == 0
        outs[sigma_x] = {f.name: f.read_text(encoding="utf-8") for f in sorted(out.iterdir())}
    assert outs[1e-160].keys() == outs[0.0].keys()
    for name, text in outs[0.0].items():
        if name.endswith(".json"):
            got, want = json.loads(outs[1e-160][name]), json.loads(text)
            assert got.keys() == want.keys()
            assert all(got[k] == pytest.approx(want[k], rel=1e-12, abs=0.0) for k in want)
        else:
            got, want = (np.loadtxt(t.splitlines()[1:], delimiter=",") for t in (outs[1e-160][name], text))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("under", [False, True], ids=["existing-file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, under, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "sub" if under else blocker
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, "simulate": _small("simulate")})
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == "keep\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")


@pytest.mark.parametrize(
    "command,block,owner,name",
    [
        ("sweep", _small("sweep"), "flexfunc.cli", "build_generator"),
        ("sweep", _small("sweep", u_values={"start": 0, "stop": 1, "count": 2}), "numpy", "linspace"),
        ("certify", _small("certify"), "flexfunc.cli", "certify_deterministic"),
    ],
    ids=["n_cells", "range-count", "grid_n"],
)
def test_out_of_memory_exits_3_before_any_output(tmp_path, monkeypatch, command, block, owner, name, capsys):
    # the allocation fails by injection: a host that overcommits may grant a real huge request
    monkeypatch.setattr(sys.modules[owner], name, _out_of_memory)
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, command: block})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_deeply_nested_config_is_a_parse_error(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"params": ' + "[" * 200_000 + "]" * 200_000 + "}", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config parse error in {cfg}: nested too deeply" in capsys.readouterr().err
    assert not out.exists()


def test_examples_accept_the_largest_seed(tmp_path):
    # demo system i draws from seed + i modulo 2**64, so the seeds wrap past 2**64 - 1
    system = {"r1": 1.0, "r2": -1.2, "x0": 1.0}
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, "examples": _small("examples", systems=[system] * 2)})
    for seed in (2**64 - 1, 2**64 - 2):
        assert main(["examples", "--config", cfg, "--out", str(tmp_path / str(seed)), "--seed", str(seed)]) == 0
    paths = tmp_path / str(2**64 - 1) / "examples_system1_paths.csv"
    assert paths.read_bytes() == (tmp_path / str(2**64 - 2) / "examples_system2_paths.csv").read_bytes()


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize(
    "command,block",
    [*_SMALL.items(), ("simulate", _small("simulate", mode="sde", n_paths=4))],
    ids=[*_SMALL, "simulate-sde"],
)
def test_seeds_above_the_largest_are_refused_before_any_output(tmp_path, command, block, flag, capsys):
    body = {"params": REF_PARAMS, command: block}
    if not flag:
        body["seed"] = 2**64
    out = tmp_path / "out"
    argv = [command, "--config", cfg_file(tmp_path, body), "--out", str(out)]
    assert main(argv + (["--seed", str(2**64)] if flag else [])) == 2
    assert f'"seed" must be <= {2**64 - 1}, got {2**64}' in capsys.readouterr().err
    assert not out.exists()


_NOISELESS = dict(REF_PARAMS, sigma_x=0.0)


@pytest.mark.parametrize(
    "command,params,block,message",
    [
        (
            "sweep", _NOISELESS, _small("sweep", B_values=[0.0, 0.4], n_cells=50),
            "stationary density undefined for a disconnected chain",
        ),
        (
            "density", _NOISELESS, _small("density", B=1.0, n_cells=50),
            "stationary density undefined for a disconnected chain",
        ),
        ("examples", REF_PARAMS, _small("examples", systems=[{"x0": 0.0}]), "every strong error is 0"),
        (
            "examples", REF_PARAMS, _small("examples", systems=[{"r1": 0, "r2": 0, "x0": 1}]),
            "every strong error is 0",
        ),
    ],
    ids=["sweep", "density", "examples-x0-zero", "examples-exact-system"],
)
def test_valid_config_without_an_answer_exits_3_before_any_output(
    tmp_path, command, params, block, message, capsys
):
    # the config is well formed, but the quantity it asks for does not exist
    cfg = cfg_file(tmp_path, {"params": params, command: block})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert f"numerical failure: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,block,message",
    [
        ("examples", _small("examples", convergence={"dts": [0.3, 0.7]}), "finest dt"),
        ("examples", _small("examples", convergence={"dts": [0.25, 0.25]}), "two distinct step sizes"),
        ("density", _small("density", times=[1.0, 0.5]), "nondecreasing"),
        ("simulate", _small("simulate", dt=1.0, t_end=0.5), "t_end must be at least dt"),
        (
            "simulate",
            _small("simulate", mode="sde", n_paths=4, dt=1.0, t_end=0.5),
            "t_end must be at least dt",
        ),
        ("examples", _small("examples", mean_dt=2.0, t_end=1.0), "t_end must be at least dt"),
    ],
)
def test_library_domain_error_is_refused_before_any_output(tmp_path, command, block, message, capsys):
    # checks that live in the library, not in a config key, still run before --out exists
    cfg = cfg_file(tmp_path, {"params": REF_PARAMS, command: block})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# Small configs for the fuzz test: every size is small, and so is every
# default that deleting one leaf can bring in.
_FUZZ_BASES = {
    "validate": {"params": REF_PARAMS},
    "simulate": {
        "params": REF_PARAMS,
        "seed": 3,
        "threads": 1,
        "simulate": {
            "mode": "sde",
            "x0": 0.5,
            "schedule": {"breakpoints": [0.0, 0.1], "u_values": [0.2, 0.8], "B_values": [0.4, 0.5]},
            "dt": 0.05,
            "t_end": 0.3,
            "n_paths": 4,
            "sample_paths": 1,
            "output": "s.csv",
        },
    },
    "simulate-ode": {
        "params": REF_PARAMS,
        "simulate": {
            "mode": "ode",
            "x0": [0.2, 0.8],
            "schedule": {"u": 0.5, "B": 0.4},
            "t_end": 0.3,
            "output": "o.csv",
        },
    },
    "density": {
        "params": REF_PARAMS,
        "density": {
            "u": 0.2,
            "B": 0.4,
            "n_cells": 32,
            "initial": {"kind": "point", "x": 0.5},
            "times": [0.1, 0.3],
            "dt": 0.05,
            "write": ["transient", "cdf", "stationary"],
            "prefix": "d",
            "eigen_mode": "slowest",
        },
    },
    "sweep": {
        "params": REF_PARAMS,
        "sweep": {
            "u_values": {"start": 0.2, "stop": 0.8, "count": 2},
            "B_values": [0.5],
            "n_cells": 32,
            "output": "w.csv",
            "eigen_mode": "fastest",
        },
    },
    "certify": {
        "params": REF_PARAMS,
        "certify": {
            "u_star": 0.0,
            "B_star": 0.4,
            "theta": 0.5,
            "target_radius": 0.5,
            "grid_n": 101,
            "output": "c.json",
        },
    },
    "examples": {
        "params": REF_PARAMS,
        "seed": 3,
        "examples": {
            "systems": [{"r1": 1.0, "r2": -1.2, "x0": 1.0}],
            "omega": 1.0,
            "t_end": 0.25,
            "n_steps": 8,
            "mean_dt": 0.05,
            "convergence": {"dts": [0.125, 0.0625], "n_paths": 4, "t_end": 0.25},
            "prefix": "e",
        },
    },
}
_DELETE = object()
_FUZZ_VALUES = [_DELETE, None, True, "x", [], {}, [None], _NAN, float("inf"), float("-inf"), 0, -1, 0.5]


def _leaf_paths(node, path=()):
    """Paths to every scalar and every empty list or object inside ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    children = list(items)
    if not children:
        yield path
    for key, child in children:
        yield from _leaf_paths(child, path + (key,))


@st.composite
def _mutated_configs(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_BASES)))
    body = copy.deepcopy(_FUZZ_BASES[name])
    *parents, last = draw(st.sampled_from(list(_leaf_paths(body))))
    value = draw(st.sampled_from(_FUZZ_VALUES))
    parent = body
    for key in parents:
        parent = parent[key]
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    return name.split("-")[0], body


@settings(max_examples=500)
@given(_mutated_configs())
def test_mutated_config_never_escapes_main(command_and_body):
    command, body = command_and_body
    with tempfile.TemporaryDirectory() as tmp:
        cfg = cfg_file(Path(tmp), body)
        code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
