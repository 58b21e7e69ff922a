"""Acceptance gate: ten end-to-end criteria, one test (one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion lines,
add ``-s`` for the timing lines.  Budgets are wall-clock ceilings with large
headroom over measured runtimes; assertion messages carry the offending
values or grid points.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from flexfunc import bilinear, model
from flexfunc.cli import main as cli_main
from flexfunc.dynamics import Schedule, integrate_ode, simulate_sde
from flexfunc.equilibria import certify_deterministic, solve_equilibrium
from flexfunc.generator import (
    GeneratorMatrix,
    StateGrid,
    build_generator,
    evolve_pdf,
    point_mass_pdf,
    spectral_gap,
    stationary_moments,
    stationary_pdf,
)
from flexfunc.model import FlexParams, reference_params
from flexfunc.stability import (
    certify_bounded,
    certify_stable,
    max_stable_noise,
    stable_radius,
)
from strategies import dense, growth_estimate


class Gate:
    """Times a criterion, prints one pass/fail line, enforces the budget."""

    def __init__(self, label: str, budget_s: float):
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        state = "PASS" if exc_type is None else "FAIL"
        print(f"{state} {self.label} ({elapsed:.2f}s, budget {self.budget_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, f"{self.label}: {elapsed:.1f}s over budget"
        return False


def test_01_boundary_response_identities():
    with Gate("criterion 01 boundary response identities", 1.0):
        p = reference_params()
        assert abs(model.charge_response(p, 0.0) - 1.0) < 1e-12
        assert abs(model.charge_response(p, 1.0) + 1.0) < 1e-12
        assert abs(model.price_response(p, 0.0) - 1.0) < 1e-12
        assert abs(model.price_response(p, 1.0) + 1.0) < 1e-12


def test_02_deterministic_convergence_and_certificate_grid():
    with Gate("criterion 02 deterministic stability", 10.0):
        p = reference_params(sigma_x=0.0)
        x_star = solve_equilibrium(p, 0.5).x_star
        sched = Schedule.constant(0.5, 0.4)
        t_end = 40.0 * p.C
        for x0 in np.linspace(0.1, 0.9, 9):
            traj = integrate_ode(p, float(x0), sched, t_end=t_end)
            err = abs(float(traj.states[-1]) - x_star)
            assert err < 1e-4, (float(x0), float(traj.states[-1]), x_star)

        failures = []
        for u in np.linspace(0.0, 1.0, 11):
            for b in np.linspace(0.0, 1.0, 11):
                cert = certify_deterministic(p, float(u), float(b))
                if not cert.passed:
                    failures.append((round(float(u), 10), round(float(b), 10)))
        assert not failures, f"deterministic certificate failed at (u*, B*): {failures}"


def test_03_state_space_invariance_randomized():
    with Gate("criterion 03 state stays in [0,1] over 10^4 randomized runs", 60.0):
        rng = np.random.default_rng(42)

        def random_params() -> FlexParams:
            a2 = rng.uniform(0.1, 1.0)
            w = rng.uniform(0.2, 1.0, size=7)
            return FlexParams(
                C=float(rng.uniform(0.5, 5.0)),
                lam=float(rng.uniform(0.2, 1.0)),
                k=float(rng.uniform(1.0, 10.0)),
                alpha=(0.0, float(a2), float(1.0 - a2), 0.0),
                beta=tuple(-2.0 * w / w.sum()),
                sigma_x=float(rng.uniform(0.0, 0.5)),
            )

        def random_schedule() -> Schedule:
            if rng.random() < 0.5:
                return Schedule.constant(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            return Schedule(
                breakpoints=(0.0, float(rng.uniform(0.5, 2.0))),
                u_values=(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
                B_values=(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
            )

        runs = 0
        for _ in range(2000):
            p = random_params()
            traj = integrate_ode(
                p, float(rng.uniform(0, 1)), random_schedule(), dt=0.01 * p.C, t_end=2.0 * p.C
            )
            assert traj.states.min() >= 0.0 and traj.states.max() <= 1.0, p
            runs += 1
        for _ in range(80):
            p = random_params()
            ens = simulate_sde(
                p,
                float(rng.uniform(0, 1)),
                random_schedule(),
                n_paths=100,
                master_seed=int(rng.integers(2**31)),
                dt=1e-3 * p.C,
                t_end=1.0 * p.C,
            )
            assert ens.states.min() >= 0.0 and ens.states.max() <= 1.0, p
            runs += 100
        assert runs == 10_000


def test_04_toy_sde_strong_order_and_growth_rates():
    with Gate("criterion 04 toy-system strong order and growth rates", 60.0):
        bp = bilinear.BilinearParams(r1=1.0, r2=-1.2, x0=1.0)
        study = bilinear.strong_convergence_study(bp, n_paths=1000, master_seed=2024)
        assert 0.4 <= study.slope <= 0.6, study.slope

        for r1, r2 in ((1.0, 2.0), (1.0, -1.2)):
            b = bilinear.BilinearParams(r1=r1, r2=r2, x0=1.0)
            est = growth_estimate(b, t_end=10.0, n_paths=1000, master_seed=99)
            assert abs(est - b.as_growth) < 0.1, (r1, r2, est, b.as_growth)


def test_05_generator_correctness_and_monte_carlo_agreement():
    with Gate("criterion 05 generator vs Monte Carlo", 120.0):
        p = reference_params()
        gen = build_generator(p, 0.2, 0.4, n_cells=200)
        width = gen.grid.width

        worst_row = float(np.abs(dense(gen).sum(axis=1)).max())
        assert worst_row < 1e-10, worst_row

        series = evolve_pdf(gen, point_mass_pdf(gen.grid, 0.5), [1.0, 5.0, 20.0, 100.0])
        masses = series.pdfs.sum(axis=1) * width
        assert float(np.abs(masses - 1.0).max()) < 1e-9, masses

        pi = stationary_pdf(gen)
        flow_up = pi[:-1] * gen.up[:-1]
        flow_down = pi[1:] * gen.down[1:]
        # stationary weights in the far tail are subnormal (a few significant
        # bits), so compare flows only where they are representable floats
        scale = np.maximum(np.maximum(flow_up, flow_down), 1e-300)
        rel = np.abs(flow_up - flow_down) / scale
        assert float(rel.max()) < 1e-8, float(rel.max())

        ens = simulate_sde(
            p, 0.5, Schedule.constant(0.2, 0.4), n_paths=10_000, master_seed=7, t_end=20.0
        )
        hist, _ = np.histogram(ens.terminal, bins=np.linspace(0.0, 1.0, 51))
        mc = hist / hist.sum()
        stat = (pi * width).reshape(50, 4).sum(axis=1)
        tv = 0.5 * float(np.abs(mc - stat).sum())
        assert tv < 0.05, tv


def test_06_long_time_distribution_level():
    with Gate("criterion 06 long-time pdf level", 60.0):
        p = reference_params()
        gen = build_generator(p, 0.2, 0.4, n_cells=200)
        pdf_inf = stationary_pdf(gen)
        mode = float(gen.grid.centers[int(np.argmax(pdf_inf))])
        mean, _ = stationary_moments(gen)
        # transient route from the half-charged start settles at the same level
        series = evolve_pdf(gen, point_mass_pdf(gen.grid, 0.5), [40.0 * p.C])
        mean_t = float((series.pdfs[-1] * gen.grid.centers).sum() * gen.grid.width)
        for value in (mode, mean, mean_t):
            assert 0.81 <= value <= 0.91, (mode, mean, mean_t)


def test_07_spectral_gap_oracles():
    with Gate("criterion 07 spectral gap oracles", 30.0):
        p = reference_params()
        gen = build_generator(p, 0.2, 0.4, n_cells=64)
        ev = np.sort(np.linalg.eigvals(dense(gen)).real)
        got, oracle = spectral_gap(gen), float(ev[-2])
        assert abs(got - oracle) < 1e-6 * abs(oracle), (got, oracle)

        two = GeneratorMatrix(
            grid=StateGrid(2), up=np.array([0.7, 0.0]), down=np.array([0.0, 1.3])
        )
        assert spectral_gap(two) == pytest.approx(-2.0, abs=1e-12)

        cfg_path = Path(__file__).resolve().parent.parent / "configs" / "fig11.json"
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        us = cfg["sweep"]["u_values"]
        us = np.linspace(us["start"], us["stop"], us["count"]) if isinstance(us, dict) else us
        for b in cfg["sweep"]["B_values"]:
            for u in us:
                g = spectral_gap(build_generator(p, float(u), float(b), n_cells=200))
                assert g < 0.0, (u, b, g)


def test_08_stochastic_certificates_and_noise_inversion():
    with Gate("criterion 08 stochastic certificates", 10.0):
        p = reference_params()
        eta1 = p.lam / p.C * 0.4

        bounded = certify_bounded(p, 0.0, 0.4)
        assert bounded.passed
        assert bounded.threshold == pytest.approx(p.sigma_x**2 / (32.0 * eta1), rel=1e-12)
        assert bounded.threshold == pytest.approx(2.32e-3, rel=0.01)

        stable = certify_stable(p, 0.0, 0.4, theta=0.5)
        assert stable.passed
        assert stable.threshold == 1.0  # min{1, 2 eta1 theta / sigma^2}
        assert stable_radius(p, 0.4, 0.5) == 1.0

        smax = max_stable_noise(p, 0.0, 0.4, target_radius=1.0, theta=0.5)
        assert smax == pytest.approx(np.sqrt(2.0 * eta1 * 0.5), rel=1e-12)
        below = certify_stable(p.with_sigma(0.999 * smax), 0.0, 0.4, theta=0.5)
        above = certify_stable(p.with_sigma(1.001 * smax), 0.0, 0.4, theta=0.5)
        assert below.passed and below.threshold == 1.0
        assert above.threshold < 1.0, above.threshold


def test_09_sweep_shapes():
    with Gate("criterion 09 sweep shapes", 120.0):
        p = reference_params()
        us = [round(float(v), 10) for v in np.linspace(0.0, 1.0, 11)]
        bs = (0.3, 0.5, 0.7)
        means: dict[tuple[float, float], float] = {}
        gaps: dict[float, float] = {}
        for b in bs:
            for u in us:
                gen = build_generator(p, u, b, n_cells=200)
                means[(u, b)] = stationary_moments(gen)[0]
                if b == 0.5:
                    gaps[u] = spectral_gap(gen)

        violations = [
            {"B": b, "u_from": u0, "u_to": u1,
             "mean_from": means[(u0, b)], "mean_to": means[(u1, b)]}
            for b in bs
            for u0, u1 in zip(us, us[1:])
            if means[(u1, b)] > means[(u0, b)] + 1e-9
        ]
        assert not violations, f"stationary mean increases with price at: {violations}"
        assert abs(gaps[0.1]) > abs(gaps[0.9]), (gaps[0.1], gaps[0.9])


def test_10_byte_determinism_across_threads(tmp_path):
    with Gate("criterion 10 byte-identical outputs across threads", 60.0):
        params = reference_params().to_dict()
        del params["basis"]
        sweep_body = {
            "params": params,
            "sweep": {
                "u_values": [0.2, 0.5, 0.8],
                "B_values": [0.4, 0.6],
                "n_cells": 32,
                "output": "sw.csv",
            },
        }
        sim_body = {
            "params": params,
            "seed": 77,
            "simulate": {
                "mode": "sde",
                "x0": 0.5,
                "schedule": {"u": 0.5, "B": 0.4},
                "t_end": 0.3,
                "n_paths": 1500,
                "sample_paths": 2,
                "output": "det.csv",
            },
        }
        jobs = (
            ("sweep", sweep_body, ["sw.csv"]),
            ("simulate", sim_body, ["det_summary.csv", "det_path01.csv", "det_path02.csv"]),
        )
        for cmd, body, files in jobs:
            cfg = tmp_path / f"{cmd}.json"
            cfg.write_text(json.dumps(body), encoding="utf-8")
            blobs = []
            for run, threads in enumerate((1, 4, 1)):
                out = tmp_path / f"{cmd}_{run}"
                rc = cli_main(
                    [cmd, "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
                )
                assert rc == 0
                blobs.append(b"".join((out / f).read_bytes() for f in files))
            assert blobs[0] == blobs[1] == blobs[2], f"{cmd} outputs differ across threads"
