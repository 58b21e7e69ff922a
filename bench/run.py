"""flexfunc benchmark: seed-driven CLI workloads, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload ode_fan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Each pass of a workload runs in a fresh single-threaded Python process
(``passrun.py``) that imports ``src/flexfunc``, writes the seed's configs to
a temporary directory under ``.bench_out/`` and calls ``flexfunc.cli.main``
once per job.  Passes repeat until ``--seconds`` is used up.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json: the
mean wall time of a pass, the least set-up time (set-up-only processes
between the passes add samples) and the median peak memory.  With
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones (medians over the traced passes) plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The benchmark's own tests: ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("ode_fan", "mc_ensemble", "gap_density")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3  # untraced passes per run; a traced run makes at least 2 of each kind
SETUP_SPAWNS = 2  # set-up-only processes after each untraced pass, for more setup_s samples
# How a run turns its samples into one figure.  The host switches between a
# fast and a slow speed state that each last tens of seconds, so a run's
# median jumps to whichever state held most of the run; the mean of the
# passes weights each state by its share of the run and varies much less
# from run to run.  Set-up is sampled three times per untraced pass and the
# host only ever slows it down, so its minimum is the steadiest figure.
AGGREGATE = {"wall_s": statistics.fmean, "setup_s": min, "peak_rss_mb": statistics.median}
PASS_TIMEOUT_S = 100  # a run must end within 180 s even if its last pass hangs


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def git_commit() -> str:
    """Commit of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),  # never look above the checkout
            capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_pass(
    workload: str, seed: int, trace: bool, small: bool, check: bool = False, setup_only: bool = False
) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "passrun.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--work-dir", str(OUT),
        "--trace-file", str(OUT / f"spans_{workload}_seed{seed}.json"),
    ]
    if small:
        cmd.append("--small")
    if check:
        cmd.append("--check")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--started", repr(started)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool):
    """Untraced passes, and traced ones alternating with them when ``trace``.

    The first pass runs the output checkers; every later pass must leave
    byte-identical outputs, since the CLI is deterministic for a fixed seed.
    Set-up-only processes follow each untraced pass, so that the set-up
    samples, like the passes, are spread over the whole run.
    """
    plain, traced, setups = [], [], []
    start = time.monotonic()
    while True:
        plain.append(run_pass(workload, seed, False, small, check=not plain))
        setups.append(plain[-1]["setup_s"])
        if trace:
            traced.append(run_pass(workload, seed, True, small))
        else:
            for _ in range(SETUP_SPAWNS):
                setups.append(run_pass(workload, seed, False, small, setup_only=True)["setup_s"])
        done = len(plain)
        elapsed = time.monotonic() - start
        enough = done >= (2 if trace else MIN_PASSES)
        if enough and elapsed * (done + 1) / done > seconds:
            return plain, traced, setups


def job_failures(checked: dict, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Jobs attempted, jobs failed and failure messages over all passes."""
    attempted, failed, messages = 0, 0, set()
    for p in passes:
        for i, name in enumerate(p["job_names"]):
            attempted += 1
            if p is checked:
                found = checked["problems"][i]
            elif p["exit_codes"][i] != 0:
                found = [f"{name}: exit code {p['exit_codes'][i]}"]
            elif p["digests"][i] != checked["digests"][i]:
                found = [f"{name}: outputs differ from the checked pass"]
            else:  # same bytes as the checked pass, so the same verdict
                found = checked["problems"][i]
            failed += bool(found)
            messages.update(found)
    return attempted, failed, sorted(messages)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool, spec: dict):
    plain, traced, setups = measure(workload, seed, seconds, trace, small)
    passes = plain + traced
    attempted, failed, problems = job_failures(plain[0], passes)
    if trace:
        metrics = {
            m["name"]: statistics.median(p["layers"][m["name"]] for p in traced)
            for m in spec["per_layer"]
            if m["name"] != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.fmean(p["wall_s"] for p in traced) - statistics.fmean(
            p["wall_s"] for p in plain
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        samples = {
            "wall_s": [p["wall_s"] for p in plain],
            "setup_s": setups,
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        metrics = {m["name"]: AGGREGATE[m["name"]](samples[m["name"]]) for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "env": passes[0]["env"],
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": setups,
        "failed_frac": failed / attempted,
        "problems": problems,
        "raw": passes,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{workload}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    env = record["env"]
    print(
        f"# {workload} seed={seed} passes={len(plain)}+{len(traced)} traced "
        f"commit={record['commit']} nproc={record['nproc']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']}"
    )
    for msg in problems:
        print(f"# FAILED {msg}")
    for name, value in metrics.items():
        print(f"{workload:18s} {name:36s} {value:14.6g} {units[name]}")
    print(f"{workload:18s} {'failed_frac':36s} {failed / attempted:14.6g} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (ROOT / "src" / "flexfunc" / "__init__.py").is_file():
        print(f"error: no flexfunc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [
            run_workload(name, args.seed, args.seconds, bool(args.trace), args.small, spec)
            for name in names
        ]
    except (HarnessError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
