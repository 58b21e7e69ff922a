"""Tests of the benchmark itself: checkers reject bad outputs, smoke run passes.

Run with ``python3 -m pytest -q bench/test_bench.py`` from the repository root.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from flexfunc import cli  # noqa: E402


@pytest.fixture
def jobs(tmp_path):
    """The generator workload's jobs, run at reduced size, by name."""
    built = workloads.build("gap_density", 7, tmp_path, small=True)
    for job in built:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(job.argv()) == 0
    return {job.name: job for job in built}


def rewrite_csv(path, edit):
    header = path.read_text(encoding="utf-8").splitlines()[0]
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    edit(table)
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in table]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_clean_outputs_pass(jobs):
    for job in jobs.values():
        assert checks.check_job(job, 0) == []


def test_pdf_with_mass_09_is_rejected(jobs):
    job = jobs["fig5"]
    path = job.out_dir / job.outputs[0]  # transient pdf
    first = np.loadtxt(path, delimiter=",", skiprows=1)[0, 0]

    def shrink(table):
        table[table[:, 0] == first, 2] *= 0.9

    rewrite_csv(path, shrink)
    assert any("mass" in msg for msg in checks.check_job(job, 0))


def test_perturbed_gap_is_rejected(jobs):
    job = jobs["sweep_fine"]

    def perturb(table):
        table[0, 4] *= 1.0 + 1e-3

    rewrite_csv(job.out_dir / job.outputs[0], perturb)
    assert any("eigensolver" in msg for msg in checks.check_job(job, 0))


def test_exit_code_1_is_rejected(jobs):
    assert checks.check_job(jobs["sweep_fig9"], 1) == ["sweep_fig9: exit code 1"]


def test_missing_file_is_rejected(jobs):
    job = jobs["fine"]
    (job.out_dir / job.outputs[-1]).unlink()
    assert any("missing" in msg for msg in checks.check_job(job, 0))


def test_repeats_of_a_failed_check_count_as_failed():
    checked = {"job_names": ["a"], "exit_codes": [0], "digests": ["x"], "problems": [["a: bad"]]}
    repeat = dict(checked, problems=[])
    assert run.job_failures(checked, [checked, repeat, repeat]) == (3, 3, ["a: bad"])


def test_cli_main_self_time_is_unattributed():
    tracer = tracing.Tracer()
    tracer.job = "job"
    tracer._wrap("cli.main", lambda: sum(range(10000)))()
    assert tracer.metrics(1.0)["trace.coverage"] == 0.0


def test_smoke_run_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--small", "--seconds", "1", "--seed", "3"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    for res in results:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
