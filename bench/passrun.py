"""One pass of one workload, in the fresh process ``run.py`` starts for it.

Set-up (import, config generation, one ``validate``) is timed from the
moment the parent spawned this process; with ``--setup-only`` the process
reports that time and exits without running the jobs.  The jobs then run back to back
through ``flexfunc.cli.main``; their outputs are checked afterwards,
outside the timed region.  The pass result is the last line of stdout.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_job(cli, job) -> tuple[int, str]:
    """Exit code and captured output of one CLI job.  A traceback counts as exit 1."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(job.argv())
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crashing job is a failed job, not a crashed pass
            traceback.print_exc(file=buf)
            code = 1
    return code, buf.getvalue()


def digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every file a job wrote."""
    h = hashlib.sha256()
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--started", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--check", action="store_true", help="run the output checkers")
    ap.add_argument("--setup-only", action="store_true", help="stop when ready and report setup_s alone")
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path, required=True, help="where a traced pass writes its spans")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import flexfunc
    import flexfunc.cli as cli

    if Path(flexfunc.__file__).resolve().parent != SRC / "flexfunc":
        print(f"flexfunc imported from {flexfunc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = Path(tempfile.mkdtemp(dir=args.work_dir))
    try:
        jobs = workloads.build(args.workload, args.seed, work, small=args.small)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        params = flexfunc.model.FlexParams.from_dict(jobs[0].config["params"])
        if not flexfunc.model.validate(params).ok:
            print("generated params do not validate", file=sys.stderr)
            return 2
        setup_s = time.monotonic() - args.started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        codes, job_s = [], []
        t0 = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            codes.append(run_job(cli, job))
            job_s.append(time.perf_counter() - t0 - sum(job_s))
        wall_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        layer_metrics = {}
        if tracer is not None:
            tracer.uninstall()
            layer_metrics = tracer.metrics(wall_s)
            layer_metrics["cli.bytes_written"] = sum(
                f.stat().st_size for job in jobs if job.out_dir.is_dir() for f in job.out_dir.iterdir()
            )
            tracer.dump(args.trace_file)

        digests = [digest(job.out_dir) for job in jobs]
        problems = []
        if args.check:
            import checks

            for job, (code, output) in zip(jobs, codes):
                found = checks.check_job(job, code)
                if found and code != 0:
                    found.append(output.strip()[-2000:])
                problems.append(found)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "job_names": [job.name for job in jobs],
        "job_s": job_s,
        "exit_codes": [code for code, _ in codes],
        "digests": digests,
        "problems": problems,
        "layers": layer_metrics,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
