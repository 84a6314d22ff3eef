"""One workload in a fresh interpreter: set up, then run passes over its jobs.

    python3 perfbench/worker.py MANIFEST --mode setup|measure|trace --seconds S

``run.py`` writes MANIFEST (the jobs, their config files and output
directories) and starts this script with ``src/`` on ``PYTHONPATH``.  Set-up
is importing ``boxham`` (numpy and scipy with it) and loading every config
the workload reads.  ``measure`` then runs untraced passes until ``S``
seconds of passes have run; ``trace`` alternates untraced and traced passes
over the same time.  The last line of standard output is a JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from check import verdict_passed


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_pass(cli, jobs: list[dict]) -> dict:
    """One pass over every job; wall and CPU seconds cover the CLI calls only."""
    for job in jobs:
        shutil.rmtree(job["out"], ignore_errors=True)
    codes, walls = [], []
    sink = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                codes.append(cli.main(job["argv"]))
        except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
            traceback.print_exc()
            codes.append(f"{type(exc).__name__}: {exc}")
        walls.append(time.perf_counter() - start)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    results = [
        {
            "name": job["name"],
            "wall_s": job_wall,
            "exit": code,
            "verdict_pass": verdict_passed(job["command"], Path(job["out"])),
            "digest": _digest(Path(job["out"])),
        }
        for job, code, job_wall in zip(jobs, codes, walls)
    ]
    return {"wall_s": wall, "cpu_s": cpu, "jobs": results}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    manifest = json.loads(Path(args.manifest).read_text())
    jobs = manifest["jobs"]

    t0 = time.perf_counter()
    import boxham.cli as cli
    from boxham import harness

    for job in jobs:
        if job["config"] is not None:
            harness.load_config(job["config"])
    setup_s = time.perf_counter() - t0

    src = Path(manifest["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"boxham was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "passes": []}
    if args.mode != "setup":
        trace = args.mode == "trace"
        if trace:
            from spans import Tracer
        passes, spent = result["passes"], 0.0
        # A traced run alternates untraced and traced passes: at least an
        # untraced first pass (it pays first-call costs), a traced one and an
        # untraced one to compare it with.
        while spent < args.seconds or len(passes) < (3 if trace else 1):
            if trace and len(passes) % 2 == 1:
                with Tracer() as tracer:
                    one = run_pass(cli, jobs)
                one["layers"] = tracer.summary(manifest["cells"])
            else:
                one = run_pass(cli, jobs)
            one["traced"] = "layers" in one
            passes.append(one)
            spent += one["wall_s"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
