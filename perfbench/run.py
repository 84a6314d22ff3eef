#!/usr/bin/env python3
"""boxham benchmark: three workloads through ``boxham.cli.main``.

    python3 perfbench/run.py --workload volume3d|extended2d|spectral_exact|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout: the program is imported from its ``src/``.  Each
workload runs in a fresh interpreter (``worker.py``) from generated config
files, in a temporary directory under ``.perfbench_tmp/``, to CSV and verdict
files on disk.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see NOTES.md).  Every
job is checked: exit code 0, a passing verdict, identical bytes on every
pass, and agreement with the reference in ``reference/`` (see check.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Thread settings such
as ``OPENBLAS_NUM_THREADS`` are reported as found and never set.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
SETUP_PROBES = 5
DEADLINE_S = 170.0  # one workload's whole run, set-up probes included


class BenchError(RuntimeError):
    pass


def host() -> dict:
    """Provenance: machine, interpreter, libraries, BLAS, git SHA, thread env."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def spawn(manifest: Path, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), "--mode", mode]
    cmd += ["--seconds", repr(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting the worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def write_manifest(wl: workloads.Workload, tmp: Path) -> Path:
    jobs = []
    for job in wl.jobs:
        out = tmp / "out" / job.name
        argv = [job.command, *job.args]
        cfg = None
        if job.config is not None:
            cfg = tmp / "configs" / f"{job.name}.cfg"
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(job.config)
            argv += ["--config", str(cfg)]
        argv += ["--out", str(out)]
        jobs.append(
            {"name": job.name, "command": job.command, "config": cfg and str(cfg), "argv": argv, "out": str(out)}
        )
    path = tmp / "manifest.json"
    path.write_text(json.dumps({"src": str(ROOT / "src"), "cells": wl.cells, "jobs": jobs}))
    return path


def check_jobs(wl: workloads.Workload, res: dict, tmp: Path, reference: dict) -> tuple[int, int, list[str], int]:
    """(attempted, failed, problems, reference-checked jobs) over every pass."""
    problems = []
    final = {j["name"]: j["digest"] for j in res["passes"][-1]["jobs"]}
    mismatched = set()
    checked = 0
    for job in wl.jobs:
        want = reference.get(check.job_key(job.command, job.config, job.args))
        if want is None:
            continue
        checked += 1
        try:
            diffs = check.compare(want, check.project(job.command, tmp / "out" / job.name))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            diffs = [f"outputs unreadable: {exc}"]
        if diffs:
            mismatched.add(job.name)
            problems += [f"{job.name}: {d}" for d in diffs]
    attempted = failed = 0
    for i, one in enumerate(res["passes"]):
        for j in one["jobs"]:
            attempted += 1
            why = []
            if j["exit"] != 0:
                why.append(f"exit {j['exit']}")
            if not j["verdict_pass"]:
                why.append("verdict did not pass")
            if j["digest"] != final[j["name"]]:
                why.append("outputs differ from the last pass")
            if j["name"] in mismatched:
                why.append("outputs differ from the reference")
            if why:
                failed += 1
                problems.append(f"pass {i + 1} job {j['name']}: " + ", ".join(why))
    return attempted, failed, problems, checked


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a ({n} passes; a tail percentile needs at least 11)"
    k = n - 10
    return f"p{100 * k // n} = {sorted(values)[k - 1]:.4f} s"


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    walls = [p["wall_s"] for p in res["passes"]]
    cpus = [p["cpu_s"] for p in res["passes"]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    per_job = {
        j["name"]: statistics.median(p["jobs"][i]["wall_s"] for p in res["passes"])
        for i, j in enumerate(res["passes"][0]["jobs"])
    }
    notes = [
        f"wall_s over {len(walls)} passes: min {min(walls):.4f}, max {max(walls):.4f}; tail {tail(walls)}",
        "median wall_s per job: " + ", ".join(f"{k} {v:.4f}" for k, v in per_job.items()),
        f"setup_s over {len(setups)} fresh interpreters: min {min(setups):.4f}, max {max(setups):.4f}",
    ]
    return metrics, notes


def per_layer(res: dict) -> tuple[dict, list[str], list[str]]:
    traced = [p for p in res["passes"] if p["traced"]]
    plain = [p for p in res["passes"][1:] if not p["traced"]]  # the first pass warms up
    exact_keys = [k for k in traced[0]["layers"] if not k.endswith(".self_s")]
    problems = []
    for p in traced[1:]:
        moved = [k for k in exact_keys if p["layers"][k] != traced[0]["layers"][k]]
        if moved:
            problems.append(f"exact counts differ between traced passes: {', '.join(moved)}")
    metrics = {}
    for key in traced[0]["layers"]:
        if key.endswith(".self_s"):
            value = statistics.median(p["layers"][key] for p in traced)
            unit = "s"
        else:
            value = traced[0]["layers"][key]
            unit = spans.COUNTS.get(key, "count")
        metrics[key] = (value, unit)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    notes = [
        f"traced wall_s {traced_wall:.4f} over {len(traced)} passes, "
        f"untraced {plain_wall:.4f} over {len(plain)}; outputs compared byte for byte"
    ]
    return metrics, notes, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, record: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    wl = workloads.build(name, seed, tiny)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=scratch) as tmp_name:
            tmp = Path(tmp_name)
            manifest = write_manifest(wl, tmp)
            probes = 0 if trace else SETUP_PROBES - 1
            setups = [spawn(manifest, "setup", 0.0, deadline)["setup_s"] for _ in range(probes)]
            res = spawn(manifest, "trace" if trace else "measure", seconds, deadline)
            setups.append(res["setup_s"])
            ref_path = REFERENCE / f"{name}.json.gz"
            reference = check.load_reference(ref_path)
            if record:
                record_reference(wl, res, tmp, ref_path, reference)
            attempted, failed, problems, checked = check_jobs(wl, res, tmp, reference)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    if trace:
        metrics, notes, count_problems = per_layer(res)
        problems += count_problems
    else:
        metrics, notes = end_to_end(res, setups)
    return {
        "name": name,
        "seed": seed,
        "passes": len(res["passes"]),
        "jobs": len(wl.jobs),
        "reference_checked": checked,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "metrics": metrics,
        "notes": notes,
    }


def record_reference(wl, res: dict, tmp: Path, path: Path, reference: dict) -> None:
    """Store this run's outputs as the reference for its jobs (only if all passed)."""
    if any(j["exit"] != 0 or not j["verdict_pass"] for p in res["passes"] for j in p["jobs"]):
        raise BenchError("refusing to record a reference from failing jobs")
    for job in wl.jobs:
        got = check.project(job.command, tmp / "out" / job.name)
        got.pop("csv_r")
        reference[check.job_key(job.command, job.config, job.args)] = got
    check.save_reference(path, reference)


def report(run: dict) -> None:
    print(
        f"== {run['name']} seed {run['seed']}: {run['passes']} passes x {run['jobs']} jobs, "
        f"{run['reference_checked']} of {run['jobs']} jobs have a reference at this seed"
    )
    for key, (value, unit) in run["metrics"].items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    frac = run["failed"] / run["attempted"]
    print(f"  {'fail_frac':<44} {frac:>14.6g} ({run['failed']}/{run['attempted']} jobs)")
    for line in run["notes"]:
        print(f"  {line}")
    for line in run["problems"]:
        print(f"  FAIL {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="seconds of passes to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken jobs, for the smoke test")
    ap.add_argument(
        "--record-reference", action="store_true", help="store this run's outputs in reference/"
    )
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "boxham" / "cli.py").is_file():
        print(f"no boxham sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so the running worker is killed and
    # waited for and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    print("host " + json.dumps(host(), sort_keys=True))
    runs = []
    try:
        for name in names:
            runs.append(
                run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny, args.record_reference)
            )
            report(runs[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    prefix = len(runs) > 1
    metrics = {
        (f"{run['name']}.{key}" if prefix else key): {"value": value, "unit": unit}
        for run in runs
        for key, (value, unit) in run["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(run["correct"] for run in runs),
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
