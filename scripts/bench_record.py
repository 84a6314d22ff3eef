#!/usr/bin/env python3
"""Run perfbench on one or more checkouts and record the runs in BENCH_<label>.json.

    python3 scripts/bench_record.py LABEL [--checkout NAME=DIR ...] -- RUN_ARGS...

Each checkout (by default this repository, named "change") runs
``python3 perfbench/run.py RUN_ARGS`` from its own root, in the order given.
Per run the file keeps the checkout's name, its git SHA, whether ``src/`` or
``perfbench/`` differ from that SHA, the command, the ``host`` line, the
summary lines (pass count, wall_s min and max per workload) and the final
result JSON.  The file lands in this repository.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(text: str) -> dict:
    """The host line, summary lines and final JSON of one run.py output."""
    lines = text.strip().splitlines()
    host = next(json.loads(line[5:]) for line in lines if line.startswith("host "))
    summary = [line.strip() for line in lines if line.startswith("== ") or "wall_s over" in line]
    return {"host": host, "summary": summary, "result": json.loads(lines[-1])}


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True).stdout.strip()


def record(name: str, checkout: Path, run_args: list[str]) -> dict:
    command = ["python3", "perfbench/run.py", *run_args]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return {
        "name": name,
        "git_sha": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "command": command,
        **parse(proc.stdout),
    }


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--checkout", action="append", metavar="NAME=DIR", help="default: change=<this repo>")
    args = ap.parse_args(argv[:split])
    run_args = argv[split + 1 :]
    checkouts = [c.split("=", 1) for c in args.checkout or [f"change={ROOT}"]]
    if any(len(c) != 2 for c in checkouts):
        ap.error("--checkout takes NAME=DIR")
    runs = [record(name, Path(path), run_args) for name, path in checkouts]
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, "runs": runs}, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
