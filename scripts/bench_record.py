#!/usr/bin/env python3
"""Run perfbench on one or more checkouts and record the runs in BENCH_<label>.json.

    python3 scripts/bench_record.py LABEL [--checkout NAME=DIR ...] [--rounds N] -- RUN_ARGS...

Each checkout (by default this repository, named "change") runs
``python3 perfbench/run.py RUN_ARGS`` from its own root, once per round: in
the order given on even rounds (the first is round 0) and in reverse order
on odd ones, so that a drift in the host's speed favours no side.  Per run
the file keeps the round, the checkout's name, its git SHA, whether ``src/``
or ``perfbench/`` differ from that SHA, the command, the ``host`` line, the
summary lines (pass count, wall_s min and max per workload) and the final
result JSON; ``medians`` holds, per checkout and metric, the median over its
runs, and ``quartiles`` the first and third quartiles (``statistics.quantiles``,
inclusive method).  With two checkouts, ``lower_in`` counts, per checkout
and metric, the rounds in which that checkout read lower than the other;
a tie counts for neither.  ``gain_shown`` then tells, per metric, whether
the second checkout showed a gain over the first, the parent: it read lower
in at least nine tenths of the rounds, and its median is below the first's
by more than the first's interquartile range.  Every perfbench metric is
better lower.  The file lands in this repository.
"""

import argparse
import json
import statistics
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


def _values(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    """Per checkout name and metric, the metric's values over the runs, in run order."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        side = values.setdefault(run["name"], {})
        for metric, entry in run["result"]["metrics"].items():
            side.setdefault(metric, []).append(entry["value"])
    return values


def medians(runs: list[dict]) -> dict[str, dict[str, float]]:
    """Per checkout name and metric, the median of the metric's values over the runs."""
    return {
        name: {metric: statistics.median(v) for metric, v in side.items()}
        for name, side in _values(runs).items()
    }


def quartiles(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    """Per checkout name and metric, [first quartile, third quartile] of its values."""

    def q1_q3(v: list[float]) -> list[float]:
        if len(v) < 2:
            return [v[0], v[0]]
        q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive")
        return [q1, q3]

    return {
        name: {metric: q1_q3(v) for metric, v in side.items()}
        for name, side in _values(runs).items()
    }


def lower_in(runs: list[dict]) -> dict[str, dict[str, int]]:
    """Per checkout of two and metric, the rounds in which it read lower; ties count for neither."""
    rounds: dict[int, list[dict]] = {}
    for run in runs:
        rounds.setdefault(run["round"], []).append(run)
    counts: dict[str, dict[str, int]] = {}
    for pair in rounds.values():
        for run, other in (pair, pair[::-1]):
            side = counts.setdefault(run["name"], {})
            theirs = other["result"]["metrics"]
            for metric, entry in run["result"]["metrics"].items():
                side[metric] = side.get(metric, 0) + (entry["value"] < theirs[metric]["value"])
    return counts


def gain_shown(runs: list[dict], first: str, second: str) -> dict[str, bool]:
    """Per metric, whether ``second`` read lower than ``first`` in 9 of 10 rounds and beyond its IQR."""
    rounds = len({run["round"] for run in runs})
    wins, mid, quart = lower_in(runs)[second], medians(runs), quartiles(runs)
    return {
        metric: 10 * wins[metric] >= 9 * rounds
        and mid[first][metric] - mid[second][metric] > quart[first][metric][1] - quart[first][metric][0]
        for metric in wins
    }


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
    ap.add_argument("--rounds", type=int, default=1, help="runs per checkout, alternating the order")
    args = ap.parse_args(argv[:split])
    run_args = argv[split + 1 :]
    checkouts = [c.split("=", 1) for c in args.checkout or [f"change={ROOT}"]]
    if any(len(c) != 2 for c in checkouts):
        ap.error("--checkout takes NAME=DIR")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    runs = []
    for round_ in range(args.rounds):
        for name, path in checkouts[:: -1 if round_ % 2 else 1]:
            runs.append({"round": round_, **record(name, Path(path), run_args)})
    out = ROOT / f"BENCH_{args.label}.json"
    doc = {
        "label": args.label,
        "rounds": args.rounds,
        "runs": runs,
        "medians": medians(runs),
        "quartiles": quartiles(runs),
    }
    if len(checkouts) == 2:
        doc["lower_in"] = lower_in(runs)
        doc["gain_shown"] = gain_shown(runs, checkouts[0][0], checkouts[1][0])
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
