"""Command-line driver for the experiment harness.

Nine subcommands, each reading an experiment config (except ``cossum``, which
takes its moduli on the command line) and running one ``harness`` driver.
The driver's columns become a fixed-schema CSV, and its checks the failure
records of a JSON verdict, both written into the output directory; the exit
code is 0 when every check passed, 1 on a check failure, 2 on a
configuration problem.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import BoxhamError, ConfigError, VolumeError


def _moduli(text: str) -> tuple[int, ...]:
    try:
        ps = tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"--p must be comma-separated integers, got {text!r}", line=None, field="p")
    if not ps:
        raise ConfigError("--p must name at least one modulus", line=None, field="p")
    return ps


# Subcommand -> driver.  A driver takes the loaded config (the moduli for
# cossum) and returns a harness.Result: the CSV columns by header, the checks
# that failure_records turns into the verdict's failures, and the verdict
# extras.
_EXPERIMENTS = {
    "partition": harness.partition_survey,
    "expansion": harness.expansion_sweep,
    "cluster": harness.cluster_sweep,
    "separation": harness.separation_sweep,
    "cossum": harness.nonvanishing_survey,
    "multiplicity": harness.multiplicity_scan,
    "constancy": harness.constancy_scan,
    "rankcheck": harness.rank_sweep,
    "gapgrowth": harness.gap_growth_probe,
}


def failure_records(checks: list[harness.Check]) -> list[dict]:
    """The verdict's failure records, one per failing case of ``checks``.

    Consecutive checks over equally many cases are read case by case, so a
    multiplicity cell that breaks both its bound and simplicity lists both
    records together; otherwise checks follow in declared order.  Fields are
    held as the verdict JSON holds them: numpy scalars as Python ones, tuples
    as lists.
    """
    records = []
    for _, run in itertools.groupby(checks, key=lambda check: len(check.passed)):
        failing = [(k, c) for c in run for k in np.flatnonzero(np.logical_not(c.passed))]
        for k, c in sorted(failing, key=lambda pair: pair[0]):
            fields = {**c.shared, **{key: column[k] for key, column in c.per_case.items()}}
            fields = json.loads(json.dumps(fields, default=np.generic.item))
            records.append({"check": c.name, **fields})
    return records


def _run(args) -> int:
    name = args.command
    driver = _EXPERIMENTS[name]
    if name == "cossum":
        subject = _moduli(args.p)
        config_hash = hashlib.sha256(",".join(str(p) for p in subject).encode()).hexdigest()
        out = args.out
    else:
        subject = harness.load_config(args.config)
        config_hash = subject.config_hash()
        out = args.out or subject.output_dir
    result = driver(subject)
    out = Path(out or "results")
    csv_path = harness.write_csv(out / f"{name}.csv", result.columns)
    failures = failure_records(result.checks)
    harness.write_verdict(out / f"{name}_verdict.json", name, config_hash, failures, result.extras)
    status = "PASS" if not failures else f"FAIL ({len(failures)} failure(s))"
    rows = len(next(iter(result.columns.values())))
    print(f"{name}: {status}; {rows} rows -> {csv_path}")
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 0 if not failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="boxham",
        description="Block-disorder lattice operator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        if name == "cossum":
            p.add_argument("--p", required=True, help="comma-separated moduli, e.g. 5,7")
        else:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (default: results/)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        location = ""
        if exc.line is not None:
            location += f" (line {exc.line})"
        if exc.field:
            location += f" [field {exc.field}]"
        print(f"config error{location}: {exc}", file=sys.stderr)
        return 2
    except (VolumeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BoxhamError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
