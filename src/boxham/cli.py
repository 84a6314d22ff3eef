"""Command-line driver for the experiment harness.

Nine subcommands, each reading an experiment config (except ``cossum``, which
takes its moduli on the command line), writing a fixed-schema CSV plus a JSON
verdict into the output directory, and exiting 0 when every assertion passed,
1 on an assertion failure, 2 on a configuration problem.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path

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


# Subcommand -> (CSV header, driver).  A driver takes the loaded config (the
# moduli for cossum) and returns (rows, failures) or (rows, failures, extras),
# the extras being merged into the verdict.
_EXPERIMENTS = {
    "partition": (["box", "sites", "first_site", "last_site"], harness.partition_survey),
    "expansion": (
        ["l", "a", "b", "r", "n", "exact", "predicted", "residual"],
        harness.expansion_sweep,
    ),
    "cluster": (
        ["r", "pair_a", "pair_b", "gap_class", "gap", "required", "satisfied"],
        harness.cluster_sweep,
    ),
    "separation": (
        ["draw", "epsilon", "delta", "min_gap", "threshold", "passed"],
        harness.separation_sweep,
    ),
    "cossum": (["ps", "ns"], harness.nonvanishing_survey),
    "multiplicity": (
        ["seed", "r", "max_multiplicity", "histogram", "escalated"],
        harness.multiplicity_scan,
    ),
    "constancy": (["z", "lambda", "max_multiplicity", "note"], harness.constancy_scan),
    "rankcheck": (["seed", "rank", "expected", "full"], harness.rank_sweep),
    "gapgrowth": (
        ["pair_a", "pair_b", "gap_class", "r", "gap", "floored"],
        harness.gap_growth_probe,
    ),
}


def _run(args) -> int:
    name = args.command
    header, driver = _EXPERIMENTS[name]
    if name == "cossum":
        subject = _moduli(args.p)
        config_hash = hashlib.sha256(",".join(str(p) for p in subject).encode()).hexdigest()
        out = args.out
    else:
        subject = harness.load_config(args.config)
        config_hash = subject.config_hash()
        out = args.out or subject.output_dir
    rows, failures, *extra = driver(subject)
    out = Path(out or "results")
    csv_path = harness.write_csv(out / f"{name}.csv", header, rows)
    harness.write_verdict(out / f"{name}_verdict.json", name, config_hash, failures, *extra)
    status = "PASS" if not failures else f"FAIL ({len(failures)} failure(s))"
    print(f"{name}: {status}; {len(rows)} rows -> {csv_path}")
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
