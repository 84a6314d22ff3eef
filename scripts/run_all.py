#!/usr/bin/env python3
"""Run every experiment config in configs/ and summarize the verdicts.

Each config file is named <subcommand>_<variant>.cfg; output lands in
results/<variant>/.  Each status line ends with the first 12 hex digits of
the sha256 of the CSV and of the verdict JSON the run wrote ("-" for a file
it did not write), so comparing two runs' outputs byte for byte is
comparing their status lines.  Exits with
the worst exit code seen, so this doubles as a one-shot smoke run of the
whole harness.

    python3 scripts/run_all.py [--configs DIR] [--out DIR]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from boxham import cli


def _digest(path: Path, mtime: int | None) -> str:
    """First 12 hex digits of the sha256 of ``path``; "-" unless written since ``mtime``."""
    if not path.exists() or path.stat().st_mtime_ns == mtime:
        return "-"
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", default=None, help="config directory (default: repo configs/)")
    ap.add_argument("--out", default="results", help="output root (default: results/)")
    args = ap.parse_args()

    cfg_dir = Path(args.configs) if args.configs else Path(__file__).resolve().parent.parent / "configs"
    configs = sorted(cfg_dir.glob("*.cfg"))
    if not configs:
        print(f"no .cfg files under {cfg_dir}", file=sys.stderr)
        return 2

    worst = 0
    width = max(len(p.stem) for p in configs)
    for path in configs:
        subcommand, _, variant = path.stem.partition("_")
        out = Path(args.out) / (variant or subcommand)
        files = [out / f"{subcommand}.csv", out / f"{subcommand}_verdict.json"]
        before = [f.stat().st_mtime_ns if f.exists() else None for f in files]
        t0 = time.perf_counter()
        code = cli.main([subcommand, "--config", str(path), "--out", str(out)])
        elapsed = time.perf_counter() - t0
        csv, verdict = map(_digest, files, before)
        print(f"{path.stem:<{width}}  exit {code}  {elapsed:6.2f}s  csv {csv}  verdict {verdict}")
        worst = max(worst, code)
    print("overall:", "PASS" if worst == 0 else f"exit {worst}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
