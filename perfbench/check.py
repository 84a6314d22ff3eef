"""Correctness gate: verdicts, and outputs against a recorded reference.

Each job's CSV and verdict are split into an exact part and a float part.
The exact part (integer and label columns, every verdict field except the
config hash and the fitted slopes) must match the reference digest.  Float
columns must match within ``CSV_RTOL`` of the spectral scale: the largest
float magnitude in that CSV at the same ``r``.  Fitted slopes, which are
dimensionless exponents, must match within ``SLOPE_ATOL``.  Both tolerances
sit orders of magnitude above an ulp-level change, such as a switch to
another eigensolver, and far below any change to the expansion terms.

A reference entry is keyed by the job's command and config text, so jobs
that do not depend on the seed (``expansion``, ``cossum``) are checked at
every seed, and seed-dependent jobs at the seed the reference was recorded.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
from pathlib import Path

CSV_RTOL = 1e-12
SLOPE_ATOL = 1e-3

# Float CSV columns per subcommand; every other column is exact.
FLOAT_COLUMNS = {
    "expansion": ("exact", "predicted", "residual"),
    "gapgrowth": ("gap",),
    "cluster": ("gap", "required"),
}
# Verdict fields holding fitted slopes.
FLOAT_VERDICT = ("aggregate_slope", "min_pair_slope", "slopes")


def job_key(command: str, config: str | None, args) -> str:
    payload = json.dumps([command, config, list(args)])
    return hashlib.sha256(payload.encode()).hexdigest()


def _float(text: str) -> float | None:
    return None if text == "" else float(text)


def project(command: str, out: Path) -> dict:
    """The job's outputs as {"exact": digest, "csv_floats": ..., "verdict_floats": ...}."""
    with open(out / f"{command}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    float_cols = [i for i, h in enumerate(header) if h in FLOAT_COLUMNS.get(command, ())]
    exact_cols = [i for i in range(len(header)) if i not in float_cols]
    verdict = json.loads((out / f"{command}_verdict.json").read_text())
    exact = {
        "header": header,
        "rows": [[row[i] for i in exact_cols] for row in body],
        # "config" is the config hash: identity metadata, not an output.
        "verdict": {k: v for k, v in verdict.items() if k not in FLOAT_VERDICT and k != "config"},
    }
    r_col = header.index("r") if "r" in header else None
    return {
        "exact": hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest(),
        "csv_floats": {header[i]: [_float(row[i]) for row in body] for i in float_cols},
        "csv_r": [row[r_col] for row in body] if r_col is not None else None,
        "verdict_floats": {k: verdict[k] for k in FLOAT_VERDICT if k in verdict},
    }


def _slopes(value) -> dict:
    return value if isinstance(value, dict) else {"": value}


def compare(reference: dict, got: dict) -> list[str]:
    """Differences between a reference projection and a fresh one (empty if equal)."""
    if reference["exact"] != got["exact"]:
        return ["integer or label outputs differ from the reference"]
    problems = []
    scale: dict[str, float] = {}
    r_values = got["csv_r"] or [""] * len(next(iter(got["csv_floats"].values()), []))
    for column in reference["csv_floats"].values():
        for r, v in zip(r_values, column):
            if v is not None:
                scale[r] = max(scale.get(r, 0.0), abs(v))
    for name, want in reference["csv_floats"].items():
        have = got["csv_floats"][name]
        for row, (r, a, b) in enumerate(zip(r_values, want, have)):
            if (a is None) != (b is None) or (a is not None and abs(a - b) > CSV_RTOL * scale[r]):
                problems.append(f"column {name} row {row + 1}: {b!r} vs reference {a!r}")
                break
    for name, want in reference["verdict_floats"].items():
        want, have = _slopes(want), _slopes(got["verdict_floats"].get(name))
        if want.keys() != have.keys() or any(
            (a is None) != (b is None) or (a is not None and abs(a - b) > SLOPE_ATOL)
            for a, b in ((want[k], have[k]) for k in want)
        ):
            problems.append(f"verdict field {name} differs from the reference")
    return problems


def verdict_passed(command: str, out: Path) -> bool:
    path = out / f"{command}_verdict.json"
    return path.is_file() and json.loads(path.read_text()).get("pass") is True


def load_reference(path: Path) -> dict:
    if not path.is_file():
        return {}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(path: Path, entries: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(entries, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)
