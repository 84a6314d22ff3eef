"""Experiment driver: reproducible disorder sweeps and their reports.

Everything here is deterministic plumbing around the math modules: a flat
key-value config format, seeded disorder sampling, the multiplicity /
constancy / rank / gap-growth scans, and fixed-schema CSV + JSON output whose
bytes depend only on the config (17-significant-digit float formatting,
ordered rows, sorted JSON keys).  Every scan is one serial loop over seeds
(and r values), so rows come out in (seed, r) order.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .cluster import (
    ClassTable,
    admissibility,
    class_table,
    cluster_indices,
    degeneracy_tolerance,
    mode_resolved_spectrum,
    verify_gaps,
)
from .cyclotomic import verify_nonvanishing
from .errors import ConfigError, SpectralProximityError, VolumeError
from .lattice import (
    BoxPartition,
    DisorderSample,
    LatticeOperator,
    box_mask,
    box_sites,
    build_hamiltonian,
    build_partition,
    face_product,
    neighbor_sum_identity,
    partition_of_unity_holds,
)
from .resolvent import (
    PROXIMITY_FLOOR,
    precision_guard,
    restricted_resolvent,
    schur_reduced,
)
from .separation import (
    design_intervals,
    draw_coefficients,
    epsilon_delta,
    midpoint_coefficients,
    sine_system,
    verify_separation,
)
from .tridiag import TridiagSpec, exact_spectrum, predicted_grid

_DEFAULT_Z = (30.0, 37.5, 45.0, 52.5, 60.0)


def _scalar(kind):
    """Parser for one int or finite float value."""

    def parse(text: str, key: str, line: int):
        try:
            value = kind(text)
        except ValueError:
            raise ConfigError(
                f"field {key}: cannot parse {text!r} as {kind.__name__}",
                line=line,
                field=key,
            ) from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(
                f"field {key}: {text!r} is not a finite number", line=line, field=key
            )
        return value

    return parse


def _list_of(kind):
    """Parser for a non-empty comma-separated list of int or float values."""
    one = _scalar(kind)

    def parse(text: str, key: str, line: int) -> tuple:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"field {key}: empty list", line=line, field=key)
        return tuple(one(p, key, line) for p in parts)

    return parse


_INT, _FLOAT = _scalar(int), _scalar(float)
_INTS, _FLOATS = _list_of(int), _list_of(float)


def _text(text: str, key: str, line: int) -> str:
    return text


def _parse_precision(text: str, key: str, line: int) -> str:
    if text not in ("standard", "extended"):
        raise ConfigError(
            f"{key} must be standard|extended, got {text!r}", line=line, field=key
        )
    return text


def _parse_lambda(text: str, key: str, line: int) -> dict:
    """An explicit boost list, or ``from_lem4:<delta>``; sets three fields."""
    if text.startswith("from_lem4:"):
        delta = _FLOAT(text.split(":", 1)[1], key, line)
        return {"lambda_mode": "from_lem4", "lambda_values": (), "lem4_delta": delta}
    return {"lambda_mode": "explicit", "lambda_values": _FLOATS(text, key, line)}


def _key(key: str, parse, default=MISSING, execution: bool = False):
    """A field read from config key ``key`` by ``parse(text, key, line)``.

    ``parse`` returns the field's value, or a dict of field values when one
    key sets several fields.  ``execution`` marks a setting that does not
    change what a run computes; the config hash leaves it out.
    """
    return field(
        default=default, metadata={"key": key, "parse": parse, "execution": execution}
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description.

    Each field's metadata names its config-file key and parser; fields without
    a default are required keys.  The key of ``lambda_mode`` also sets
    ``lambda_values`` and ``lem4_delta``.
    """

    d: int = _key("geometry.d", _INT)
    lengths: tuple[int, ...] = _key("geometry.lengths", _INTS)
    radius: int = _key("geometry.radius", _INT)
    lower: float = _key("disorder.lower", _FLOAT, -1.0)
    upper: float = _key("disorder.upper", _FLOAT, 1.0)
    n_seeds: int = _key("disorder.seeds", _INT, 1)
    base_seed: int = _key("disorder.base_seed", _INT, 0)
    r_values: tuple[float, ...] = _key("run.r", _FLOATS, (300.0,))
    lambda_mode: str = _key("run.lambda", _parse_lambda, "explicit")
    lambda_values: tuple[float, ...] = (0.0,)
    lem4_delta: float | None = None
    z_values: tuple[float, ...] = _key("run.z", _FLOATS, _DEFAULT_Z)
    # both values run the same Schur solve; the key stays so existing configs parse
    precision: str = _key("precision", _parse_precision, "standard", execution=True)
    output_dir: str | None = _key("output.dir", _text, None, execution=True)
    expansion_l: tuple[int, ...] = _key("expansion.l", _INTS, (2, 3, 4, 5, 6, 7, 8))
    expansion_ab: tuple[float, ...] = _key("expansion.ab", _FLOATS, (-1.0, 0.0, 0.5, 1.0))
    rank_n: tuple[int, ...] | None = _key("rank.n", _INTS, None)
    rank_m: tuple[int, ...] | None = _key("rank.m", _INTS, None)
    rank_k: int | None = _key("rank.k", _INT, None)
    constancy_box: tuple[int, ...] | None = _key("constancy.box", _INTS, None)

    def partition(self) -> BoxPartition:
        return build_partition(self.d, self.lengths, self.radius)

    def config_hash(self) -> str:
        """sha256 over a canonical serialization of the experiment fields.

        Format-independent, and blind to settings that do not change the
        result (output directory, precision), so it names the experiment only.
        """
        payload = json.dumps(
            {
                f.name: repr(getattr(self, f.name))
                for f in fields(self)
                if not f.metadata.get("execution")
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


_FIELD_OF_KEY = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}


def _key_of(name: str) -> str:
    """The config-file key that sets field ``name``."""
    return ExperimentConfig.__dataclass_fields__[name].metadata["key"]


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat dotted-key format; diagnostics carry line and field."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"expected 'key = value', got {stripped!r}", line=lineno, field=None
            )
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_OF_KEY:
            raise ConfigError(f"unknown config key {key!r}", line=lineno, field=key)
        if key in raw:
            raise ConfigError(f"duplicate config key {key!r}", line=lineno, field=key)
        raw[key] = (value, lineno)

    kwargs: dict = {}

    def parse(key: str) -> None:
        value, line = raw[key]
        f = _FIELD_OF_KEY[key]
        parsed = f.metadata["parse"](value, key, line)
        kwargs.update(parsed if isinstance(parsed, dict) else {f.name: parsed})

    required = [key for key, f in _FIELD_OF_KEY.items() if f.default is MISSING]
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing required field {key}", line=None, field=key)
        parse(key)
    if len(kwargs["lengths"]) != kwargs["d"]:
        key = _key_of("lengths")
        raise ConfigError(
            f"{key} has {len(kwargs['lengths'])} entries for d={kwargs['d']}",
            line=raw[key][1],
            field=key,
        )
    for key in _FIELD_OF_KEY:
        if key in raw and key not in required:
            parse(key)

    cfg = ExperimentConfig(**kwargs)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    checks = [
        (cfg.d >= 1, "d", "d must be >= 1"),
        (all(l >= 1 for l in cfg.lengths), "lengths", "lengths must be >= 1"),
        (cfg.radius >= 0, "radius", "radius must be >= 0"),
        (cfg.lower <= cfg.upper, "lower", "lower must not exceed upper"),
        (math.isfinite(cfg.upper - cfg.lower), "upper", "upper - lower must be finite"),
        (cfg.n_seeds >= 1, "n_seeds", "need at least one seed"),
        (all(r > 0 for r in cfg.r_values), "r_values", "r values must be positive"),
    ]
    for ok, name, message in checks:
        if not ok:
            raise ConfigError(message, line=None, field=_key_of(name))


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}", line=None, field=None)
    return parse_config_text(text)


def sample_disorder(config: ExperimentConfig, index: int) -> DisorderSample:
    """Uniform[lower, upper] per box, seeded by base_seed + index; bit-exact."""
    rng = np.random.default_rng(config.base_seed + index)
    span = range(-config.radius, config.radius + 1)
    boxes = list(itertools.product(span, repeat=config.d))
    draws = rng.uniform(config.lower, config.upper, size=len(boxes))
    return DisorderSample(
        values={n: float(v) for n, v in zip(boxes, draws)},
        distribution=(config.lower, config.upper),
        seed=config.base_seed + index,
    )


def omega_pairs(sample: DisorderSample, d: int) -> list[tuple[float, float]]:
    """(omega on -e_i, omega on +e_i) for each coordinate."""
    out = []
    for axis in range(d):
        plus = tuple(1 if k == axis else 0 for k in range(d))
        minus = tuple(-1 if k == axis else 0 for k in range(d))
        out.append((sample.values[minus], sample.values[plus]))
    return out


def boosts_for(config: ExperimentConfig, sample: DisorderSample) -> dict[int, float]:
    """The boost vector: explicit values, or derived from the separation design.

    In from_lem4 mode the boost on +e_i is chosen so that the full potential
    coefficient 2*(omega_-i + omega_+i + lambda_i) sits at the midpoint of the
    i-th design interval, which is what makes distinct sine selections
    1/delta-separated.
    """
    if config.lambda_mode == "explicit":
        vals = config.lambda_values
        if len(vals) == 1:
            vals = vals * config.d
        if len(vals) != config.d:
            key = _key_of("lambda_mode")
            raise ConfigError(
                f"{key} has {len(config.lambda_values)} entries for d={config.d}",
                line=None,
                field=key,
            )
        return {i + 1: float(v) for i, v in enumerate(vals)}
    sets = sine_system(config.lengths)
    eps, delta = epsilon_delta(sets, config.lem4_delta)
    mids = midpoint_coefficients(design_intervals(eps, delta, config.d))
    pairs = omega_pairs(sample, config.d)
    return {
        i + 1: mids[i] / 2.0 - lo - hi for i, (lo, hi) in enumerate(pairs)
    }


def _checked_table(config: ExperimentConfig) -> ClassTable:
    """The geometry's class table; ConfigError when it has a permuted tie.

    Labels such as (1,2)/(2,1) at lengths (3,3) share both sums without being
    reflections, which the three-way pair classification cannot label.
    """
    table = class_table(config.lengths)
    tie = table.permuted_tie()
    if tie is not None:
        key = _key_of("lengths")
        raise ConfigError(
            f"{key} = {config.lengths}: labels {tie[0]} and {tie[1]} share both the cosine "
            "and the sine sum without being reflections, so the pair cannot be classified",
            line=None,
            field=key,
        )
    return table


def _factor_inputs(config: ExperimentConfig):
    """The seed-0 sample with its per-coordinate omega pairs and boosts.

    Returns (sample, omega_pairs, lams), the inputs of ``tridiag.factor_specs``.
    """
    sample = sample_disorder(config, 0)
    boosts = boosts_for(config, sample)
    lams = tuple(boosts.get(i + 1, 0.0) for i in range(config.d))
    return sample, omega_pairs(sample, config.d), lams


# ---------------------------------------------------------------- formatting


@functools.cache
def _formatter(kind: type):
    """How a CSV field of exact type ``kind`` is written; classified once per type."""
    if issubclass(kind, (bool, np.bool_)):
        return lambda value: "true" if value else "false"
    if issubclass(kind, (int, np.integer)):
        return str if kind is int else lambda value: str(int(value))
    if issubclass(kind, (float, np.floating)):
        return "%.17g".__mod__  # the text of f"{float(value):.17g}"
    if issubclass(kind, (tuple, list)):
        return lambda value: "|".join(map(_fmt, value))
    return str


def _fmt(value) -> str:
    return _formatter(type(value))(value)


# Below this many rows a column is formatted field by field: the np.unique
# call costs more than the repeated formatting it would save.
_DEDUP_ROWS = 64


def _column_texts(column: tuple) -> list[str]:
    """``_fmt`` of every field of one CSV column, each distinct value formatted once.

    A column of exact floats is keyed by bit pattern, any other column by
    object identity; a column of one type uses that type's formatter.
    """
    kinds = set(map(type, column))
    fmt = _formatter(next(iter(kinds))) if len(kinds) == 1 else _fmt
    if len(column) < _DEDUP_ROWS:
        return list(map(fmt, column))
    if kinds == {float}:
        keys = np.array(column).view(np.int64)
    else:
        keys = np.fromiter(map(id, column), np.uint64, len(column))
    distinct, inverse = np.unique(keys, return_inverse=True)
    # any field with a key stands for all of them; the scatter keeps the last
    index_of = np.empty(distinct.size, dtype=np.intp)
    index_of[inverse] = np.arange(len(column))
    texts = np.array(list(map(fmt, map(column.__getitem__, index_of.tolist()))), dtype=object)
    return texts[inverse].tolist()


def write_csv(path: str | Path, header: list[str], rows: list[tuple]) -> Path:
    """Write ``header`` and ``rows`` as CSV, formatted column by column.

    The bytes are those of ``",".join(map(_fmt, row))`` for every row: floats
    as ``%.17g``, bools as ``true``/``false``, tuples and lists ``|``-joined.
    Each column's distinct values are formatted once, and "distinct" cannot
    mean equal: 0.0 == -0.0 and (1, 2) == (True, 2), yet their texts differ.
    So a column of exact floats is keyed by bit pattern and any other column
    by object identity; the drivers share their label, class and ``r``
    objects across rows, so those repeat.  Every row must have the same
    number of fields: a ragged table is a driver fault, not a config error,
    so it raises RuntimeError rather than the ValueError the CLI reports as
    one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        columns = [_column_texts(column) for column in zip(*rows, strict=True)]
    except ValueError:
        if len(set(map(len, rows))) > 1:
            raise RuntimeError(f"ragged row table for {path.name}") from None
        raise
    lines = [",".join(header), *map(",".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_verdict(
    path: str | Path,
    subcommand: str,
    config_hash: str,
    failures: list[dict],
    extra: dict | None = None,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "subcommand": subcommand,
        "config": config_hash,
        "pass": not failures,
        "failures": failures,
    }
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ------------------------------------------------------------- multiplicity


def multiplicity_scan(config: ExperimentConfig):
    """Histogram eigenvalue clusters of r^2 * H_r across seeds and r values.

    Asserts the cluster-size bound 2^s - s whenever s >= 2, and simplicity at
    the largest r for admissible-simple geometries.  A ``precision_guard``
    trip is recorded on its row as ``escalated``; the cell is not re-solved.
    Returns (rows, failures, extras): rows are (seed, r, max_multiplicity,
    histogram, escalated) with the histogram written ``size:count|...``, and
    extras are the admissibility fields s, bound and simple.
    """
    if config.radius < 2:
        raise VolumeError(f"multiplicity scan needs radius >= 2, got {config.radius}")
    part = config.partition()
    adm = admissibility(config.lengths)
    total = math.prod(config.lengths)
    largest_r = max(config.r_values)
    size_cap = 2**adm.s - adm.s
    rows = []
    failures = []
    for seed in range(config.n_seeds):
        sample = sample_disorder(config, seed)
        boosts = boosts_for(config, sample)
        for r in config.r_values:
            sr = schur_reduced(part, sample, boosts, r)
            eigs = np.linalg.eigvalsh(r**2 * sr.matrix)
            tau = degeneracy_tolerance(eigs)
            escalated = precision_guard(r, tau, context="multiplicity clustering")
            groups = cluster_indices(eigs, tau)
            histogram: dict[int, int] = {}
            for g in groups:
                histogram[len(g)] = histogram.get(len(g), 0) + len(g)
            assert sum(histogram.values()) == total
            mx = max(len(g) for g in groups)
            assert mx <= total
            census = "|".join(f"{size}:{count}" for size, count in sorted(histogram.items()))
            rows.append((seed, r, mx, census, escalated))
            cell = {"lengths": list(config.lengths), "seed": seed, "r": r, "max_multiplicity": mx}
            if adm.s >= 2 and mx > size_cap:
                failures.append({"check": "cluster_size_bound", **cell, "bound": size_cap})
            if adm.simple and r == largest_r and mx != 1:
                failures.append({"check": "simple_spectrum", **cell})
    return rows, failures, {"s": adm.s, "bound": adm.bound, "simple": adm.simple}


# ---------------------------------------------------------------- constancy


def constancy_scan(config: ExperimentConfig):
    """Max eigenvalue multiplicity of G_00 under a boost lambda on one box.

    Sweeps the (z, lambda) grid, clustering the eigenvalues of the origin
    resolvent block at tolerance tau; asserts the value is the same at every
    usable grid point.  Grid points with z inside (or hugging) the spectrum
    are skipped with a note rather than failed.  Each lambda's Hamiltonian
    and spectrum are built once and shared by every z.  Returns (rows,
    failures, extras): rows are (z, lambda, max_multiplicity, note), with an
    empty multiplicity on skipped points, and extras are box, constant and
    the common value (None unless exactly one value was seen).
    """
    box = config.constancy_box or tuple(1 if k == 0 else 0 for k in range(config.d))
    if config.lambda_mode != "explicit":
        key = _key_of("lambda_mode")
        raise ConfigError(
            f"constancy scan needs an explicit {key} grid", line=None, field=key
        )
    part = config.partition()
    sample = sample_disorder(config, 0)
    base = build_hamiltonian(part, sample)
    mask = box_mask(part, box)
    origin = (0,) * config.d
    boosted = []
    for lam in config.lambda_values:
        h = base.entries.copy()
        h[np.diag_indices_from(h)] += lam * mask
        boosted.append((lam, LatticeOperator(entries=h, partition=part), np.linalg.eigvalsh(h)))
    rows = []
    grid = []
    for z in config.z_values:
        for lam, op, spectrum in boosted:
            if np.min(np.abs(spectrum - z)) < PROXIMITY_FLOOR:
                rows.append((z, lam, "", "z inside spectrum; skipped"))
                continue
            try:
                rr = restricted_resolvent(op, z, origin, origin)
            except SpectralProximityError as exc:
                note = f"solver near-singular (residual {exc.residual:.3g}); skipped"
                rows.append((z, lam, "", note))
                continue
            block = (rr.block + rr.block.T) / 2.0
            eigs = np.linalg.eigvalsh(block)
            tau = degeneracy_tolerance(eigs)
            mx = max(len(g) for g in cluster_indices(eigs, tau))
            rows.append((z, lam, mx, ""))
            grid.append({"z": z, "lambda": lam, "max_multiplicity": mx})
    observed = sorted({cell["max_multiplicity"] for cell in grid})
    constant = len(observed) <= 1
    failures = []
    if not constant:
        failures.append(
            {"check": "constancy", "box": list(box), "observed_values": observed, "grid": grid}
        )
    if not observed:
        failures.append(
            {"check": "constancy_grid_empty", "box": list(box), "note": "every grid point skipped"}
        )
    value = observed[0] if len(observed) == 1 else None
    return rows, failures, {"box": list(box), "constant": constant, "value": value}


# -------------------------------------------------------------- cyclic rank


@dataclass(frozen=True)
class RankCheck:
    n: tuple[int, ...]
    m: tuple[int, ...]
    k: int
    rank: int
    expected: int

    @property
    def full(self) -> bool:
        return self.rank == self.expected


def lattice_diameter(partition: BoxPartition) -> int:
    """Graph diameter of the truncated volume (sum of axis extents - 1)."""
    return sum((2 * partition.radius + 1) * l - 1 for l in partition.lengths)


def cyclic_rank_check(
    h: LatticeOperator,
    n: tuple[int, ...],
    m: tuple[int, ...],
    k: int | None = None,
) -> RankCheck:
    """Rank of the stacked Krylov blocks [P_m H^j P_n], j = 0..k.

    Full rank (= rank of P_m) means the cyclic subspace seeded in box n
    already resolves box m after k propagation steps.  k defaults to the
    lattice diameter.  Blocks are individually normalized before stacking
    (pure row scaling, rank-neutral) so the 1e-8 relative singular-value
    threshold is not distorted by ||H||^k growth.
    """
    part = h.partition
    n = tuple(int(v) for v in n)
    m = tuple(int(v) for v in m)
    if k is None:
        k = lattice_diameter(part)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    mask_n = box_mask(part, n)
    mask_m = box_mask(part, m)
    x = np.zeros((part.n_sites, int(mask_n.sum())))
    x[np.flatnonzero(mask_n), np.arange(x.shape[1])] = 1.0
    blocks = []
    for _ in range(k + 1):
        blk = x[mask_m, :]
        scale = np.linalg.norm(blk)
        blocks.append(blk / scale if scale > 0 else blk)
        x = h.entries @ x
    stacked = np.vstack(blocks)
    sv = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0])) if sv.size and sv[0] > 0 else 0
    return RankCheck(n=n, m=m, k=k, rank=rank, expected=int(mask_m.sum()))


# ---------------------------------------------------------------- gap growth


def _fit_slope(r_values, gaps, floored) -> float | None:
    pts = [
        (math.log(r), math.log(g))
        for r, g, f in zip(r_values, gaps, floored)
        if not f and g > 0
    ]
    if len(pts) < 3:
        return None
    xs, ys = zip(*pts)
    return float(np.polyfit(xs, ys, 1)[0])


# Clean curves fitted per polyfit call.  On a 2-core machine with OpenBLAS
# 0.3.31, one call over all 1770 curves of l=(3,4,5) starts BLAS worker
# threads that spin after the call (gapgrowth CPU 0.24 s for 0.16 s wall);
# blocks of 256 stay single-threaded and are no slower.
_FIT_BLOCK = 256


def _fit_slopes(r_values, gaps: np.ndarray, floored: np.ndarray) -> list[float | None]:
    """``_fit_slope`` of every column of the (r, pair) arrays ``gaps`` and ``floored``.

    The curves whose points are all clean share the same abscissae, so they
    are fitted together, _FIT_BLOCK curves per polyfit; the slopes equal the
    per-curve fits bit for bit.  A curve with a floored or non-positive point
    keeps its own fit over its clean points.
    """
    clean = ~floored.any(axis=0) & (gaps > 0).all(axis=0)
    slopes: list[float | None] = [
        None if ok else _fit_slope(r_values, gaps[:, k].tolist(), floored[:, k].tolist())
        for k, ok in enumerate(clean.tolist())
    ]
    columns = np.flatnonzero(clean)
    xs = [math.log(r) for r in r_values]
    logs = [list(map(math.log, row)) for row in gaps[:, columns].tolist()]
    for start in range(0, columns.size, _FIT_BLOCK):
        ys = [row[start : start + _FIT_BLOCK] for row in logs]
        block = columns[start : start + _FIT_BLOCK].tolist()
        for k, slope in zip(block, np.polyfit(xs, ys, 1)[0].tolist()):
            slopes[k] = slope
    return slopes


def gap_growth_probe(config: ExperimentConfig):
    """Fit log-log growth exponents of labeled eigenvalue gaps in r.

    Uses the per-factor tridiagonal route for the exact spectrum, so the tiny
    same-cluster splittings stay far above dense-solver noise.  Gaps under the
    rounding floor are excluded from fits; a curve with fewer than three clean
    points is reported floor-limited (slope None) instead of fitted.  Returns
    (rows, failures, extras): rows are (pair_a, pair_b, gap_class, r, gap,
    floored) pair by pair over every mode-tuple pair, in
    ``itertools.combinations`` order, and extras hold the slope per
    ``n1|n2:m1|m2`` pair label and the slope of the minimum gap.
    """
    r_values = tuple(sorted(config.r_values))
    if len(r_values) < 3 or max(r_values) / min(r_values) < 8:
        raise ConfigError(
            "gap growth needs >= 3 r values spanning a factor >= 8",
            line=None,
            field=_key_of("r_values"),
        )
    table = _checked_table(config)
    sample, opairs, lams = _factor_inputs(config)

    # spectra[k, t]: the eigenvalue of mode tuple t at r_values[k]
    by_r = [mode_resolved_spectrum(config.lengths, opairs, lams, r) for r in r_values]
    spectra = np.array([[spectrum[t] for t in table.tuples] for spectrum in by_r])
    floors = 8.0 * np.finfo(float).eps * np.abs(spectra).max(axis=1)

    # Rounded subtraction is monotone, so the closest pair is adjacent in sorted order.
    min_gaps = np.diff(np.sort(spectra, axis=1), axis=1).min(axis=1)
    min_pair_slope = _fit_slope(r_values, min_gaps.tolist(), (min_gaps <= floors).tolist())

    first, second = np.triu_indices(len(table.tuples), 1)
    gaps = np.abs(spectra[:, first] - spectra[:, second])
    floored = gaps <= floors[:, None]
    pairs = list(zip(first.tolist(), second.tolist(), table.classes(first, second)))
    rows = list(
        zip(
            [table.tuples[i] for i, _, _ in pairs for _ in r_values],
            [table.tuples[j] for _, j, _ in pairs for _ in r_values],
            [cls for _, _, cls in pairs for _ in r_values],
            r_values * len(pairs),
            gaps.T.ravel().tolist(),
            floored.T.ravel().tolist(),
        )
    )

    names = ["|".join(map(str, t)) for t in table.tuples]
    failures = []
    slopes = {}
    for (i, j, cls), slope in zip(pairs, _fit_slopes(r_values, gaps, floored)):
        slopes[names[i] + ":" + names[j]] = slope
        bad = slope is not None and (
            (cls == "cos_separated" and slope < 1.8)
            or (cls == "sine_separated" and not 0.8 <= slope <= 1.2)
            or (cls == "same_cluster" and slope > 0.1)
        )
        if bad:
            failures.append(
                {
                    "check": "gap_growth_slope",
                    "lengths": list(config.lengths),
                    "seed": sample.seed,
                    "pair": [list(table.tuples[i]), list(table.tuples[j])],
                    "class": cls,
                    "slope": slope,
                }
            )
    return rows, failures, {"slopes": slopes, "min_pair_slope": min_pair_slope}


# ----------------------------------------------------- expansion / cluster


def expansion_bound(l: int, a: float, b: float, r: float) -> float:
    """Worst-case residual allowance (40(l+1)|a+b| + 16(l+1)^3 + 1) / r."""
    return (40.0 * (l + 1) * abs(a + b) + 16.0 * (l + 1) ** 3 + 1.0) / r


def expansion_sweep(config: ExperimentConfig):
    """Exact-vs-predicted residuals over the (l, a, b, r) grid.

    Returns (rows, failures, extras): rows follow the CSV schema
    (l, a, b, r, n, exact, predicted, residual); the per-cell bound is checked
    everywhere, and extras hold the aggregate slope fitted to the per-r worst
    residual (None when fewer than four r values span a factor of 8).
    """
    rows = []
    failures = []
    worst_by_r: dict[float, float] = {}
    for l in config.expansion_l:
        cells = list(itertools.product(config.expansion_ab, config.expansion_ab, config.r_values))
        specs = [TridiagSpec(l=l, a=a, b=b, r=r) for a, b, r in cells]
        predicted = predicted_grid(specs, "c_over_r")
        # Pair the ascending spectrum with the predictions in ascending
        # (value, mode) order; the stable sort breaks ties by mode.
        order = np.argsort(predicted, axis=1, kind="stable")
        exact = np.empty_like(predicted)
        np.put_along_axis(exact, order, exact_spectrum(specs), axis=1)
        residual = np.abs(exact - predicted)
        cell_worst = residual.max(axis=1).tolist()
        for (a, b, r), ex, pred, res, worst in zip(
            cells, exact.tolist(), predicted.tolist(), residual.tolist(), cell_worst
        ):
            rows += [(l, a, b, r, n + 1, ex[n], pred[n], res[n]) for n in range(l)]
            worst_by_r[r] = max(worst_by_r.get(r, 0.0), worst)
            allowance = expansion_bound(l, a, b, r)
            if worst > allowance:
                failures.append(
                    {
                        "check": "expansion_bound",
                        "l": l,
                        "a": a,
                        "b": b,
                        "r": r,
                        "worst_residual": worst,
                        "allowance": allowance,
                    }
                )
    slope = None
    if len(worst_by_r) >= 4 and max(worst_by_r) / min(worst_by_r) >= 8:
        rs = sorted(worst_by_r)
        worst = [max(worst_by_r[r], 1e-300) for r in rs]
        slope = _fit_slope(rs, worst, [False] * len(rs))
        if slope > -0.7:
            failures.append(
                {"check": "expansion_aggregate_slope", "slope": slope, "limit": -0.7}
            )
    return rows, failures, {"aggregate_slope": slope}


def cluster_sweep(config: ExperimentConfig):
    """Gap verification on the labelled truncation spectrum at each r.

    Every gap is taken between two values of ``mode_resolved_spectrum``, so
    each eigenvalue carries its mode tuple from the factor that produced it.
    Returns (rows, failures): rows follow (r, pair_a, pair_b, class, gap,
    required, satisfied) with required empty for same_cluster pairs.
    """
    _checked_table(config)
    sample, opairs, lams = _factor_inputs(config)
    rows = []
    failures = []
    for r in config.r_values:
        spectrum = mode_resolved_spectrum(config.lengths, opairs, lams, r)
        for rep in verify_gaps(spectrum, config.lengths, r):
            satisfied = rep.satisfied
            required = "" if rep.required is None else rep.required
            rows.append((r, *rep.pair, rep.gap_class, rep.gap, required, satisfied))
            if not satisfied:
                failures.append(
                    {
                        "check": "cluster_gap",
                        "lengths": list(config.lengths),
                        "seed": sample.seed,
                        "r": r,
                        "pair": [list(rep.pair[0]), list(rep.pair[1])],
                        "class": rep.gap_class,
                        "gap": rep.gap,
                        "required": rep.required,
                    }
                )
    return rows, failures


def separation_sweep(config: ExperimentConfig):
    """Design intervals for the sine systems and brute-force verify draws.

    Draw 0 uses interval midpoints; draws 1..n_seeds sample uniformly from the
    intervals.  Returns (rows, failures) with rows (draw, epsilon, delta,
    min_gap, threshold, passed).
    """
    sets = sine_system(config.lengths)
    eps, delta = epsilon_delta(sets, config.lem4_delta)
    intervals = design_intervals(eps, delta, config.d)
    rows = []
    failures = []
    coeff_lists = [(0, midpoint_coefficients(intervals))]
    for i in range(1, config.n_seeds + 1):
        rng = np.random.default_rng(config.base_seed + i)
        coeff_lists.append((i, draw_coefficients(intervals, rng)))
    for draw, coeffs in coeff_lists:
        check = verify_separation(sets, coeffs, delta)
        rows.append(
            (draw, eps, delta, check.min_gap, check.threshold, check.passed)
        )
        if not check.passed:
            failures.append(
                {
                    "check": "separation",
                    "lengths": list(config.lengths),
                    "draw": draw,
                    "coefficients": [float(c) for c in coeffs],
                    "min_gap": check.min_gap,
                    "threshold": check.threshold,
                }
            )
    return rows, failures


def partition_survey(config: ExperimentConfig):
    """Structural identity checks plus a per-box census.

    Returns (rows, failures): rows are (box, sites, first_site, last_site).
    All three identity families are exact integer comparisons.
    """
    part = config.partition()
    failures = []
    if not partition_of_unity_holds(part):
        failures.append({"check": "partition_of_unity", "lengths": list(config.lengths)})
    if part.radius >= 1:
        lhs, rhs = neighbor_sum_identity(part)
        if not np.array_equal(lhs, rhs):
            failures.append({"check": "neighbor_sum_identity", "lengths": list(config.lengths)})
        for axis in range(1, config.d + 1):
            for direction in (axis, -axis):
                product, indicator = face_product(part, direction)
                if not np.array_equal(product, indicator):
                    failures.append(
                        {
                            "check": "face_product",
                            "direction": direction,
                            "lengths": list(config.lengths),
                        }
                    )
    rows = []
    for n in part.boxes:
        sites = box_sites(part, n)
        rows.append((n, len(sites), sites[0], sites[-1]))
    return rows, failures


def rank_sweep(config: ExperimentConfig):
    """cyclic_rank_check across seeds; rows are (seed, rank, expected, full)."""
    part = config.partition()
    n = config.rank_n or (0,) * config.d
    m = config.rank_m if config.rank_m is not None else (1,) * config.d
    rows = []
    failures = []
    for seed in range(config.n_seeds):
        sample = sample_disorder(config, seed)
        h = build_hamiltonian(part, sample, boosts_for(config, sample))
        res = cyclic_rank_check(h, n, m, config.rank_k)
        rows.append((seed, res.rank, res.expected, res.full))
        if not res.full:
            failures.append(
                {
                    "check": "cyclic_rank",
                    "lengths": list(config.lengths),
                    "seed": seed,
                    "n": list(res.n),
                    "m": list(res.m),
                    "k": res.k,
                    "rank": res.rank,
                    "expected": res.expected,
                }
            )
    return rows, failures


def nonvanishing_survey(ps: tuple[int, ...]):
    """Exact cosine-sum scan over the moduli ``ps``.

    Returns (rows, failures, extras): rows are (ps, ns) per zero witness, and
    extras carry the admissibility verdict, tuple and zero counts and reasons.
    """
    report = verify_nonvanishing(ps)
    rows = [(ps, ns) for ns in report.witnesses]
    failures = []
    if report.admissible and report.zeros:
        failures.append(
            {
                "check": "cosine_sum_nonvanishing",
                "ps": list(ps),
                "zeros": report.zeros,
                "witnesses": [list(w) for w in report.witnesses],
            }
        )
    extras = {
        "admissible": report.admissible,
        "tuples": report.tuples,
        "zeros": report.zeros,
        "reasons": list(report.reasons),
    }
    return rows, failures, extras
