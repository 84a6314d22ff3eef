"""Experiment driver: reproducible disorder sweeps and their reports.

Everything here is deterministic plumbing around the math modules: a flat
key-value config format, seeded disorder sampling, the multiplicity /
constancy / rank / gap-growth scans, and fixed-schema CSV + JSON output whose
bytes depend only on the config (17-significant-digit float formatting,
ordered rows, sorted JSON keys).  A driver returns its CSV columns, checks
and verdict extras as one ``Result``.  Rows come out in (seed, r) order; the
multiplicity scan first solves each r's cells as stacked series walks and
then reads them in that order.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields, replace
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
    _box_potential,
    apply_laplacian,
    box_mask,
    box_sites,
    build_partition,
    face_product,
    neighbor_sum_identity,
    partition_of_unity_holds,
)
from .resolvent import (
    PROXIMITY_FLOOR,
    precision_guard,
    schur_reduced,
    schur_reduced_walks,
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
        values=dict(zip(boxes, draws.tolist())),
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


def lem4_midpoints(config: ExperimentConfig) -> list[float] | None:
    """Midpoints of the from_lem4 design intervals; None for explicit boosts.

    The design depends only on lengths, lem4_delta and d, not on the seed,
    so a driver computes it once and hands it to ``boosts_for``.
    """
    if config.lambda_mode == "explicit":
        return None
    sets = sine_system(config.lengths)
    eps, delta = epsilon_delta(sets, config.lem4_delta)
    return midpoint_coefficients(design_intervals(eps, delta, config.d))


def boosts_for(
    config: ExperimentConfig, sample: DisorderSample, mids: list[float] | None = None
) -> dict[int, float]:
    """The boost vector: explicit values, or derived from the separation design.

    In from_lem4 mode the boost on +e_i is chosen so that the full potential
    coefficient 2*(omega_-i + omega_+i + lambda_i) sits at the midpoint of the
    i-th design interval, which is what makes distinct sine selections
    1/delta-separated.  ``mids`` is ``lem4_midpoints(config)``, computed
    here when not given.
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
    if mids is None:
        mids = lem4_midpoints(config)
    pairs = omega_pairs(sample, config.d)
    return {
        i + 1: mids[i] / 2.0 - lo - hi for i, (lo, hi) in enumerate(pairs)
    }


def _checked_table(config: ExperimentConfig) -> ClassTable:
    """The geometry's class table; ConfigError unless its pairs can be classified.

    A geometry with a single mode tuple has no pair at all.  Labels such as
    (1,2)/(2,1) at lengths (3,3) share both sums without being reflections,
    which the three-way pair classification cannot label.
    """
    table = class_table(config.lengths)
    key = _key_of("lengths")
    if len(table.tuples) < 2:
        raise ConfigError(f"{key} = {config.lengths}: a single mode tuple has no pair", field=key)
    tie = table.permuted_tie()
    if tie is not None:
        raise ConfigError(
            f"{key} = {config.lengths}: labels {tie[0]} and {tie[1]} share both the cosine "
            "and the sine sum without being reflections, so the pair cannot be classified",
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


# ------------------------------------------------------------ check table


@dataclass(frozen=True)
class Check:
    """One claim over its cases: case k holds exactly when ``passed[k]``.

    A failing case k is recorded with every ``shared`` field and entry k of
    every ``per_case`` column (``cli.failure_records``).
    """

    name: str
    passed: Sequence[bool]
    per_case: dict = field(default_factory=dict)
    shared: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Result:
    """A driver's output: CSV ``columns`` by header in CSV order, ``checks``, verdict ``extras``."""

    columns: dict[str, Sequence]
    checks: list[Check]
    extras: dict = field(default_factory=dict)


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


def _column_texts(column: Sequence) -> list[str]:
    """``_fmt`` of every field of one CSV column, each distinct value formatted once.

    A column of exact floats is keyed by bit pattern, any other column by
    object identity; a column of one type uses that type's formatter.  An
    array column is formatted as its ``tolist()``.
    """
    if isinstance(column, np.ndarray):
        column = column.tolist()
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


def write_csv(path: str | Path, columns: dict[str, Sequence]) -> Path:
    """Write ``columns`` (header -> column, in CSV order) as CSV, column by column.

    The bytes are those of ``",".join(map(_fmt, row))`` for every row: floats
    as ``%.17g``, bools as ``true``/``false``, tuples and lists ``|``-joined.
    Each column's distinct values are formatted once, and "distinct" cannot
    mean equal: 0.0 == -0.0 and (1, 2) == (True, 2), yet their texts differ.
    So floats are told apart by bits and other values by object identity; the
    drivers share their label, class and ``r`` objects across rows.  Ragged
    columns are a driver fault, not a config error, so they raise
    RuntimeError rather than the ValueError the CLI reports as one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if len(set(map(len, columns.values()))) > 1:
        raise RuntimeError(f"ragged row table for {path.name}")
    texts = [_column_texts(column) for column in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*texts))]
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


def multiplicity_scan(config: ExperimentConfig) -> Result:
    """Histogram eigenvalue clusters of r^2 * H_r across seeds and r values.

    Checks the cluster-size bound 2^s - s whenever s >= 2, and simplicity at
    the largest r for admissible-simple geometries.  A ``precision_guard``
    trip is recorded on its row as ``escalated``; the cell is not re-solved.
    One row per (seed, r) cell, the histogram written ``size:count|...``;
    the extras are the admissibility fields s, bound and simple.
    """
    if config.radius < 2:
        raise VolumeError(f"multiplicity scan needs radius >= 2, got {config.radius}")
    part = config.partition()
    adm = admissibility(config.lengths)
    mids = lem4_midpoints(config)
    samples = [sample_disorder(config, seed) for seed in range(config.n_seeds)]
    cells = [(sample, boosts_for(config, sample, mids)) for sample in samples]
    # one stacked walk per r and chunk; a dense cell near the spectrum is
    # raised when the (seed, r) loop below reaches it, as a serial loop would
    spectra, failed = {}, {}
    for j, r in enumerate(config.r_values):
        try:
            for seeds, matrices in schur_reduced_walks(part, cells, r):
                eigs = np.linalg.eigvalsh(r**2 * matrices)
                spectra.update(((seed, j), e) for seed, e in zip(seeds, eigs))
        except SpectralProximityError as exc:
            failed[j] = exc
    maxima, censuses, escalated = [], [], []
    for seed in range(config.n_seeds):
        for j, r in enumerate(config.r_values):
            if (seed, j) not in spectra:
                raise failed[j]
            eigs = spectra[seed, j]
            tau = degeneracy_tolerance(eigs)
            escalated.append(precision_guard(r, tau, context="multiplicity clustering"))
            sizes = sorted(Counter(map(len, cluster_indices(eigs, tau))).items())
            assert sum(size * count for size, count in sizes) == math.prod(config.lengths)
            maxima.append(sizes[-1][0])
            censuses.append("|".join(f"{size}:{size * count}" for size, count in sizes))
    seeds = [seed for seed in range(config.n_seeds) for _ in config.r_values]
    rs = list(config.r_values) * config.n_seeds
    cells = {"seed": seeds, "r": rs, "max_multiplicity": maxima}
    mx, cap, lengths = np.array(maxima), 2**adm.s - adm.s, list(config.lengths)
    bound_holds = (adm.s < 2) | (mx <= cap)
    simple_holds = ~(adm.simple & (np.array(rs) == max(rs))) | (mx == 1)
    checks = [
        Check("cluster_size_bound", bound_holds, cells, {"lengths": lengths, "bound": cap}),
        Check("simple_spectrum", simple_holds, cells, {"lengths": lengths}),
    ]
    columns = {**cells, "histogram": censuses, "escalated": escalated}
    return Result(columns, checks, {"s": adm.s, "bound": adm.bound, "simple": adm.simple})


# ---------------------------------------------------------------- constancy


def constancy_scan(config: ExperimentConfig) -> Result:
    """Max eigenvalue multiplicity of G_00 under a boost lambda on one box.

    Sweeps the (z, lambda) grid, clustering the eigenvalues of the origin
    resolvent block at tolerance tau; checks the value is the same at every
    usable grid point.  Those are mu = 1/(nu + omega_0 - z) over the box-0
    reduction's eigenvalues nu at r = z (``SchurReduced.mu_values``), for the
    seed-0 sample with lambda added to the omega of the box (any box, box 0
    included).  A point is skipped with a note and an empty multiplicity, not
    failed, when some |nu + omega_0 - z| < PROXIMITY_FLOOR (z inside or hugging
    the spectrum) or the complement solve is near-singular.  The extras are
    box, constant and the common value (None unless exactly one was seen).
    """
    box = config.constancy_box or tuple(1 if k == 0 else 0 for k in range(config.d))
    if config.lambda_mode != "explicit":
        key = _key_of("lambda_mode")
        raise ConfigError(f"constancy scan needs an explicit {key} grid", field=key)
    part = config.partition()
    sample = sample_disorder(config, 0)
    if box not in sample.values:
        raise VolumeError(f"box {box} outside radius {config.radius}")
    boosted = [
        replace(sample, values={**sample.values, box: sample.values[box] + lam})
        for lam in config.lambda_values
    ]
    maxima, notes = [], []
    for z in config.z_values:
        for cell in boosted:
            mx, note = "", ""
            try:
                mu = schur_reduced(part, cell, None, z).mu_values()
            except SpectralProximityError as exc:
                note = f"solver near-singular (residual {exc.residual:.3g}); skipped"
            else:
                if np.max(np.abs(mu)) * PROXIMITY_FLOOR > 1.0:
                    note = "z inside spectrum; skipped"
                else:
                    mx = max(len(g) for g in cluster_indices(mu, degeneracy_tolerance(mu)))
            maxima.append(mx)
            notes.append(note)
    columns = {
        "z": [z for z in config.z_values for _ in boosted],
        "lambda": list(config.lambda_values) * len(config.z_values),
        "max_multiplicity": maxima,
        "note": notes,
    }
    grid = [
        {"z": z, "lambda": lam, "max_multiplicity": mx}
        for z, lam, mx in zip(columns["z"], columns["lambda"], maxima)
        if mx != ""
    ]
    observed = sorted({cell["max_multiplicity"] for cell in grid})
    constant = len(observed) <= 1
    empty = {"box": box, "note": "every grid point skipped"}
    checks = [
        Check("constancy", [constant], {}, {"box": box, "observed_values": observed, "grid": grid}),
        Check("constancy_grid_empty", [bool(observed)], {}, empty),
    ]
    value = observed[0] if len(observed) == 1 else None
    return Result(columns, checks, {"box": list(box), "constant": constant, "value": value})


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
    partition: BoxPartition,
    potential: np.ndarray,
    n: tuple[int, ...],
    m: tuple[int, ...],
    k: int | None = None,
) -> RankCheck:
    """Rank of the stacked Krylov blocks [P_m H^j P_n], j = 0..k, of H = L + V.

    ``potential`` is V per site (``lattice._box_potential``); a step is
    x <- L x + V x on the stencil (``apply_laplacian``), never forming H.
    Full rank (= rank of P_m) means the cyclic subspace seeded in box n
    already resolves box m after k propagation steps; k defaults to the
    lattice diameter.  Blocks are normalized one by one before stacking (row
    scaling, rank-neutral) so ||H||^k growth leaves the 1e-8 relative
    singular-value threshold undistorted.
    """
    n = tuple(int(v) for v in n)
    m = tuple(int(v) for v in m)
    if k is None:
        k = lattice_diameter(partition)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    mask_n = box_mask(partition, n)
    mask_m = box_mask(partition, m)
    x = np.zeros((partition.n_sites, int(mask_n.sum())))
    x[np.flatnonzero(mask_n), np.arange(x.shape[1])] = 1.0
    grid, v = (*partition.axis_sizes, x.shape[1]), potential[:, None]
    blocks = []
    for _ in range(k + 1):
        blk = x[mask_m, :]
        scale = np.linalg.norm(blk)
        blocks.append(blk / scale if scale > 0 else blk)
        x = apply_laplacian(x.reshape(grid), partition.d).reshape(x.shape) + v * x
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


def gap_growth_probe(config: ExperimentConfig) -> Result:
    """Fit log-log growth exponents of labeled eigenvalue gaps in r.

    Uses the per-factor tridiagonal route for the exact spectrum, so the tiny
    same-cluster splittings stay far above dense-solver noise.  Gaps under the
    rounding floor are excluded from fits; a curve with fewer than three clean
    points is reported floor-limited (slope None) instead of fitted.  Rows
    run pair by pair over every mode-tuple pair, in ``itertools.combinations``
    order, and by r within a pair; the extras hold the slope per
    ``n1|n2:m1|m2`` pair label and the slope of the minimum gap.
    """
    r_values = tuple(sorted(config.r_values))
    if len(r_values) < 3 or max(r_values) / min(r_values) < 8:
        message = "gap growth needs >= 3 r values spanning a factor >= 8"
        raise ConfigError(message, field=_key_of("r_values"))
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
    classes = table.classes(first, second)
    slopes = _fit_slopes(r_values, gaps, floored)
    pairs = [(table.tuples[i], table.tuples[j]) for i, j in zip(first.tolist(), second.tolist())]
    columns = {
        "pair_a": [a for a, _ in pairs for _ in r_values],
        "pair_b": [b for _, b in pairs for _ in r_values],
        "gap_class": [cls for cls in classes for _ in r_values],
        "r": list(r_values) * len(pairs),
        "gap": gaps.T.ravel(),
        "floored": floored.T.ravel(),
    }
    holds = [
        slope is None
        or not (
            (cls == "cos_separated" and slope < 1.8)
            or (cls == "sine_separated" and not 0.8 <= slope <= 1.2)
            or (cls == "same_cluster" and slope > 0.1)
        )
        for cls, slope in zip(classes, slopes)
    ]
    check = Check(
        "gap_growth_slope",
        holds,
        {"pair": pairs, "class": classes, "slope": slopes},
        {"lengths": list(config.lengths), "seed": sample.seed},
    )
    labels = ["|".join(map(str, a)) + ":" + "|".join(map(str, b)) for a, b in pairs]
    extras = {"slopes": dict(zip(labels, slopes)), "min_pair_slope": min_pair_slope}
    return Result(columns, [check], extras)


# ----------------------------------------------------- expansion / cluster


def expansion_bound(l: int, a: float, b: float, r: float) -> float:
    """Worst-case residual allowance (40(l+1)|a+b| + 16(l+1)^3 + 1) / r."""
    return (40.0 * (l + 1) * abs(a + b) + 16.0 * (l + 1) ** 3 + 1.0) / r


def expansion_sweep(config: ExperimentConfig) -> Result:
    """Exact-vs-predicted residuals over the (l, a, b, r) grid.

    One row per eigenvalue, cell by cell.  The per-cell bound is checked
    everywhere, and the aggregate slope is fitted to the per-r worst
    residual, a zero worst residual left out (None when fewer than four r
    values span a factor of 8, or fewer than three points remain).
    """
    cell_blocks, row_blocks = [], []  # per l: cell columns l, a, b, r, worst; row columns
    for l in config.expansion_l:
        grid = list(itertools.product(config.expansion_ab, config.expansion_ab, config.r_values))
        specs = [TridiagSpec(l=l, a=a, b=b, r=r) for a, b, r in grid]
        predicted = predicted_grid(specs, "c_over_r")
        # Pair the ascending spectrum with the predictions in ascending
        # (value, mode) order; the stable sort breaks ties by mode.
        order = np.argsort(predicted, axis=1, kind="stable")
        exact = np.empty_like(predicted)
        np.put_along_axis(exact, order, exact_spectrum(specs), axis=1)
        residual = np.abs(exact - predicted)
        cell_blocks.append((np.full(len(grid), l), *np.array(grid).T, residual.max(axis=1)))
        row_blocks.append((np.tile(np.arange(1, l + 1), len(grid)), exact, predicted, residual))
    l, a, b, r, worst = (np.concatenate(parts) for parts in zip(*cell_blocks))
    n, exact, predicted, residual = (np.concatenate(parts, axis=None) for parts in zip(*row_blocks))
    per_row = np.repeat(np.arange(l.size), l)
    columns = {"l": l[per_row], "a": a[per_row], "b": b[per_row], "r": r[per_row], "n": n}
    columns.update(exact=exact, predicted=predicted, residual=residual)
    allowance = expansion_bound(l, a, b, r)
    per_cell = {"l": l, "a": a, "b": b, "r": r, "worst_residual": worst, "allowance": allowance}
    rs = sorted(set(config.r_values))
    slope = None
    if len(rs) >= 4 and rs[-1] / rs[0] >= 8:
        worst_by_r = [float(worst[r == value].max()) for value in rs]
        slope = _fit_slope(rs, worst_by_r, [w == 0.0 for w in worst_by_r])
    slope_holds = slope is None or not slope > -0.7
    checks = [
        Check("expansion_bound", ~(worst > allowance), per_cell),
        Check("expansion_aggregate_slope", [slope_holds], {}, {"slope": slope, "limit": -0.7}),
    ]
    return Result(columns, checks, {"aggregate_slope": slope})


def cluster_sweep(config: ExperimentConfig) -> Result:
    """Gap verification on the labelled truncation spectrum at each r.

    Every gap is taken between two values of ``mode_resolved_spectrum``, so
    each eigenvalue carries its mode tuple from the factor that produced it.
    One row per r and pair; required is empty for same_cluster pairs.
    """
    _checked_table(config)
    sample, opairs, lams = _factor_inputs(config)
    rs, reports = [], []
    for r in config.r_values:
        spectrum = mode_resolved_spectrum(config.lengths, opairs, lams, r)
        at_r = verify_gaps(spectrum, config.lengths, r)
        reports += at_r
        rs += [r] * len(at_r)
    pairs = [rep.pair for rep in reports]
    required = [rep.required for rep in reports]
    columns = {
        "r": rs,
        "pair_a": [a for a, _ in pairs],
        "pair_b": [b for _, b in pairs],
        "gap_class": [rep.gap_class for rep in reports],
        "gap": [rep.gap for rep in reports],
        "required": ["" if q is None else q for q in required],
        "satisfied": [rep.satisfied for rep in reports],
    }
    per_case = {
        "r": rs,
        "pair": pairs,
        "class": columns["gap_class"],
        "gap": columns["gap"],
        "required": required,
    }
    shared = {"lengths": list(config.lengths), "seed": sample.seed}
    return Result(columns, [Check("cluster_gap", columns["satisfied"], per_case, shared)])


def separation_sweep(config: ExperimentConfig) -> Result:
    """Design intervals for the sine systems and brute-force verify draws.

    Draw 0 uses interval midpoints; draws 1..n_seeds sample uniformly from the
    intervals.  One row per draw.
    """
    sets = sine_system(config.lengths)
    eps, delta = epsilon_delta(sets, config.lem4_delta)
    intervals = design_intervals(eps, delta, config.d)
    coefficients = [midpoint_coefficients(intervals)] + [
        draw_coefficients(intervals, np.random.default_rng(config.base_seed + i))
        for i in range(1, config.n_seeds + 1)
    ]
    results = [verify_separation(sets, coeffs, delta) for coeffs in coefficients]
    columns = {
        "draw": list(range(len(results))),
        "epsilon": [eps] * len(results),
        "delta": [delta] * len(results),
        "min_gap": [res.min_gap for res in results],
        "threshold": [res.threshold for res in results],
        "passed": [res.passed for res in results],
    }
    per_case = {
        "draw": columns["draw"],
        "coefficients": [[float(c) for c in coeffs] for coeffs in coefficients],
        "min_gap": columns["min_gap"],
        "threshold": columns["threshold"],
    }
    check = Check("separation", columns["passed"], per_case, {"lengths": list(config.lengths)})
    return Result(columns, [check])


def partition_survey(config: ExperimentConfig) -> Result:
    """Structural identity checks plus a per-box census, one row per box.

    All three identity families are exact integer comparisons; at radius 0
    there is no neighbor box, and only the partition of unity is checked.
    """
    part = config.partition()
    directions = [sign * axis for axis in range(1, config.d + 1) for sign in (1, -1)]
    neighbor_ok, face_ok = [], []
    if part.radius >= 1:
        neighbor_ok = [np.array_equal(*neighbor_sum_identity(part))]
        face_ok = [np.array_equal(*face_product(part, direction)) for direction in directions]
    lengths = {"lengths": list(config.lengths)}
    checks = [
        Check("partition_of_unity", [partition_of_unity_holds(part)], {}, lengths),
        Check("neighbor_sum_identity", neighbor_ok, {}, lengths),
        Check("face_product", face_ok, {"direction": directions}, lengths),
    ]
    sites = [box_sites(part, n) for n in part.boxes]
    columns = {
        "box": list(part.boxes),
        "sites": [len(s) for s in sites],
        "first_site": [s[0] for s in sites],
        "last_site": [s[-1] for s in sites],
    }
    return Result(columns, checks)


def rank_sweep(config: ExperimentConfig) -> Result:
    """cyclic_rank_check across seeds, one row per seed."""
    part = config.partition()
    n = config.rank_n or (0,) * config.d
    m = config.rank_m if config.rank_m is not None else (1,) * config.d
    results, mids = [], lem4_midpoints(config)
    for seed in range(config.n_seeds):
        sample = sample_disorder(config, seed)
        potential = _box_potential(part, sample, boosts_for(config, sample, mids))
        results.append(cyclic_rank_check(part, potential, n, m, config.rank_k))
    columns = {
        "seed": list(range(config.n_seeds)),
        "rank": [res.rank for res in results],
        "expected": [res.expected for res in results],
        "full": [res.full for res in results],
    }
    first = results[0]
    shared = {"lengths": list(config.lengths), "n": first.n, "m": first.m, "k": first.k}
    per_case = {key: columns[key] for key in ("seed", "rank", "expected")}
    return Result(columns, [Check("cyclic_rank", columns["full"], per_case, shared)])


def nonvanishing_survey(ps: tuple[int, ...]) -> Result:
    """Exact cosine-sum scan over the moduli ``ps``, one row per zero witness.

    The extras carry the admissibility verdict, tuple and zero counts and
    reasons; inadmissible moduli are controls, whose zeros do not fail.
    """
    report = verify_nonvanishing(ps)
    columns = {"ps": [ps] * len(report.witnesses), "ns": list(report.witnesses)}
    shared = {"ps": ps, "zeros": report.zeros, "witnesses": report.witnesses}
    check = Check("cosine_sum_nonvanishing", [not (report.admissible and report.zeros)], {}, shared)
    extras = {
        "admissible": report.admissible,
        "tuples": report.tuples,
        "zeros": report.zeros,
        "reasons": list(report.reasons),
    }
    return Result(columns, [check], extras)
