"""Config parsing, experiment drivers, output files, and the CLI."""

import dataclasses
import gc
import hashlib
import itertools
import json
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxham import cli, harness, resolvent
from boxham.cluster import all_mode_tuples, classify_pair, mode_resolved_spectrum
from boxham.errors import ConfigError, SpectralProximityError, VolumeError
from boxham.harness import (
    ExperimentConfig,
    boosts_for,
    cyclic_rank_check,
    expansion_bound,
    gap_growth_probe,
    lattice_diameter,
    omega_pairs,
    parse_config_text,
    sample_disorder,
    write_csv,
    write_verdict,
)
from boxham.lattice import (
    LatticeOperator,
    _box_potential,
    box_mask,
    build_hamiltonian,
    build_partition,
)
from boxham.resolvent import _solve_refined
from boxham.separation import (
    design_intervals,
    epsilon_delta,
    midpoint_coefficients,
    sine_system,
)

CONFIGS = Path(__file__).parent.parent / "configs"

MINIMAL = """
geometry.d = 2
geometry.lengths = 2, 2
geometry.radius = 2
"""


def make_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(d=2, lengths=(2, 2), radius=2)
    return dataclasses.replace(base, **overrides)


def _unpack(result):
    """(rows, failures, extras) of a driver's Result, rows in CSV column order."""
    return list(zip(*result.columns.values())), cli.failure_records(result.checks), result.extras


def _columns(header, rows) -> dict:
    """The header -> column table of ``rows``."""
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


# ------------------------------------------------------------------ parsing


def test_parse_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.d == 2 and cfg.lengths == (2, 2) and cfg.radius == 2
    assert (cfg.lower, cfg.upper) == (-1.0, 1.0)
    assert cfg.n_seeds == 1 and cfg.base_seed == 0
    assert cfg.r_values == (300.0,)
    assert cfg.lambda_mode == "explicit" and cfg.lambda_values == (0.0,)
    assert cfg.precision == "standard"


def test_parse_full_config():
    cfg = parse_config_text(
        """
        # experiment description
        geometry.d = 2
        geometry.lengths = 2, 4
        geometry.radius = 3
        disorder.lower = -0.5
        disorder.upper = 0.5
        disorder.seeds = 7
        disorder.base_seed = 11
        run.r = 100, 200, 400
        run.lambda = 1.5, 2.5
        run.z = 40
        precision = extended
        output.dir = /tmp/somewhere
        expansion.l = 3, 5
        expansion.ab = -1, 0.5
        rank.n = 0, 0
        rank.m = 1, 1
        rank.k = 12
        constancy.box = 1, 0
        """
    )
    assert cfg.lengths == (2, 4)
    assert cfg.r_values == (100.0, 200.0, 400.0)
    assert cfg.lambda_values == (1.5, 2.5)
    assert cfg.z_values == (40.0,)
    assert cfg.precision == "extended"
    assert cfg.output_dir == "/tmp/somewhere"
    assert cfg.expansion_l == (3, 5) and cfg.expansion_ab == (-1.0, 0.5)
    assert cfg.rank_n == (0, 0) and cfg.rank_m == (1, 1) and cfg.rank_k == 12
    assert cfg.constancy_box == (1, 0)


def test_parse_lem4_lambda():
    cfg = parse_config_text(MINIMAL + "run.lambda = from_lem4:0.3\n")
    assert cfg.lambda_mode == "from_lem4"
    assert cfg.lem4_delta == 0.3
    assert cfg.lambda_values == ()


@pytest.mark.parametrize(
    "extra, field, in_message",
    [
        ("geometry.d = 2\n", "geometry.d", "duplicate"),
        ("geometry.bogus = 1\n", "geometry.bogus", "unknown config key"),
        ("run.workers = 2\n", "run.workers", "unknown config key"),
        ("tol.degeneracy = 1e-6\n", "tol.degeneracy", "unknown config key"),
        ("precision = double\n", "precision", "standard|extended"),
        ("run.r = -5\n", "run.r", "positive"),
        ("tol.margin = 0.3\n", "tol.margin", "unknown config key"),
        ("disorder.seeds = three\n", "disorder.seeds", "cannot parse"),
        ("just words\n", None, "key = value"),
        ("gap.pairs = 1,1:1,2\n", "gap.pairs", "unknown config key"),
        ("disorder.upper = inf\n", "disorder.upper", "not a finite number"),
        ("run.r = 100, nan\n", "run.r", "not a finite number"),
        ("run.lambda = from_lem4:nan\n", "run.lambda", "not a finite number"),
        ("disorder.lower = -1e308\ndisorder.upper = 1e308\n", "disorder.upper", "finite"),
    ],
)
def test_parse_rejections(extra, field, in_message):
    with pytest.raises(ConfigError) as info:
        parse_config_text(MINIMAL + extra)
    assert in_message in str(info.value)
    if field is not None and info.value.field is not None:
        assert info.value.field.endswith(field.split(".")[-1])


def test_parse_missing_required_field():
    with pytest.raises(ConfigError) as info:
        parse_config_text("geometry.d = 1\ngeometry.radius = 2\n")
    assert info.value.field == "geometry.lengths"
    assert "missing required field" in str(info.value)


def test_parse_lengths_dimension_mismatch():
    with pytest.raises(ConfigError) as info:
        parse_config_text("geometry.d = 2\ngeometry.lengths = 2\ngeometry.radius = 2\n")
    assert info.value.field == "geometry.lengths"
    assert info.value.line == 2


def test_duplicate_key_reports_line():
    text = MINIMAL + "disorder.seeds = 3\ndisorder.seeds = 4\n"
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    # the duplicate is on the second occurrence's line
    assert info.value.line == text.splitlines().index("disorder.seeds = 4") + 1


def test_config_hash_is_stable_and_sensitive():
    a = parse_config_text(MINIMAL)
    b = parse_config_text(MINIMAL + "# trailing comment\n")
    c = parse_config_text(MINIMAL + "disorder.seeds = 2\n")
    assert a.config_hash() == b.config_hash()  # formatting-independent
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 64
    # the output directory and the inert precision key leave the hash unchanged
    for setting in ("precision = extended\n", "output.dir = elsewhere\n"):
        assert parse_config_text(MINIMAL + setting).config_hash() == a.config_hash()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        harness.load_config(tmp_path / "nothere.cfg")


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent.parent / "configs").glob("*.cfg")), ids=lambda p: p.stem
)
def test_example_config_parses_and_names_a_subcommand(path):
    """Every shipped config loads, and its <subcommand>_<variant> stem names a subcommand."""
    harness.load_config(path)
    subcommand = path.stem.partition("_")[0]
    args = cli.build_parser().parse_args([subcommand, "--config", str(path)])
    assert args.command == subcommand


# ----------------------------------------------------------------- disorder


def test_sample_disorder_is_bit_exact():
    cfg = make_config(base_seed=5, lower=-0.25, upper=0.75)
    sample = sample_disorder(cfg, 3)
    rng = np.random.default_rng(8)
    boxes = list(itertools.product(range(-2, 3), repeat=2))
    draws = rng.uniform(-0.25, 0.75, size=len(boxes))
    for box, want in zip(boxes, draws):
        assert sample[box[0] + 2, box[1] + 2] == want  # bitwise
    assert sample.size == 25


def test_sample_disorder_is_the_flat_draw_on_the_box_grid():
    # box n sits at index n + radius, so the grid's C order is the order of
    # partition.boxes and it holds the draws of size=len(boxes) bit for bit
    cfg = make_config(d=3, lengths=(2, 2, 2), base_seed=4, lower=-0.5, upper=2.0)
    boxes = cfg.partition().boxes
    for index in range(3):
        omega = sample_disorder(cfg, index)
        flat = np.random.default_rng(4 + index).uniform(-0.5, 2.0, size=len(boxes))
        assert omega.shape == (5, 5, 5) and omega.dtype == np.float64
        assert np.array_equal(omega.ravel().view(np.int64), flat.view(np.int64))
        assert [omega[tuple(k + 2 for k in n)] for n in boxes] == flat.tolist()
        assert not omega.flags.writeable
        with pytest.raises(ValueError):
            omega[2, 2, 2] = 0.0


@pytest.mark.parametrize("box", [(1, 0), (0, 0)])
def test_constancy_scan_leaves_the_seed_zero_grid_unchanged(monkeypatch, box):
    # lambda is added to copies of the grid, box 0 (omega_0) included
    drawn = []

    def keep(config, index):
        drawn.append(sample_disorder(config, index))
        return drawn[-1]

    monkeypatch.setattr(harness, "sample_disorder", keep)
    cfg = make_config(lambda_values=(0.0, 1.0, 2.5), z_values=(30.0, 45.0), constancy_box=box)
    rows, failures, _ = _unpack(harness.constancy_scan(cfg))
    assert len(drawn) == 1 and len(rows) == 6 and not failures
    assert np.array_equal(drawn[0].view(np.int64), sample_disorder(cfg, 0).view(np.int64))


def test_sample_disorder_statistics():
    cfg = make_config(radius=4)
    draws = [
        v for i in range(100) for v in sample_disorder(cfg, i).ravel()
    ]
    draws = np.array(draws)
    assert draws.min() >= -1.0 and draws.max() <= 1.0
    # 81 boxes x 100 samples; 3 sigma of the mean of uniform[-1,1]
    assert abs(draws.mean()) < 3.0 * (2.0 / np.sqrt(12.0)) / np.sqrt(draws.size)


def test_omega_pairs_reads_unit_boxes():
    cfg = make_config()
    sample = sample_disorder(cfg, 0)
    pairs = omega_pairs(sample)
    assert pairs[0] == (sample[1, 2], sample[3, 2])
    assert pairs[1] == (sample[2, 1], sample[2, 3])


def test_boosts_explicit_broadcast():
    cfg = make_config(lambda_values=(2.5,))
    sample = sample_disorder(cfg, 0)
    assert boosts_for(cfg, sample) == (2.5, 2.5)
    cfg = make_config(lambda_values=(1.0, 2.0))
    assert boosts_for(cfg, sample) == (1.0, 2.0)


def test_boosts_length_mismatch():
    cfg = make_config(d=3, lengths=(2, 2, 2), lambda_values=(1.0, 2.0))
    sample = sample_disorder(cfg, 0)
    with pytest.raises(ConfigError) as info:
        boosts_for(cfg, sample)
    assert info.value.field == "run.lambda"


def test_boosts_from_separation_design_hit_midpoints():
    cfg = make_config(
        lengths=(2, 4), lambda_mode="from_lem4", lambda_values=(), lem4_delta=None
    )
    sample = sample_disorder(cfg, 0)
    boosts = boosts_for(cfg, sample)
    eps, delta = epsilon_delta(sine_system((2, 4)))
    mids = midpoint_coefficients(design_intervals(eps, delta, 2))
    pairs = omega_pairs(sample)
    for i, (lo, hi) in enumerate(pairs):
        # the designed full coefficient 2(omega_- + omega_+ + lambda)
        assert 2.0 * (lo + hi + boosts[i]) == pytest.approx(mids[i], rel=1e-12)


# ------------------------------------------------------------ output files


def test_write_csv_formats_and_determinism(tmp_path):
    rows = [(1, 0.1, True, (1, 2)), (2, -3.0, False, (0, 0))]
    p1 = write_csv(tmp_path / "a.csv", _columns(["i", "x", "ok", "box"], rows))
    p2 = write_csv(tmp_path / "b.csv", _columns(["i", "x", "ok", "box"], rows))
    text = p1.read_text()
    assert p1.read_bytes() == p2.read_bytes()
    lines = text.splitlines()
    assert lines[0] == "i,x,ok,box"
    assert lines[1] == "1,0.10000000000000001,true,1|2"
    assert lines[2] == "2,-3,false,0|0"
    # 17 significant digits round-trip the double exactly
    assert float(lines[1].split(",")[1]) == 0.1
    # every other field type the drivers emit: numpy scalars from spectra and
    # floor tests, "" for an empty required gap, mode tuples, moduli lists
    fields = [
        (np.float64(0.1), "0.10000000000000001"),
        (np.float64(-3.0), "-3"),
        (np.float64(1e-300), "1e-300"),
        (float("inf"), "inf"),
        (np.bool_(True), "true"),
        (np.bool_(False), "false"),
        (np.int64(7), "7"),
        (np.int64(-2), "-2"),
        ("", ""),
        ("same_cluster", "same_cluster"),
        ((1, 2, 3), "1|2|3"),
        ((np.int64(4),), "4"),
        ([7, 11, 13], "7|11|13"),
    ]
    path = write_csv(tmp_path / "c.csv", {f"v{k}": [value] for k, (value, _) in enumerate(fields)})
    assert path.read_text().splitlines()[1:] == [",".join(text for _, text in fields)]
    # labels equal as values but of other element types keep their own text,
    # in one file and in either order
    labels = [
        ((1, 2), "1|2"),
        ((1.0, 2.0), "1|2"),
        ((True, 2), "true|2"),
        ((np.int64(1), 2), "1|2"),
        ([7, 11], "7|11"),
        ((1.5, 2), "1.5|2"),
        ((-0.0, 2), "-0|2"),
        ((0.0, 2), "0|2"),
        ((np.bool_(True), 2), "true|2"),
        (((1, 2), 3), "1|2|3"),
        (((True, 2), 3), "true|2|3"),
    ]
    for ordered in (labels, labels[::-1]):
        path = write_csv(tmp_path / "d.csv", {"label": [value for value, _ in ordered] * 2})
        assert path.read_text().splitlines()[1:] == [text for _, text in ordered] * 2


def _per_field_csv(header, rows) -> str:
    """The CSV text of formatting every field on its own: write_csv's byte contract."""
    lines = [",".join(header)] + [",".join(map(harness._fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def test_write_csv_tells_values_apart_by_bits_and_identity(tmp_path):
    # each column is long enough to be deduplicated, and holds values that are
    # equal (or bit-different) while their texts differ (or agree)
    columns = [
        [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1.0, -0.0],
        [0.0, -0.0, np.float64(-0.0), float("nan"), float("inf")],
        [1, True, 1.0, np.int64(1), np.bool_(True), np.float64(1.0)],
        [(1, 2), (True, 2), (1.0, 2), (np.int64(1), 2), (-0.0, 2), (0.0, 2), [1, 2]],
        ["", 0.5, "", 0.25, -0.0],
    ]
    header = ["f", "z", "one", "label", "required"]
    rows = [tuple(column[k % len(column)] for column in columns) for k in range(3 * harness._DEDUP_ROWS)]
    path = write_csv(tmp_path / "a.csv", _columns(header, rows))
    assert path.read_text() == _per_field_csv(header, rows)
    assert path.read_text().splitlines()[1:8] == [
        "0,0,1,1|2,",
        "-0,-0,true,true|2,0.5",
        "nan,-0,1,1|2,",
        "inf,nan,1,1|2,0.25",
        "-inf,inf,true,-0|2,-0",
        "1,0,1,0|2,",
        "-0,-0,1,1|2,0.5",
    ]
    assert write_csv(tmp_path / "b.csv", {"x": [], "y": []}).read_text() == "x,y\n"
    with pytest.raises(RuntimeError, match="ragged row table for c.csv"):
        write_csv(tmp_path / "c.csv", {"x": [1, 3], "y": [2]})


def _typed_columns(n_rows: int) -> dict:
    """Array, bool-list and str-list columns of ``n_rows`` rows, cycling small pools."""
    pools = {
        "f64": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, 0.1]),
        "f32": np.array([0.1, -0.0, np.nan, 3.4e38, 1e-45, 1.0], dtype=np.float32),
        "f16": np.array([0.1, -0.0, np.inf, 6e-8], dtype=np.float16),
        "f64_be": np.array([0.3, -0.0, 1e300], dtype=">f8"),
        "i32": np.array([-(2**31), 2**31 - 1, 0, -1, 7], dtype=np.int32),
        "i64": np.array([2**63 - 1, -(2**63 - 1), 0, -5], dtype=np.int64),
        "u64": np.array([2**63, 2**64 - 1, 2**63 + 1, 0, 1], dtype=np.uint64),
        "bool": np.array([True, False, False]),
    }
    columns = {name: np.resize(pool, n_rows) for name, pool in pools.items()}
    columns["f64_strided"] = np.resize(pools["f64"], 2 * n_rows)[::2]
    columns["bools"] = [bool(k % 3) for k in range(n_rows)]
    columns["strs"] = [("a", "", "b|c")[k % 3] for k in range(n_rows)]
    return columns


@pytest.mark.parametrize("n_rows", [harness._DEDUP_ROWS - 1, 3 * harness._DEDUP_ROWS])
def test_write_csv_typed_columns_match_per_field_formatting(tmp_path, n_rows):
    # the array rows are numpy scalars, so the oracle formats each through
    # its own scalar type: float32 and float16 widen to float64, uint64 stays
    # above 2**63
    columns = _typed_columns(n_rows)
    rows = list(zip(*columns.values()))
    path = write_csv(tmp_path / "typed.csv", columns)
    assert path.read_text() == _per_field_csv(list(columns), rows)
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[:8] == ["0", "0.10000000149011612", "0.0999755859375", "0.29999999999999999",
                                       "-2147483648", "9223372036854775807", "9223372036854775808", "true"]
    assert lines[6].split(",")[0] == "4.9406564584124654e-324"
    empty = {name: column[:0] for name, column in columns.items()}
    assert write_csv(tmp_path / "empty.csv", empty).read_text() == ",".join(columns) + "\n"


# values that are equal (or bit-different) while their texts differ (or agree)
_COLLIDING = [0.0, -0.0, np.float64(-0.0), 0, False, 1, True, 1.0, np.int64(1), (1, 2), (True, 2)]
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, float("nan"), float("inf")]), st.floats())
_ATOMS = st.one_of(
    st.sampled_from(_COLLIDING),
    _FLOATS,
    st.integers(),
    st.booleans(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(alphabet="ab|", max_size=3),
)
_FIELDS = st.one_of(
    _ATOMS,
    st.lists(_ATOMS, max_size=3).map(tuple),
    st.lists(st.one_of(_ATOMS, st.tuples(_ATOMS, _ATOMS)), max_size=3),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_write_csv_matches_per_field_formatting_on_random_tables(tmp_path_factory, data):
    n_rows = data.draw(st.integers(0, 2 * harness._DEDUP_ROWS), label="rows")
    columns = []
    for _ in range(data.draw(st.integers(1, 4), label="columns")):
        # rows draw from a small pool, so objects repeat; an all-float pool
        # takes the bit-pattern key
        values = _FIELDS if data.draw(st.booleans()) else _FLOATS
        pool = data.draw(st.lists(values, min_size=1, max_size=6), label="pool")
        picks = st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)
        columns.append(data.draw(picks, label="column"))
    header = [f"c{k}" for k in range(len(columns))]
    rows = list(zip(*columns))
    path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", dict(zip(header, columns)))
    assert path.read_text() == _per_field_csv(header, rows)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_config_csv_bytes_match_per_field_formatting(tmp_path, path):
    driver = cli._EXPERIMENTS[path.stem.partition("_")[0]]
    columns = driver(harness.load_config(path)).columns
    rows = list(zip(*columns.values()))
    assert rows
    written = write_csv(tmp_path / "out.csv", columns)
    assert written.read_text() == _per_field_csv(list(columns), rows)


def test_write_verdict_schema(tmp_path):
    path = write_verdict(
        tmp_path / "v.json", "demo", "cafe" * 16, [], extra={"slope": -1.0}
    )
    payload = json.loads(path.read_text())
    assert payload == {
        "subcommand": "demo",
        "config": "cafe" * 16,
        "pass": True,
        "failures": [],
        "slope": -1.0,
    }
    path = write_verdict(tmp_path / "w.json", "demo", "00" * 32, [{"check": "x"}])
    payload = json.loads(path.read_text())
    assert payload["pass"] is False
    assert payload["failures"] == [{"check": "x"}]


# ------------------------------------------------------------------- scans


def test_multiplicity_scan_small():
    cfg = make_config(n_seeds=2, r_values=(300.0,), lambda_values=(2.0, 3.0))
    rows, failures, extras = _unpack(harness.multiplicity_scan(cfg))
    assert extras == {"s": 2, "bound": 2, "simple": False}
    assert len(rows) == 2
    for seed, r, max_multiplicity, histogram, escalated in rows:
        assert sum(int(part.split(":")[1]) for part in histogram.split("|")) == 4
        assert 1 <= max_multiplicity <= 2
        assert escalated is False
    assert not failures


def test_multiplicity_scan_draws_each_seed_once(monkeypatch):
    draws = []

    def counting(config, index):
        draws.append(index)
        return sample_disorder(config, index)

    monkeypatch.setattr(harness, "sample_disorder", counting)
    cfg = make_config(n_seeds=2, r_values=(300.0, 600.0), lambda_values=(2.0, 3.0))
    rows, failures, extras = _unpack(harness.multiplicity_scan(cfg))
    assert draws == [0, 1]
    cells = [(row[0], row[1]) for row in rows]
    assert cells == [(0, 300.0), (0, 600.0), (1, 300.0), (1, 600.0)]


def test_multiplicity_scan_four_dimensions_on_the_stencil(monkeypatch):
    # 10 000 sites: the dense route would need about 3 GB per cell here
    built = []

    def keep(config):
        built.append(build_partition(config.d, config.lengths, config.radius))
        return built[-1]

    monkeypatch.setattr(ExperimentConfig, "partition", keep)
    cfg = make_config(
        d=4, lengths=(2, 2, 2, 2), n_seeds=2, r_values=(300.0,),
        lambda_mode="from_lem4", lambda_values=(), lem4_delta=0.4,
    )
    rows, failures, extras = _unpack(harness.multiplicity_scan(cfg))
    assert failures == []
    assert len(rows) == 2
    assert all(row[2] <= 2**4 - 4 for row in rows)
    assert [part.n_sites for part in built] == [10_000]
    assert "laplacian" not in built[0].__dict__


def test_multiplicity_scan_needs_radius_two():
    cfg = make_config(radius=1)
    with pytest.raises(VolumeError):
        harness.multiplicity_scan(cfg)


_MIXED_ROUTES = """
geometry.d = 3
geometry.lengths = 2, 2, 2
geometry.radius = 2
disorder.seeds = 4
run.r = 300, 3000, 3e4
run.lambda = from_lem4:0.4
"""


def test_multiplicity_mixed_routes_keep_their_digests(tmp_path, monkeypatch):
    # from_lem4 puts the e_3 box within 2 of r = 3000, so those four cells
    # take the dense LU one at a time; the r = 300 and 3e4 cells are walked
    # as stacks.  The digests are those of the serial per-cell loop.
    dense = []

    def counting(m, rhs, z_scale):
        dense.append(z_scale)
        return _solve_refined(m, rhs, z_scale)

    monkeypatch.setattr(resolvent, "_solve_refined", counting)
    cfg = write_cfg(tmp_path, _MIXED_ROUTES)
    out = tmp_path / "results"
    assert cli.main(["multiplicity", "--config", cfg, "--out", str(out)]) == 0
    assert dense == [3000.0] * 4
    digests = [
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("multiplicity.csv", "multiplicity_verdict.json")
    ]
    assert digests == [
        "ae568e43bb591a078b2595f7f8f638f84cfce0969a15f825cd059253a2cad6a1",
        "540906cbbe518b2fa92c9703a4a0a8a486fde1460bb4308cb9da748c969266bb",
    ]


def test_multiplicity_scan_raises_the_first_failing_cell_in_seed_r_order(monkeypatch):
    # both r values take the dense route; cell (1, 3000) fails and so does
    # (0, 3001), which a serial loop over seeds, then r, reaches first
    calls = Counter()

    def failing(m, rhs, z_scale):
        n = calls[z_scale]
        calls[z_scale] += 1
        if (z_scale, n) in ((3000.0, 1), (3001.0, 0)):
            raise SpectralProximityError(f"cell r={z_scale:g} #{n}", residual=0.5)
        return _solve_refined(m, rhs, z_scale)

    monkeypatch.setattr(resolvent, "_solve_refined", failing)
    cfg = make_config(
        d=3, lengths=(2, 2, 2), n_seeds=2, r_values=(3000.0, 3001.0),
        lambda_mode="from_lem4", lambda_values=(), lem4_delta=0.4,
    )
    with pytest.raises(SpectralProximityError, match="cell r=3001 #0"):
        harness.multiplicity_scan(cfg)


def _refuse_dense(m, rhs, z_scale):
    raise SpectralProximityError(f"dense solve at r={z_scale:g}", residual=0.5)


def test_walks_leave_out_the_dense_cells_and_raise_nothing(monkeypatch):
    # at r = 3000 every _MIXED_ROUTES cell has q > 1/2: the walks yield none
    # of them and never reach the dense LU, even one that would raise
    monkeypatch.setattr(resolvent, "_solve_refined", _refuse_dense)
    cfg = parse_config_text(_MIXED_ROUTES)
    part = cfg.partition()
    mids = harness.lem4_midpoints(cfg)
    samples = [sample_disorder(cfg, seed) for seed in range(cfg.n_seeds)]
    cells = [(sample, boosts_for(cfg, sample, mids)) for sample in samples]
    assert list(resolvent.schur_reduced_walks(part, cells, 3000.0)) == []
    for r in (300.0, 3e4):
        walks = resolvent.schur_reduced_walks(part, cells, r)
        assert [i for indices, _ in walks for i in indices] == [0, 1, 2, 3]


def test_constancy_dense_failure_leaves_the_walked_cell_its_multiplicity(monkeypatch):
    # lambda = 29 puts box e_1 within 2 of z = 30, so that cell takes the
    # dense route, whose solve raises here; lambda = 0 is walked
    cfg = make_config(lambda_values=(29.0, 0.0), z_values=(30.0,))
    alone = _unpack(harness.constancy_scan(dataclasses.replace(cfg, lambda_values=(0.0,))))[0]
    monkeypatch.setattr(resolvent, "_solve_refined", _refuse_dense)
    rows, failures, extras = _unpack(harness.constancy_scan(cfg))
    assert rows == [
        (30.0, 29.0, "", "solver near-singular (residual 0.5); skipped"),
        (30.0, 0.0, alone[0][2], ""),
    ]
    assert alone[0][2] != "" and not failures


def test_constancy_scan_skips_spectral_z():
    cfg = make_config(lambda_values=(1.5,), z_values=(45.0,))
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    base = build_hamiltonian(part, sample)
    mask = box_mask(part, (1, 0))
    h = base.entries.copy()
    h[np.diag_indices_from(h)] += 1.5 * mask
    hot = float(np.linalg.eigvalsh(h)[0])  # a point of the spectrum itself
    cfg = dataclasses.replace(cfg, z_values=(hot, 45.0))
    rows, failures, extras = _unpack(harness.constancy_scan(cfg))
    notes = [note for z, lam, mx, note in rows]
    assert any("skipped" in note for note in notes)
    skipped = [row for row in rows if row[3]]
    assert all(mx == "" for z, lam, mx, note in skipped)
    assert extras["constant"] and not failures
    assert extras["value"] is not None
    assert extras["box"] == [1, 0]


def test_constancy_lambda_zero_column_matches_plain_resolvent():
    from boxham.resolvent import restricted_resolvent
    from boxham.cluster import cluster_indices, degeneracy_tolerance

    cfg = make_config(lambda_values=(0.0, 1.0, 2.5), z_values=(30.0, 45.0, 60.0))
    rows, failures, extras = _unpack(harness.constancy_scan(cfg))
    assert extras["constant"] and not failures
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    h = build_hamiltonian(part, sample)
    for z, lam, max_multiplicity, note in rows:
        if lam != 0.0 or note:
            continue
        rr = restricted_resolvent(h, z, (0, 0), (0, 0))
        block = (rr.block + rr.block.T) / 2.0
        eigs = np.linalg.eigvalsh(block)
        tau = degeneracy_tolerance(eigs)
        mx = max(len(g) for g in cluster_indices(eigs, tau))
        assert max_multiplicity == mx


def test_constancy_scan_solves_each_lambda_once(monkeypatch):
    # each (z, lambda) cell eigensolves its |box 0| reduction once, and no
    # n x n matrix is eigensolved at all
    cfg = make_config(lambda_values=(0.0, 1.0, 2.5), z_values=(30.0, 45.0, 60.0))
    n_sites = cfg.partition().n_sites
    eigvalsh = np.linalg.eigvalsh
    shapes = []

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rows, failures, extras = _unpack(harness.constancy_scan(cfg))
    assert len(rows) == 9
    assert shapes == [(4, 4)] * 9
    assert all(n_sites not in shape for shape in shapes)


def test_constancy_one_dimension_is_simple():
    cfg = make_config(d=1, lengths=(2,), lambda_values=(0.0, 1.0, 2.5))
    rows, failures, extras = _unpack(harness.constancy_scan(cfg))
    assert extras["constant"] and extras["value"] == 1
    assert extras["box"] == [1]


def test_constancy_scan_rejects_lem4_mode():
    cfg = make_config(lambda_mode="from_lem4", lambda_values=(), lem4_delta=0.3)
    with pytest.raises(ConfigError):
        harness.constancy_scan(cfg)


@pytest.mark.parametrize("box", [(0, 0, 0), (1, 1, 0)])
def test_constancy_reduction_matches_dense_resolvent_block(box):
    # the dense route the scan replaced: G_00(z) of H + lambda P_box solved
    # on the full lattice, for box 0 (which moves omega_0) and a non-unit
    # box; z = 12 puts the reduction's complement solve on its dense LU
    from boxham.resolvent import restricted_resolvent
    from boxham.cluster import cluster_indices, degeneracy_tolerance

    cfg = make_config(
        d=3, lengths=(2, 2, 2), radius=1, base_seed=3, constancy_box=box,
        lambda_values=(0.0, 1.0, 2.5), z_values=(12.0, 20.0, 30.0, 45.0),
    )
    rows, failures, extras = _unpack(harness.constancy_scan(cfg))
    part = cfg.partition()
    base = build_hamiltonian(part, sample_disorder(cfg, 0))
    mask = box_mask(part, box)
    origin = (0, 0, 0)
    for z, lam, max_multiplicity, note in rows:
        h = base.entries.copy()
        h[np.diag_indices_from(h)] += lam * mask
        rr = restricted_resolvent(LatticeOperator(entries=h, partition=part), z, origin, origin)
        eigs = np.linalg.eigvalsh((rr.block + rr.block.T) / 2.0)
        assert note == ""
        assert max_multiplicity == max(
            len(g) for g in cluster_indices(eigs, degeneracy_tolerance(eigs))
        )
    assert extras["box"] == list(box)


@pytest.mark.parametrize("box", ["3, 0", "0, 0, 1"])
def test_constancy_box_outside_the_volume_is_a_config_error(tmp_path, capsys, box):
    cfg = write_cfg(tmp_path, MINIMAL + f"constancy.box = {box}\n")
    out = tmp_path / "out"
    assert cli.main(["constancy", "--config", cfg, "--out", str(out)]) == 2
    assert "outside radius 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "stem, driver",
    [("constancy_3d", harness.constancy_scan), ("rankcheck_3d", harness.rank_sweep)],
)
def test_d3_constancy_and_rank_hold_no_dense_matrix(stem, driver):
    # one float64 matrix on the 1000 sites would take 8 MB; the dense route
    # this replaced peaked at about 56 MB (constancy) and 24 MB (rank)
    cfg = harness.load_config(CONFIGS / f"{stem}.cfg")
    n = cfg.partition().n_sites
    tracemalloc.start()
    try:
        driver(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n**2


def test_rank_check_defaults_to_diameter():
    cfg = make_config()
    part = cfg.partition()
    assert lattice_diameter(part) == 18  # (5*2 - 1) per axis
    sample = sample_disorder(cfg, 0)
    potential = _box_potential(part, sample, boosts_for(cfg, sample))
    res = cyclic_rank_check(part, potential, (0, 0), (1, 1))
    assert res.k == 18
    assert res.expected == 4
    assert res.full and res.rank == 4


def test_rank_check_k_zero():
    cfg = make_config()
    part = cfg.partition()
    potential = _box_potential(part, sample_disorder(cfg, 0))
    same = cyclic_rank_check(part, potential, (1, 1), (1, 1), k=0)
    assert same.rank == same.expected == 4  # P_n alone spans its own box
    cross = cyclic_rank_check(part, potential, (0, 0), (1, 1), k=0)
    assert cross.rank == 0  # disjoint boxes: P_m P_n = 0
    with pytest.raises(ValueError):
        cyclic_rank_check(part, potential, (0, 0), (1, 1), k=-1)


def test_rank_check_reaches_neighbor_in_one_dimension():
    cfg = make_config(d=1, lengths=(2,), base_seed=5)
    part = cfg.partition()
    potential = _box_potential(part, sample_disorder(cfg, 0))
    res = cyclic_rank_check(part, potential, (0,), (1,), 6)
    assert res.full and res.expected == 2


def test_multiplicity_one_dimension_always_simple():
    cfg = make_config(d=1, lengths=(3,), n_seeds=3, r_values=(200.0, 300.0))
    rows, failures, extras = _unpack(harness.multiplicity_scan(cfg))
    assert not failures and extras["simple"]
    assert all(row[2] == 1 for row in rows)


def test_rank_sweep_full_across_seeds():
    cfg = make_config(n_seeds=3, rank_m=(1, 1), rank_k=10, lambda_values=(2.0, 3.0))
    rows, failures, _ = _unpack(harness.rank_sweep(cfg))
    assert not failures
    assert [(r[1], r[2], r[3]) for r in rows] == [(4, 4, True)] * 3


def test_gap_growth_requires_usable_r_grid():
    for bad in [(100.0, 200.0), (100.0, 200.0, 400.0)]:
        cfg = make_config(r_values=bad)
        with pytest.raises(ConfigError) as info:
            gap_growth_probe(cfg)
        assert info.value.field == "run.r"


def test_gap_growth_one_dimension_quadratic():
    cfg = make_config(
        d=1, lengths=(2,), r_values=(100.0, 200.0, 400.0, 800.0, 1600.0)
    )
    rows, failures, extras = _unpack(gap_growth_probe(cfg))
    assert list(extras["slopes"]) == ["1:2"]
    assert len(rows) == 5
    assert all(row[2] == "cos_separated" for row in rows)
    assert not any(row[5] for row in rows)
    assert extras["slopes"]["1:2"] == pytest.approx(2.0, abs=0.05)
    assert extras["min_pair_slope"] == pytest.approx(2.0, abs=0.05)
    assert not failures


def test_gap_growth_floor_limited_curve():
    # zero disorder, zero boost: the (1,2)/(2,1) gap is exactly 0 at every r,
    # so its curve must come back floor-limited instead of mis-fitted
    cfg = make_config(
        lower=0.0, upper=0.0, r_values=(100.0, 200.0, 400.0, 800.0, 1600.0)
    )
    rows, failures, extras = _unpack(gap_growth_probe(cfg))
    by_class = {}
    for a, b, cls, r, gap, floored in rows:
        label = "|".join(map(str, a)) + ":" + "|".join(map(str, b))
        by_class.setdefault(cls, {}).setdefault(label, []).append(floored)
    same = by_class["same_cluster"]
    assert len(same) == 1
    [(label, floored)] = same.items()
    assert extras["slopes"][label] is None and all(floored)  # floor-limited
    for label in by_class["cos_separated"]:
        assert extras["slopes"][label] == pytest.approx(2.0, abs=0.05)
    assert extras["min_pair_slope"] is None  # dominated by the exact tie
    assert not failures


@pytest.mark.parametrize(
    "overrides",
    [
        dict(lower=0.0, upper=0.0, r_values=(100.0, 200.0, 400.0, 800.0, 1600.0)),
        dict(d=3, lengths=(3, 4, 5), r_values=(100.0, 200.0, 400.0, 800.0, 1600.0)),
    ],
    ids=["zero_disorder_2x2", "l345"],
)
def test_gap_growth_batched_slopes_equal_per_curve_fits(overrides):
    cfg = make_config(**overrides)
    rows, _, extras = _unpack(gap_growth_probe(cfg))
    r_values = sorted(cfg.r_values)
    curves = {}
    for a, b, _, r, gap, floored in rows:
        label = "|".join(map(str, a)) + ":" + "|".join(map(str, b))
        curves.setdefault(label, []).append((gap, floored))
    assert list(curves) == list(extras["slopes"])
    kinds = set()
    for label, points in curves.items():
        gaps, floored = zip(*points)
        expected = harness._fit_slope(r_values, gaps, floored)
        assert extras["slopes"][label] == expected, label  # bit for bit
        kinds.add(expected is None)
    if cfg.upper == 0.0:
        assert kinds == {True, False}  # floored and clean curves both occur


def test_expansion_bound_formula():
    assert expansion_bound(2, 1.0, -0.5, 100.0) == (40 * 3 * 0.5 + 16 * 27 + 1) / 100.0


def test_expansion_sweep_small_grid():
    cfg = make_config(
        d=1,
        lengths=(2,),
        expansion_l=(2, 3),
        expansion_ab=(0.0, 1.0),
        r_values=(50.0, 100.0, 200.0, 400.0, 800.0),
    )
    rows, failures, extras = _unpack(harness.expansion_sweep(cfg))
    assert not failures
    slope = extras["aggregate_slope"]
    # (2 + 3 modes) x 4 (a,b) combos x 5 r values
    assert len(rows) == 5 * 4 * 5
    l, a, b, r, n, exact, predicted, residual = rows[0]
    assert (l, a, b, r, n) == (2, 0.0, 0.0, 50.0, 1)
    assert residual == abs(exact - predicted)
    assert slope is not None and slope <= -0.7


def test_expansion_sweep_single_r_has_no_slope():
    cfg = make_config(d=1, lengths=(2,), expansion_l=(2,), expansion_ab=(0.0,))
    rows, failures, extras = _unpack(harness.expansion_sweep(cfg))
    assert not failures and extras["aggregate_slope"] is None
    assert len(rows) == 2


def test_cluster_sweep_rows_and_gaps():
    cfg = make_config(r_values=(300.0,), lambda_values=(0.5, 0.8))
    rows, failures, _ = _unpack(harness.cluster_sweep(cfg))
    assert not failures
    assert len(rows) == 6  # 4 modes -> 6 pairs
    classes = {row[3] for row in rows}
    assert classes == {"cos_separated", "same_cluster"}
    for r, pa, pb, cls, gap, required, satisfied in rows:
        assert r == 300.0 and satisfied
        if cls == "same_cluster":
            assert required == ""
        else:
            assert gap >= required > 0


def test_cluster_sweep_gaps_are_labelled_spectrum_differences():
    cfg = harness.load_config(Path(__file__).parent.parent / "configs" / "cluster_2x4.cfg")
    opairs, lams = harness._factor_inputs(cfg)
    spectra = {r: mode_resolved_spectrum(cfg.lengths, opairs, lams, r) for r in cfg.r_values}
    rows, failures, _ = _unpack(harness.cluster_sweep(cfg))
    assert rows and not failures
    for r, a, b, cls, gap, required, satisfied in rows:
        assert gap == abs(spectra[r][a] - spectra[r][b])


def test_gap_growth_gaps_are_labelled_spectrum_differences():
    cfg = harness.load_config(CONFIGS / "gapgrowth_2x4.cfg")
    opairs, lams = harness._factor_inputs(cfg)
    r_values = sorted(cfg.r_values)
    spectra = {r: mode_resolved_spectrum(cfg.lengths, opairs, lams, r) for r in r_values}
    eps = np.finfo(float).eps
    floors = {r: 8.0 * eps * max(abs(v) for v in s.values()) for r, s in spectra.items()}
    rows, failures, _ = _unpack(gap_growth_probe(cfg))
    assert rows and not failures
    # pair-major in combinations order, r ascending within a pair
    pairs = itertools.combinations(all_mode_tuples(cfg.lengths), 2)
    assert [(a, b, r) for a, b, _, r, _, _ in rows] == [(a, b, r) for a, b in pairs for r in r_values]
    for a, b, cls, r, gap, floored in rows:
        assert gap == abs(spectra[r][a] - spectra[r][b])  # bit for bit
        assert floored == (gap <= floors[r])
        assert cls == classify_pair(a, b, cfg.lengths)


def test_separation_sweep_draws_pass():
    cfg = make_config(lengths=(2, 4), n_seeds=3)
    rows, failures, _ = _unpack(harness.separation_sweep(cfg))
    assert not failures
    assert len(rows) == 4  # midpoints + 3 random draws
    eps, delta = epsilon_delta(sine_system((2, 4)))
    for draw, row_eps, row_delta, min_gap, threshold, passed in rows:
        assert (row_eps, row_delta) == (eps, delta)
        assert passed and min_gap >= threshold == 1.0 / delta


def test_partition_survey_census():
    cfg = make_config()
    rows, failures, _ = _unpack(harness.partition_survey(cfg))
    assert not failures
    assert len(rows) == 25
    assert sum(row[1] for row in rows) == 100
    by_box = {row[0]: row for row in rows}
    assert by_box[(0, 0)][1] == 4


def test_configs_of_one_geometry_share_one_partition():
    # the survey caches a dense Laplacian on the shared partition; the next
    # geometry's partition takes its place and releases it
    cfg = make_config(lengths=(2, 3), radius=1)
    part = cfg.partition()
    assert make_config(lengths=(2, 3), radius=1, base_seed=7, n_seeds=3).partition() is part
    harness.partition_survey(cfg)
    packing = part.sublattice_packing
    for table in (packing.bt, packing.neighbours, packing.pick):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1
    assert cfg.partition().sublattice_packing is packing
    released, laplacian = weakref.ref(part), weakref.ref(part.__dict__["laplacian"])
    del part
    other = make_config(lengths=(3, 2), radius=1).partition()
    gc.collect()
    assert other.lengths == (3, 2)
    assert released() is None and laplacian() is None


def test_nonvanishing_survey_control_vs_admissible():
    rows, failures, extras = _unpack(harness.nonvanishing_survey((5, 7)))
    assert extras["admissible"] and extras["zeros"] == 0 and not failures and not rows
    rows, failures, extras = _unpack(harness.nonvanishing_survey((3, 3)))
    assert not extras["admissible"]
    assert extras["zeros"] > 0 and rows
    assert not failures  # inadmissible inputs are controls, not failures


@pytest.mark.parametrize("name", sorted(cli._EXPERIMENTS))
def test_every_driver_returns_rows_failures_and_extras(name):
    driver = cli._EXPERIMENTS[name]
    assert getattr(harness, driver.__name__) is driver
    if name == "cossum":
        subject = (5, 7)
    elif name == "gapgrowth":
        subject = make_config(r_values=(100.0, 200.0, 400.0, 800.0))
    else:
        subject = make_config()
    result = driver(subject)
    assert isinstance(result, harness.Result)
    assert len({len(column) for column in result.columns.values()}) == 1
    failures = cli.failure_records(result.checks)
    assert isinstance(failures, list)
    assert isinstance(result.extras, dict)
    json.dumps(result.extras)
    json.dumps(failures)


# --------------------------------------------------------------------- CLI


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_multiplicity_roundtrip(tmp_path):
    cfg = write_cfg(
        tmp_path,
        MINIMAL + "run.lambda = 2, 3\ndisorder.seeds = 2\nrun.r = 300\n",
    )
    out = tmp_path / "results"
    assert cli.main(["multiplicity", "--config", cfg, "--out", str(out)]) == 0
    csv_lines = (out / "multiplicity.csv").read_text().splitlines()
    assert csv_lines[0] == "seed,r,max_multiplicity,histogram,escalated"
    assert len(csv_lines) == 3
    seed, r, mx, hist, esc = csv_lines[1].split(",")
    assert seed == "0" and r == "300" and esc == "false"
    assert int(mx) <= 2
    verdict = json.loads((out / "multiplicity_verdict.json").read_text())
    assert verdict["pass"] is True and verdict["failures"] == []
    assert verdict["subcommand"] == "multiplicity"
    assert verdict["bound"] == 2 and verdict["s"] == 2 and verdict["simple"] is False
    assert len(verdict["config"]) == 64


def test_cli_calls_in_one_process_parse_independently(tmp_path, capsys):
    # the parser is built once per process; each call still parses only its own argv
    assert cli.build_parser() is cli.build_parser()
    cfg = write_cfg(tmp_path, MINIMAL + "run.r = 300\n")
    assert cli.main(["cossum", "--p", "5,7", "--out", str(tmp_path / "c")]) == 0
    assert cli.main(["partition", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    assert (tmp_path / "c" / "cossum.csv").exists() and not (tmp_path / "c" / "partition.csv").exists()
    assert (tmp_path / "p" / "partition.csv").exists() and not (tmp_path / "p" / "cossum.csv").exists()
    first = cli.build_parser().parse_args(["cossum", "--p", "5"])
    second = cli.build_parser().parse_args(["partition", "--config", cfg])
    assert vars(first) == {"command": "cossum", "p": "5", "out": None}
    assert vars(second) == {"command": "partition", "config": cfg, "out": None}
    with pytest.raises(SystemExit):
        cli.main(["partition", "--p", "5"])  # --p belongs to cossum only
    capsys.readouterr()


def test_cli_output_is_byte_identical_across_reruns(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + "run.r = 300\ndisorder.seeds = 2\n")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(["multiplicity", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["multiplicity", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("multiplicity.csv", "multiplicity_verdict.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_multiplicity_precision_key_runs_one_solve(tmp_path):
    # both precision values parse, run the same Schur solve and write the same files
    body = (
        "geometry.d = 2\ngeometry.lengths = 2, 4\ngeometry.radius = 2\n"
        "disorder.seeds = 2\nrun.r = 300\nrun.lambda = from_lem4:0.4\n"
    )
    outputs = []
    for precision in ("extended", "standard"):
        cfg = write_cfg(tmp_path, body + f"precision = {precision}\n", f"{precision}.cfg")
        out = tmp_path / precision
        assert cli.main(["multiplicity", "--config", cfg, "--out", str(out)]) == 0
        outputs.append(
            [(out / name).read_bytes() for name in ("multiplicity.csv", "multiplicity_verdict.json")]
        )
    assert outputs[0] == outputs[1]


def test_cli_config_error_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "geometry.d = 2\ngeometry.radius = 2\n")
    assert cli.main(["partition", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "geometry.lengths" in err


def test_cli_non_finite_config_number_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL + "disorder.upper = inf\n")
    assert cli.main(["multiplicity", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "not a finite number" in err and "disorder.upper" in err and "line 5" in err


def test_cli_r_whose_square_overflows_exit_two(tmp_path, capsys):
    # r * r must stay finite: sqrt(float max) is about 1.3408e154
    assert parse_config_text(MINIMAL + "run.r = 1.34e154\n").r_values == (1.34e154,)
    cfg = write_cfg(tmp_path, MINIMAL + "run.r = 300, 1.35e154\n")
    for command in ("multiplicity", "expansion", "cluster", "gapgrowth"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error [field run.r]" in err and "r^2 must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gapgrowth", "cluster", "rankcheck"])
def test_cli_radius_zero_has_no_omega_pairs_exit_two(tmp_path, capsys, command):
    # radius 0 holds box 0 alone, so no omega on +-e_i can be read for the
    # factor specs or the from_lem4 boosts
    body = (
        "geometry.d = 2\ngeometry.lengths = 2, 2\ngeometry.radius = 0\n"
        "run.r = 100, 200, 400, 800\nrun.lambda = from_lem4:0.4\nrank.m = 0, 0\n"
    )
    out = tmp_path / "results"
    assert cli.main([command, "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: omega pairs need radius >= 1" in err and "got radius 0" in err
    assert not out.exists()


def test_cli_rankcheck_at_radius_zero_takes_zero_boosts(tmp_path, capsys):
    # radius 0 holds no unit box: the default zero boosts add nothing there,
    # so the Krylov rank check runs; a nonzero boost has no box to sit on
    body = "geometry.d = 2\ngeometry.lengths = 2, 2\ngeometry.radius = 0\nrank.m = 0, 0\n"
    out = tmp_path / "results"
    assert cli.main(["rankcheck", "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 0
    assert (out / "rankcheck.csv").read_text().splitlines()[0] == "seed,rank,expected,full"
    capsys.readouterr()
    boosted = tmp_path / "boosted"
    cfg = write_cfg(tmp_path, body + "run.lambda = 1\n", name="boosted.cfg")
    assert cli.main(["rankcheck", "--config", cfg, "--out", str(boosted)]) == 2
    assert "config error: 2 boosts for d=2 at radius 0" in capsys.readouterr().err
    assert not boosted.exists()


def test_ragged_driver_table_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    # a driver that returns columns of unequal length is a program fault: it
    # must surface as one, never as "config error" with exit 2
    def ragged(config):
        return harness.Result({"box": [0, 1], "sites": [1.0]}, [])

    monkeypatch.setitem(cli._EXPERIMENTS, "partition", ragged)
    cfg = write_cfg(tmp_path, MINIMAL)
    with pytest.raises(RuntimeError, match="ragged row table"):
        cli.main(["partition", "--config", cfg, "--out", str(tmp_path / "out")])
    assert "config error" not in capsys.readouterr().err


# sha256 of the CSV and the verdict of every shipped config; a change to
# their bytes must be deliberate, and shows up here before it reaches
# scripts/run_all.py.  The constancy_3d and rankcheck_3d pins were recorded
# on the dense full-lattice route that the box-0 reduction and the stencil
# replaced.
_SHIPPED_SHA256 = {
    "cluster_2x4": (
        "a0cba775fff0c6eeaf46067ba43e8989fbd9a50005ab24aee534b08efdc3bc07",
        "25967267f329c96e24552f4bb1805494ed4a96809cc2c6dd9273a697883114b7",
    ),
    "constancy_2x2": (
        "3f718a06186764f0ab6e28dba3b49fbdae9fc9efa642d46e375bd77d0881d0a8",
        "c83d09a532105f6fcdc0aa53a2c5a5d741af0fedd8bc08103ee91ca159966c26",
    ),
    "constancy_3d": (
        "1e124f3c912d25d712d9a54c78f9a16e2fa8350dd87e3a8c3d11262888c844db",
        "7b2c0a12ff47f5327bb5b6a90deeb08783617a3a9cfa12630de5faa45288d8f4",
    ),
    "expansion_grid": (
        "8df338d308f75e1b1d86aa64cbf67cba92226ae28edd4352cb86a4ae765689ad",
        "9128d12c519789a7fb0e6af96bf7d8ca619f0f4a01c1b10ef212afb6ff3bae8b",
    ),
    "gapgrowth_2x2": (
        "2e8edd682b61e2902b886726d021ae345e12b6e47edfcb58bf31bfac75368e31",
        "48a9f4e1b915c65e2f65efcc747fc227b7eb005108460e70d90ef8bde3363e15",
    ),
    "gapgrowth_2x4": (
        "8006bbcf41e4e49cd3adae1b32eaec169c7e15c0b26d19111951d9b62ce2b455",
        "541394aa7ae474a495221b6cd739e3dd231f62cd26bd688f3d5f82a35cf6d8ce",
    ),
    "multiplicity_2x2": (
        "c2215645d7382db532a0bc3ce2c455490491b922514f2969fd50dacae605b441",
        "ff4af1fea2999830b0906c072561e0766002820b450183f860dc78e952be05d5",
    ),
    "multiplicity_2x4": (
        "8761020a08f0bc35e9db4f9ea0ad543ddb513d2fa17ea04bab485f9a66737773",
        "4f9a366de4306342f4cdebe4ed428d334159b2888afac07e096dea0636c0f6fe",
    ),
    "multiplicity_3d": (
        "fb43de1a9245d3be6ee3e147a481c4364899500c4ecec9a08b40c9d86e7cce65",
        "0a735447e84b1a49bb7ad9ebe637414567073bb431f42172fca57bb8bdc537b1",
    ),
    "partition_2x3": (
        "848d34b566f2a11ece980db5a19566a5a95aa99ac6352f2e4b951f573b631c32",
        "c26f210eaf37567e4d8227d1bab9d6a6406be9e8fa637ca82f30f911e6c3312c",
    ),
    "rankcheck_2x2": (
        "997d9382590d47f0df3b012f80162c876fa48bd96d2d635f730b21c8b3bc35e2",
        "753267e2ab7d255d43b4dee23cd9800d20386a490efe053ab2b8237ec25e75db",
    ),
    "rankcheck_3d": (
        "d9cef823e48b799e2c0e6f60eac2472139a6a9451163ed54eb076495588fb442",
        "b5d72a04a44a556a531297897de4dd40acf25dca97de0f7ba059cb4c82856986",
    ),
    "separation_2x4": (
        "0f724d79bf8f5d3a8393b234dc37088f17bf1d2243c214628c3d425b9b4dc8db",
        "50fdde194d6c8a1522d7a53b982d2a92b63c78f9aab0b6935cf2ffe53bafcc14",
    ),
}


@pytest.mark.parametrize("stem", sorted(_SHIPPED_SHA256))
def test_shipped_output_digests(tmp_path, stem):
    command = stem.partition("_")[0]
    out = tmp_path / stem
    cfg = str(CONFIGS / f"{stem}.cfg")
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in (f"{command}.csv", f"{command}_verdict.json")
    )
    assert digests == _SHIPPED_SHA256[stem]


def test_cli_assertion_failure_exit_one(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        MINIMAL + "rank.m = 1, 1\nrank.k = 0\n",  # disjoint boxes, no propagation
    )
    out = tmp_path / "results"
    assert cli.main(["rankcheck", "--config", cfg, "--out", str(out)]) == 1
    verdict = json.loads((out / "rankcheck_verdict.json").read_text())
    assert verdict["pass"] is False
    assert verdict["failures"][0]["check"] == "cyclic_rank"
    assert verdict["failures"][0]["rank"] == 0
    assert "cyclic_rank" in capsys.readouterr().err


def test_cli_cossum(tmp_path):
    out = tmp_path / "results"
    assert cli.main(["cossum", "--p", "5,7", "--out", str(out)]) == 0
    verdict = json.loads((out / "cossum_verdict.json").read_text())
    assert verdict["admissible"] is True
    assert verdict["tuples"] == 24 and verdict["zeros"] == 0
    assert (out / "cossum.csv").read_text().splitlines() == ["ps,ns"]


def test_cli_cossum_rejects_bad_moduli(tmp_path, capsys):
    for p in ("-5", "0"):
        assert cli.main(["cossum", f"--p={p}", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_entry_point_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "boxham.cli", "cossum", "--p", "5", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cossum: PASS" in proc.stdout


def test_cli_import_loads_no_scipy(tmp_path):
    # every solve runs through numpy.linalg, so neither the import nor a run
    # of any shipped config may load scipy
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from boxham import cli\n"
        "print('scipy' in sys.modules)\n"
        "for path in sorted(Path(sys.argv[1]).glob('*.cfg')):\n"
        "    command = path.stem.partition('_')[0]\n"
        "    out = Path(sys.argv[2]) / path.stem\n"
        "    assert cli.main([command, '--config', str(path), '--out', str(out)]) == 0, path\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(CONFIGS), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")


@pytest.mark.parametrize("command", ["cluster", "gapgrowth"])
def test_cli_permuted_ties_are_a_config_error(tmp_path, capsys, command):
    # at (3,3) the labels (1,2) and (2,1) share both sums without being
    # reflections; at (2,2) every such permutation is a reflection
    body = "geometry.d = 2\ngeometry.radius = 1\nrun.r = 100, 200, 400, 800\n"
    out = tmp_path / "results"
    cfg = write_cfg(tmp_path, body + "geometry.lengths = 3, 3\n", "tie.cfg")
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[field geometry.lengths]" in err and "(1, 2) and (2, 1)" in err
    assert not out.exists()
    cfg = write_cfg(tmp_path, body + "geometry.lengths = 2, 2\n", "flip.cfg")
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    assert (out / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["cluster", "gapgrowth"])
@pytest.mark.parametrize("lengths", ["1", "1, 1"])
def test_cli_one_mode_geometry_is_a_config_error(tmp_path, capsys, command, lengths):
    # a single mode tuple has no pair: no gap to check and no slope to fit
    body = (
        f"geometry.d = {lengths.count(',') + 1}\ngeometry.lengths = {lengths}\n"
        "geometry.radius = 1\nrun.r = 100, 200, 400, 800\n"
    )
    out = tmp_path / "results"
    assert cli.main([command, "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 2
    assert "config error [field geometry.lengths]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exactly_predicted_expansion_grid_has_no_slope(tmp_path):
    # at l = 1 the prediction is exact, so every worst residual is 0 and no
    # point is left to fit a slope through
    cfg = write_cfg(
        tmp_path,
        "geometry.d = 1\ngeometry.lengths = 2\ngeometry.radius = 2\n"
        "run.r = 50, 100, 200, 400\nexpansion.l = 1\n",
    )
    out = tmp_path / "results"
    assert cli.main(["expansion", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "expansion.csv").read_text().splitlines()[1:]
    assert {row.rsplit(",", 1)[1] for row in rows} == {"0"}  # every residual
    verdict = json.loads((out / "expansion_verdict.json").read_text())
    assert verdict["aggregate_slope"] is None and verdict["failures"] == []


def test_cli_cluster_reports_unsafe_factor_order(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "geometry.d = 1\ngeometry.lengths = 3\ngeometry.radius = 1\n"
        "disorder.lower = 0\ndisorder.upper = 0\nrun.r = 2\n",
    )
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "results")]) == 1
    assert "run failed: factor modes too close to order" in capsys.readouterr().err


def test_cli_gapgrowth_verdict_slopes(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "geometry.d = 1\ngeometry.lengths = 2\ngeometry.radius = 2\n"
        "run.r = 100, 200, 400, 800, 1600\n",
    )
    out = tmp_path / "results"
    assert cli.main(["gapgrowth", "--config", cfg, "--out", str(out)]) == 0
    verdict = json.loads((out / "gapgrowth_verdict.json").read_text())
    assert verdict["min_pair_slope"] == pytest.approx(2.0, abs=0.05)
    assert set(verdict["slopes"]) == {"1:2"}
    lines = (out / "gapgrowth.csv").read_text().splitlines()
    assert lines[0] == "pair_a,pair_b,gap_class,r,gap,floored"
    assert len(lines) == 6  # one pair x five r values
