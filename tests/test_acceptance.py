"""Acceptance checklist: twelve end-to-end checks with pinned tolerances.

Each test carries the runtime budget it must meet on a stock desktop; the
budgets are asserted so a performance regression fails loudly rather than
silently eating CI time.  Tolerances are frozen — do not loosen them to make
a failure go away, find the bug instead.
"""

import itertools
import math
import time

import numpy as np
import pytest

from boxham.cli import failure_records
from boxham.cluster import min_nonzero_gaps
from boxham.cyclotomic import cos_sum_is_zero, verify_nonvanishing
from boxham.harness import (
    ExperimentConfig,
    cluster_sweep,
    constancy_scan,
    expansion_sweep,
    gap_growth_probe,
    multiplicity_scan,
    omega_pairs,
    rank_sweep,
    sample_disorder,
)
from boxham.lattice import (
    build_partition,
    face_product,
    neighbor_sum_identity,
    partition_of_unity_holds,
)
from boxham.resolvent import (
    kronecker_truncation,
    neumann_truncation,
    truncation_remainder,
)
from boxham.separation import (
    design_intervals,
    draw_coefficients,
    epsilon_delta,
    verify_separation,
)
from boxham.tridiag import TridiagSpec, c_coefficient, exact_spectrum, predicted_eigenvalue

R_LADDER = (100.0, 200.0, 400.0, 800.0, 1600.0)


def test_criterion_01_exact_small_cases():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        r = float(rng.uniform(10.0, 1000.0))
        spec = TridiagSpec(l=1, a=a, b=b, r=r)
        want = a + b + 2.0 * r
        assert abs(float(exact_spectrum(spec)[0]) - want) <= 1e-12 * abs(want)
        assert abs(predicted_eigenvalue(spec, 1, "const") - want) <= 1e-12 * abs(want)
    for r in (10.0, 44.5, 100.0, 1000.0):
        spec = TridiagSpec(l=2, a=0.0, b=0.0, r=r)
        exact = exact_spectrum(spec)
        for got, want in zip(exact, (r - r**2, r + r**2)):
            assert abs(float(got) - want) <= 1e-9 * abs(want)
        for n, want in ((1, r + r**2), (2, r - r**2)):
            got = predicted_eigenvalue(spec, n, "const")
            assert abs(got - want) <= 1e-9 * abs(want)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_expansion_residual_bound_and_decay():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        d=1,
        lengths=(2,),
        radius=2,
        r_values=tuple(50.0 * 2**k for k in range(7)),
    )
    result = expansion_sweep(cfg)
    assert failure_records(result.checks) == []
    # 35 modes over l in 2..8, 16 (a,b) pairs, 7 r values
    assert len(result.columns["residual"]) == 35 * 16 * 7
    slope = result.extras["aggregate_slope"]
    assert slope is not None and slope <= -0.7
    assert time.perf_counter() - start < 30.0


def test_criterion_03_correction_coefficient_bound():
    start = time.perf_counter()
    for l in range(1, 13):
        for n in range(1, l + 1):
            assert abs(c_coefficient(l, n)) < 10.0 * (l + 1)
    assert time.perf_counter() - start < 1.0


def test_criterion_04_structural_identities_exact():
    start = time.perf_counter()
    checked = 0
    for d in (1, 2, 3):
        for lengths in itertools.product(range(1, 6), repeat=d):
            part = build_partition(d, lengths, 1)
            assert partition_of_unity_holds(part)
            lhs, rhs = neighbor_sum_identity(part)
            assert np.array_equal(lhs, rhs)  # integer arithmetic, zero tolerance
            for axis in range(1, d + 1):
                for direction in (axis, -axis):
                    product, indicator = face_product(part, direction)
                    assert np.array_equal(product, indicator)
            checked += 1
    assert checked == 5 + 25 + 125
    assert time.perf_counter() - start < 5.0


def test_criterion_05_truncation_two_routes_and_remainder_decay():
    start = time.perf_counter()
    cfg = ExperimentConfig(d=2, lengths=(2, 3), radius=2, base_seed=7)
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    pairs = omega_pairs(sample)
    norms = []
    for r in R_LADDER:
        a_r, _ = neumann_truncation(part, sample, None, r)
        kron = kronecker_truncation((2, 3), pairs, (0.0, 0.0), r)
        assert np.linalg.norm(kron - a_r) <= 1e-12 * np.linalg.norm(a_r)
        norms.append(truncation_remainder(part, sample, None, r))
    slope = float(np.polyfit(np.log(R_LADDER), np.log(norms), 1)[0])
    assert slope <= -0.8
    assert norms[-1] < norms[0]
    assert time.perf_counter() - start < 60.0


def test_criterion_06_separation_design_holds_at_random():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        sets = []
        for _ in range(d):
            size = int(rng.integers(1, 5))
            while True:
                vals = np.sort(rng.uniform(0.05, 1.0, size=size))
                if size == 1 or float(np.min(np.diff(vals))) > 1e-3:
                    break
            sets.append(tuple(float(v) for v in vals))
        eps, delta = epsilon_delta(sets)
        coeffs = draw_coefficients(design_intervals(eps, delta, d), rng)
        if not verify_separation(sets, coeffs, delta).passed:
            violations += 1
    assert violations == 0
    assert time.perf_counter() - start < 30.0


def test_criterion_07_cosine_sums_never_vanish_exactly():
    start = time.perf_counter()
    for ps, count in (((5, 7), 24), ((5, 11), 40), ((7, 11), 60), ((5, 7, 11), 240)):
        report = verify_nonvanishing(ps)
        assert report.admissible
        assert report.tuples == count
        assert report.zeros == 0
    # controls: the vanishing cases really are exact zeros
    assert cos_sum_is_zero((2,), (1,))
    assert cos_sum_is_zero((3, 3), (1, 2))
    assert time.perf_counter() - start < 120.0


def test_criterion_08_cluster_gaps_open_at_designed_scales():
    start = time.perf_counter()
    c_min, s_min = min_nonzero_gaps((2, 4))
    assert c_min == pytest.approx((math.sqrt(5.0) - 2.0) / 2.0, rel=1e-12)
    assert s_min == pytest.approx(math.sqrt(5.0) / 20.0, rel=1e-12)
    cfg = ExperimentConfig(
        d=2,
        lengths=(2, 4),
        radius=2,
        base_seed=11,
        r_values=(500.0,),
        lambda_values=(2.0, 3.0),
    )
    result = cluster_sweep(cfg)
    assert failure_records(result.checks) == []
    columns = result.columns
    assert len(columns["r"]) == 8 * 7 // 2
    for cls, gap, required, satisfied in zip(
        columns["gap_class"], columns["gap"], columns["required"], columns["satisfied"]
    ):
        assert satisfied
        if cls == "cos_separated":
            assert required == pytest.approx(2.0 * c_min * 500.0**2 * 0.75, rel=1e-12)
            assert gap >= required
        elif cls == "sine_separated":
            assert required == pytest.approx(4.0 * s_min * 500.0 * 0.75, rel=1e-12)
            assert gap >= required
    assert time.perf_counter() - start < 10.0


def test_criterion_09_gap_growth_contrast_between_geometries():
    start = time.perf_counter()
    shared = dict(d=2, radius=2, base_seed=3, r_values=R_LADDER)
    result = gap_growth_probe(ExperimentConfig(lengths=(2, 2), **shared))
    assert not failure_records(result.checks)
    columns = result.columns
    same = {
        "|".join(map(str, a)) + ":" + "|".join(map(str, b))
        for a, b, cls in zip(columns["pair_a"], columns["pair_b"], columns["gap_class"])
        if cls == "same_cluster"
    }
    assert same
    for label in same:
        slope = result.extras["slopes"][label]
        assert slope is None or slope <= 0.1  # None: floor-limited
    result = gap_growth_probe(ExperimentConfig(lengths=(2, 4), **shared))
    assert not failure_records(result.checks)
    min_pair_slope = result.extras["min_pair_slope"]
    assert min_pair_slope is not None and min_pair_slope >= 0.8
    assert time.perf_counter() - start < 60.0


def test_criterion_10_multiplicity_bounds_across_seeds():
    start = time.perf_counter()
    lem4 = dict(lambda_mode="from_lem4", lambda_values=(), lem4_delta=None)
    result = multiplicity_scan(
        ExperimentConfig(
            d=2, lengths=(2, 2), radius=2, n_seeds=100, r_values=(300.0,), **lem4
        )
    )
    assert not failure_records(result.checks) and result.extras["bound"] == 2
    assert all(mx <= 2 for mx in result.columns["max_multiplicity"])
    result = multiplicity_scan(
        ExperimentConfig(
            d=2, lengths=(2, 4), radius=2, n_seeds=100, r_values=(300.0,), **lem4
        )
    )
    assert not failure_records(result.checks) and result.extras["simple"]
    assert all(mx == 1 for mx in result.columns["max_multiplicity"])
    result = multiplicity_scan(
        ExperimentConfig(
            d=3, lengths=(2, 2, 2), radius=2, n_seeds=25, r_values=(300.0,), **lem4
        )
    )
    assert not failure_records(result.checks) and result.extras["bound"] == 5
    assert all(mx <= 5 for mx in result.columns["max_multiplicity"])
    assert time.perf_counter() - start < 300.0


def test_criterion_11_resolvent_multiplicity_constant_on_grid():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        d=2,
        lengths=(2, 2),
        radius=2,
        lambda_values=(0.0, 1.0, 2.5),  # z grid keeps its 5 default points
    )
    result = constancy_scan(cfg)
    assert len(result.columns["z"]) == 15
    assert all(note == "" for note in result.columns["note"])
    assert result.extras["constant"] and not failure_records(result.checks)
    assert result.extras["value"] == 2
    assert time.perf_counter() - start < 30.0


def test_criterion_12_cyclic_rank_full_across_seeds():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        d=2,
        lengths=(2, 2),
        radius=2,
        n_seeds=50,
        rank_m=(1, 1),
        rank_k=10,
    )
    result = rank_sweep(cfg)
    assert failure_records(result.checks) == []
    columns = result.columns
    assert len(columns["seed"]) == 50
    assert all(columns["full"])
    assert all(rank == expected == 4 for rank, expected in zip(columns["rank"], columns["expected"]))
    assert time.perf_counter() - start < 60.0
