"""Mode labels, cluster classification, and the eigenvalue gap predictions.

Lengths used in the property tests are restricted to families where the
reflection assertion in classify_pair provably holds (see its docstring): when
two distinct coordinates share a length > 2, coordinate permutations can tie
both invariant sums without being reflections, and classify_pair deliberately
asserts on exactly that boundary.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxham import cluster
from boxham.cluster import (
    AdmissibilityReport,
    admissibility,
    all_mode_tuples,
    classify_pair,
    cluster_indices,
    degeneracy_tolerance,
    displayed_gap_constant,
    flip_partners,
    min_nonzero_gaps,
    mode_resolved_spectrum,
    predicted_cluster_energy,
    third_order_bound,
    verify_gaps,
)
from boxham.cyclotomic import cos_rows
from boxham.errors import MatchingError
from boxham.resolvent import kronecker_truncation
from boxham.tridiag import TridiagSpec, constant_order_correction, predicted_eigenvalue


ZERO2 = [(0.0, 0.0), (0.0, 0.0)]


# ------------------------------------------------------------ mode tuples


def test_all_mode_tuples_enumeration():
    modes = all_mode_tuples((2, 3))
    assert len(modes) == 6
    assert modes[0] == (1, 1)
    assert (2, 3) in modes
    assert len(set(modes)) == 6


def test_flip_partners():
    assert flip_partners((1, 2), (2, 2)) == {(1, 2), (2, 2), (1, 1), (2, 1)}
    assert flip_partners((2,), (3,)) == {(2,)}  # middle mode is its own flip
    assert flip_partners((1,), (3,)) == {(1,), (3,)}


# ------------------------------------------------------------ predictions


def test_predicted_energy_zero_disorder_square():
    # l=(2,2), omega == 0, lambda == 0, r=100: per coordinate the expansion
    # terms are (+-r^2) + r exactly, no constant pieces
    for modes, want in [((1, 1), 20200.0), ((1, 2), 200.0), ((2, 1), 200.0), ((2, 2), -19800.0)]:
        p = predicted_cluster_energy((2, 2), modes, ZERO2, (0.0, 0.0), 100.0)
        assert p == pytest.approx(want, rel=1e-12)
    assert constant_order_correction(2, 1) == constant_order_correction(2, 2) == 0.0


def test_predicted_energy_unit_boxes_are_exact():
    # all l_i = 1: the prediction collapses to sum_i (a_i + b_i + 2r)
    pairs = [(0.3, -0.2), (0.1, 0.4)]
    lams = (1.0, 0.5)
    p = predicted_cluster_energy((1, 1), (1, 1), pairs, lams, 50.0)
    want = (0.3 + (-0.2 + 1.0) + 100.0) + (0.1 + (0.4 + 0.5) + 100.0)
    assert p == pytest.approx(want, rel=1e-15)


def test_prediction_reduces_to_tridiagonal_in_one_dimension():
    spec = TridiagSpec(l=5, a=-0.7, b=0.45, r=300.0)
    for n in range(1, 6):
        p = predicted_cluster_energy((5,), (n,), [(-0.7, 0.2)], (0.25,), 300.0)
        # b = omega_+ + lambda = 0.2 + 0.25
        assert p == predicted_eigenvalue(spec, n, "const")


def test_prediction_sums_the_factor_expansions():
    lengths, pairs, lams, r = (2, 3, 4), [(0.3, -0.2), (0.1, 0.4), (-0.6, 0.05)], (1.0, 0.5, 2.0), 80.0
    specs = [
        TridiagSpec(l=l, a=lo, b=hi + lam, r=r) for l, (lo, hi), lam in zip(lengths, pairs, lams)
    ]
    for modes in all_mode_tuples(lengths):
        p = predicted_cluster_energy(lengths, modes, pairs, lams, r)
        assert p == sum(
            predicted_eigenvalue(spec, n, "const") for spec, n in zip(specs, modes)
        )


def test_prediction_requires_expansion_regime():
    # r must exceed max(|a|, |b|, 1) in every factor; b = 0.5 + 1.0 here
    predicted_cluster_energy((2, 2), (1, 1), ZERO2, (0.0, 0.0), 1.2)
    with pytest.raises(ValueError):
        predicted_cluster_energy((2, 2), (1, 1), [(0.0, 0.0), (0.0, 0.5)], (0.0, 1.0), 1.2)


# ------------------------------------------------------------ classification


def test_classification_square_lattice():
    assert classify_pair((1, 1), (1, 2), (2, 2)) == "cos_separated"
    assert classify_pair((1, 2), (2, 1), (2, 2)) == "same_cluster"
    assert classify_pair((2, 1), (1, 2), (2, 2)) == "same_cluster"


def test_classification_all_flips_can_still_separate():
    # (2,2,2): m = (2,2,2) is the full reflection of (1,1,1) yet the cosine
    # sums are +3/2 and -3/2 -- reflections need not share energies
    assert classify_pair((1, 1, 1), (2, 2, 2), (2, 2, 2)) == "cos_separated"


def test_classification_sine_separated():
    # (3,3): (1,3) and (2,2) tie the cosine sum at 0 exactly but the
    # sine-weight sums are 1/4 vs 1/2
    assert classify_pair((1, 3), (2, 2), (3, 3)) == "sine_separated"
    assert classify_pair((1, 3), (3, 1), (3, 3)) == "same_cluster"


def test_classification_permutation_tie_asserts():
    # (1,2)/(2,1) on (3,3) tie both sums but are not reflections of each
    # other; the contract says this must assert rather than misclassify
    with pytest.raises(AssertionError):
        classify_pair((1, 2), (2, 1), (3, 3))


def test_classification_matches_float_sums():
    # Float oracle: separated when the sums differ by more than 1e-9.  Over
    # these lengths every difference is 0, below 1e-12 or above 1e-6, so the
    # oracle is unambiguous.
    cases = [(a, b) for a in range(1, 6) for b in range(1, 6)] + [(2, 3, 4), (4, 4, 2)]
    for lengths in cases:
        qs = [l + 1 for l in lengths]

        def cos_sum(t):
            return sum(math.cos(math.pi * n / q) for n, q in zip(t, qs))

        def sine_sum(t):
            return sum(math.sin(math.pi * n / q) ** 2 / q for n, q in zip(t, qs))

        for n, m in itertools.combinations(all_mode_tuples(lengths), 2):
            if abs(cos_sum(n) - cos_sum(m)) > 1e-9:
                expected = "cos_separated"
            elif abs(sine_sum(n) - sine_sum(m)) > 1e-9:
                expected = "sine_separated"
            else:
                expected = "same_cluster"
            try:
                kind = classify_pair(n, m, lengths)
            except AssertionError:
                # permuted labels tie both sums (see test_classification_permutation_tie_asserts)
                assert expected == "same_cluster"
                continue
            assert kind == expected, (lengths, n, m)


def _exact_sums_equal(lengths, n, m, kind):
    """Per-pair oracle: reduce just this pair's cosines in Z[zeta_2A] and sum."""
    ambient = math.lcm(*[l + 1 for l in lengths])
    steps = np.array([ambient // (l + 1) for l in lengths], dtype=np.int64)
    n, m = np.asarray(n, dtype=np.int64), np.asarray(m, dtype=np.int64)
    if kind == "cos":
        exponents = np.concatenate([n * steps, m * steps])
        weights = np.repeat([1, -1], len(steps))
    else:
        exponents = np.concatenate([2 * n * steps, 2 * m * steps])
        weights = np.concatenate([-steps, steps])
    return not (weights @ cos_rows(exponents, 2 * ambient)).any()


@pytest.mark.parametrize("lengths", [(3, 4, 5), (2, 4), (4, 4, 4), (2, 3, 4)])
def test_cached_geometry_rows_agree_with_per_pair_reduction(lengths):
    # the per-geometry class ids against the per-pair exact reduction
    table = cluster.class_table(lengths)
    ids = {"cos": table.cos_ids, "sine": table.sine_ids}
    for n, m in itertools.combinations(all_mode_tuples(lengths), 2):
        equal = {kind: _exact_sums_equal(lengths, n, m, kind) for kind in ("cos", "sine")}
        i, j = table.index[n], table.index[m]
        for kind in ("cos", "sine"):
            assert (ids[kind][i] == ids[kind][j]) == equal[kind], (n, m, kind)
        if not equal["cos"]:
            expected = "cos_separated"
        elif not equal["sine"]:
            expected = "sine_separated"
        elif all(b in (a, l + 1 - a) for a, b, l in zip(n, m, lengths)):
            expected = "same_cluster"
        else:
            # permuted ties, as at (4, 4, 4): the table holds them, classify asserts
            with pytest.raises(AssertionError):
                classify_pair(n, m, lengths)
            continue
        assert classify_pair(n, m, lengths) == expected, (n, m)
    with pytest.raises(AssertionError):
        classify_pair((1, 2), (2, 1), (3, 3))


@pytest.mark.parametrize("lengths", [(3, 4, 5), (2, 2), (2, 4), (5,)])
def test_class_table_classes_equal_per_pair_classify(lengths):
    table = cluster.class_table(lengths)
    first, second = np.triu_indices(len(table.tuples), 1)
    pairs = itertools.combinations(table.tuples, 2)
    assert table.classes(first, second) == [table.classify(n, m) for n, m in pairs]
    # reversed pairs classify the same
    assert table.classes(second, first) == table.classes(first, second)


def test_class_table_classes_assert_permuted_ties():
    table = cluster.class_table((3, 3))
    i, j = table.index[(1, 2)], table.index[(2, 1)]
    with pytest.raises(AssertionError, match="not reflections"):
        table.classes(np.array([i]), np.array([j]))
    flips = np.array([table.index[(1, 3)]]), np.array([table.index[(3, 1)]])
    assert table.classes(*flips) == ["same_cluster"]


def test_exact_ids_split_vectors_whose_probe_keys_collide():
    # rows (p1, 0) and (0, p0) share the key p0 * p1 but are different vectors
    p0, p1 = cluster._probe(2).tolist()
    rows = np.array([[p1, 0], [0, p0], [p1, 0], [0, 0]], dtype=np.int64)
    ids = cluster._exact_ids([rows]).tolist()
    assert ids[0] == ids[2] and len(set(ids)) == 3
    pairs = cluster._exact_ids([rows, np.array([[0, 0], [0, 0]], dtype=np.int64)]).tolist()
    assert pairs[0] == pairs[1] == pairs[4] == pairs[5] and len(set(pairs)) == 3


def test_class_ids_past_the_modulus_cap_follow_the_float_sums():
    # lcm(3, 61, 79) = 14457, so 2A exceeds MODULUS_CAP and the ids come from
    # the float fallback.  Oracle: the per-pair float rule, on sums computed
    # here by math.cos/math.sin; no sampled difference lies in (1e-13, 1e-9).
    lengths = (2, 60, 78)
    assert 2 * math.lcm(*[l + 1 for l in lengths]) > cluster.MODULUS_CAP
    table = cluster.class_table(lengths)
    qs = [l + 1 for l in lengths]

    def sums(t):
        return {
            "cos": sum(math.cos(math.pi * n / q) for n, q in zip(t, qs)),
            "sine": sum(math.sin(math.pi * n / q) ** 2 / q for n, q in zip(t, qs)),
        }

    rng = np.random.default_rng(11)
    pairs = []
    for k in rng.choice(len(table.tuples), size=200, replace=False).tolist():
        n = table.tuples[k]
        # reflections tie the sine sums; random partners mostly do not
        pairs += [(n, m) for m in sorted(flip_partners(n, lengths)) if m != n]
        pairs.append((n, table.tuples[int(rng.integers(len(table.tuples)))]))
    ties = {"cos": 0, "sine": 0}
    for n, m in pairs:
        x, y = sums(n), sums(m)
        i, j = table.index[n], table.index[m]
        for kind, ids in (("cos", table.cos_ids), ("sine", table.sine_ids)):
            diff = abs(x[kind] - y[kind])
            assert not 1e-13 < diff <= 1e-9, (n, m, kind)
            assert (ids[i] == ids[j]) == (diff <= 1e-13), (n, m, kind)
            ties[kind] += diff <= 1e-13
    assert ties["sine"] > 100 and ties["cos"] < ties["sine"]


def test_classification_validates_labels():
    with pytest.raises(ValueError):
        classify_pair((1, 3), (1, 1), (2, 2))
    with pytest.raises(ValueError):
        classify_pair((1,), (1, 1), (2, 2))


def test_minimal_gap_constants():
    c, s = min_nonzero_gaps((2, 4))
    assert c == pytest.approx((math.sqrt(5.0) - 2.0) / 2.0, rel=1e-12)
    assert s == pytest.approx(math.sqrt(5.0) / 20.0, rel=1e-12)
    c, s = min_nonzero_gaps((2, 2))
    assert c == pytest.approx(1.0, rel=1e-12)
    assert s is None  # every tuple shares the same sine sum
    c, s = min_nonzero_gaps((3, 3))
    assert c == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)
    assert s == pytest.approx(0.125, rel=1e-12)


def test_gap_constant_displays():
    assert displayed_gap_constant((2, 4)) == 10 * 2**3 * 5**3
    assert third_order_bound((2, 4)) == 20 * 2**3 * 5**3


# ------------------------------------------------------------ admissibility


def test_admissibility_cases():
    rep = admissibility((2, 4))
    assert rep.s == 2 and rep.simple and rep.bound == 1
    rep = admissibility((2, 2))
    assert rep.s == 2 and not rep.simple and rep.bound == 2
    assert rep.reasons
    rep = admissibility((4, 6, 10))
    assert rep.s == 3 and rep.simple and rep.bound == 1
    rep = admissibility((2, 1, 1))
    assert rep.s == 1 and rep.simple
    rep = admissibility((2,))
    assert rep.simple and rep.bound == 1
    rep = admissibility((2, 2, 2))
    assert rep.s == 3 and not rep.simple and rep.bound == 2**3 - 3


def test_admissibility_is_frozen_report():
    rep = admissibility((2, 2))
    assert isinstance(rep, AdmissibilityReport)
    with pytest.raises(AttributeError):
        rep.bound = 99


# ------------------------------------------------------------ clustering


def test_degeneracy_tolerance_scales_with_diameter():
    assert degeneracy_tolerance([0.0, 1.0]) == 1e-6
    assert degeneracy_tolerance([0.0, 2000.0]) == pytest.approx(2e-3)
    assert degeneracy_tolerance([5.0]) == 1e-6


def test_cluster_indices_groups_near_ties():
    values = np.array([10.0, 0.0, 10.0 + 1e-9, 20.0])
    groups = cluster_indices(values, 1e-6)
    sizes = sorted(len(g) for g in groups)
    assert sizes == [1, 1, 2]
    merged = next(g for g in groups if len(g) == 2)
    assert sorted(merged) == [0, 2]


@pytest.mark.parametrize(
    "values, tau, groups",
    [
        # unsorted: groups follow the sorted order, each in ascending value
        ([3.0, 1.0, 2.5, 1.2], 0.5, [[1, 3], [2, 0]]),
        # equal values keep their input order (stable sort)
        ([2.0, 1.0, 2.0, 2.0], 0.0, [[1], [0, 2, 3]]),
        # a gap exactly equal to tau joins, one just above it splits
        ([0.0, 0.5, 1.0 + 2**-52], 0.5, [[0, 1], [2]]),
        ([7.0], 1e-6, [[0]]),
        ([], 1e-6, []),
    ],
)
def test_cluster_indices_keeps_its_groups(values, tau, groups):
    assert cluster_indices(values, tau) == groups
    assert cluster_indices(np.array(values, dtype=np.float64), tau) == groups


def test_verify_gaps_on_kronecker_spectrum():
    lengths = (2, 3)
    pairs = [(0.31, -0.12), (0.44, 0.08)]
    lams = (0.6, 1.2)
    r = 500.0
    spectrum = mode_resolved_spectrum(lengths, pairs, lams, r)
    dense = np.linalg.eigvalsh(kronecker_truncation(lengths, pairs, lams, r))
    assert np.max(np.abs(np.sort(list(spectrum.values())) - dense)) < 1e-9 * np.max(np.abs(dense))
    reports = verify_gaps(spectrum, lengths, r)
    assert len(reports) == 6 * 5 // 2
    assert all(rep.satisfied for rep in reports)
    classes = {rep.gap_class for rep in reports}
    assert classes == {"cos_separated"}  # (2,3): all cosine sums distinct
    # pairs (i < j) of the labels in ascending eigenvalue order
    ordered = sorted(all_mode_tuples(lengths), key=spectrum.__getitem__)
    assert [rep.pair for rep in reports] == list(itertools.combinations(ordered, 2))
    for rep in reports:
        a, b = rep.pair
        assert rep.gap == abs(spectrum[a] - spectrum[b])
        assert rep.required == pytest.approx(
            2.0 * min_nonzero_gaps(lengths)[0] * r**2 * 0.75, rel=1e-12
        )


def test_verify_gaps_same_cluster_reported_not_asserted():
    lengths = (2, 2)
    r = 400.0
    spectrum = mode_resolved_spectrum(lengths, ZERO2, (0.0, 0.0), r)
    reports = verify_gaps(spectrum, lengths, r)
    same = [rep for rep in reports if rep.gap_class == "same_cluster"]
    assert len(same) == 1
    assert same[0].pair == ((1, 2), (2, 1))  # exact tie: all_mode_tuples order
    assert same[0].required is None
    assert same[0].satisfied  # vacuously
    assert same[0].gap < 1e-6  # the symmetric pair is near-degenerate


# ------------------------------------------------------------ tensor route


def test_mode_resolved_spectrum_matches_dense_diagonalization():
    cases = [
        ((2, 3), [(0.2, -0.4), (0.15, 0.33)], (0.9, 0.1)),
        ((2, 3, 4), [(0.2, -0.4), (0.15, 0.33), (-0.7, 0.05)], (0.9, 0.1, 1.7)),
    ]
    r = 300.0
    for lengths, pairs, lams in cases:
        by_mode = mode_resolved_spectrum(lengths, pairs, lams, r)
        assert set(by_mode) == set(all_mode_tuples(lengths))
        ours = np.sort(list(by_mode.values()))
        dense = np.linalg.eigvalsh(kronecker_truncation(lengths, pairs, lams, r))
        assert np.max(np.abs(ours - dense)) < 1e-9 * np.max(np.abs(dense))
        # each value is the left-to-right sum of its factors' labelled values
        factors = [
            mode_resolved_spectrum((l,), [pair], (lam,), r)
            for l, pair, lam in zip(lengths, pairs, lams)
        ]
        for t, value in by_mode.items():
            assert value == sum(f[(n,)] for f, n in zip(factors, t))


def test_mode_resolved_spectrum_labels_follow_predictions():
    # labels are right when each mode's exact value sits closest to its
    # own prediction
    lengths = (2, 4)
    pairs = [(0.5, -0.5), (0.25, 0.75)]
    lams = (2.0, 3.0)
    r = 500.0
    by_mode = mode_resolved_spectrum(lengths, pairs, lams, r)
    for modes, value in by_mode.items():
        pred = predicted_cluster_energy(lengths, modes, pairs, lams, r)
        assert abs(value - pred) < 60.0  # O(1) error at r=500 vs O(r) spacing


def test_mode_resolved_spectrum_rejects_unsafe_factor_order():
    # l=3 at r=2: adjacent factor predictions sit closer than 4r, so the
    # descending-cosine order cannot attach the labels
    with pytest.raises(MatchingError, match="too close"):
        mode_resolved_spectrum((3,), [(0.0, 0.0)], (0.0,), 2.0)


# ------------------------------------------------------------ properties

safe_lengths = st.one_of(
    st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple),  # all l <= 2
    st.permutations([2, 3, 4]).map(tuple),  # pairwise distinct
    st.tuples(st.integers(1, 8)),  # one dimension
)


@settings(max_examples=80, deadline=None)
@given(lengths=safe_lengths, data=st.data())
def test_classification_is_symmetric_and_flip_closed(lengths, data):
    modes = all_mode_tuples(lengths)
    n = data.draw(st.sampled_from(modes), label="n")
    m = data.draw(st.sampled_from(modes), label="m")
    if n == m:
        return
    kind = classify_pair(n, m, lengths)
    assert kind == classify_pair(m, n, lengths)
    if kind == "same_cluster":
        assert m in flip_partners(n, lengths)


@settings(max_examples=50, deadline=None)
@given(lengths=safe_lengths, seed=st.integers(0, 10**6))
def test_predictions_track_exact_spectrum(lengths, seed):
    rng = np.random.default_rng(seed)
    pairs = [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for _ in lengths]
    lams = tuple(float(rng.uniform(0, 2)) for _ in lengths)
    r = 800.0
    exact = np.linalg.eigvalsh(kronecker_truncation(lengths, pairs, lams, r))
    preds = sorted(
        predicted_cluster_energy(lengths, m, pairs, lams, r)
        for m in all_mode_tuples(lengths)
    )
    # worst-case per-coordinate bound from the residual sweeps, summed
    bound = sum(
        (40 * (l + 1) * abs(om[0] + om[1] + lam) + 16 * (l + 1) ** 3 + 1) / r
        for l, om, lam in zip(lengths, pairs, lams)
    )
    assert np.max(np.abs(exact - np.array(preds))) < bound
