"""Geometric coefficient design that 1/delta-separates all selection sums."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxham.errors import CombinatorialLimitError, DegenerateInputError
from boxham.separation import (
    design_intervals,
    draw_coefficients,
    epsilon_delta,
    midpoint_coefficients,
    sine_system,
    verify_separation,
)


def test_sine_system_values_and_dedup():
    # l=2: sin^2(pi/3)/3 = sin^2(2pi/3)/3 = 1/4, one value after dedup
    sets = sine_system((2, 2))
    assert len(sets) == 2 and all(len(s) == 1 for s in sets)
    assert sets[0][0] == pytest.approx(0.25, rel=1e-15)
    assert sets[0] == sets[1]
    # l=4: j and 5-j coincide, so 4 modes give 2 values
    sets = sine_system((4,))
    assert len(sets[0]) == 2
    assert sets[0][0] == pytest.approx(np.sin(np.pi / 5) ** 2 / 5, rel=1e-15)


def test_sine_system_values_in_open_unit_interval():
    for lengths in [(1,), (2, 3), (5, 7, 9)]:
        for s in sine_system(lengths):
            assert all(0.0 < x < 1.0 for x in s)
            assert list(s) == sorted(set(s))


def test_epsilon_is_min_element_or_within_gap():
    # the smallest element wins here, a within-set gap in the second case
    assert epsilon_delta([(0.2, 0.5), (0.3,)])[0] == 0.2
    assert epsilon_delta([(0.2, 0.3), (0.25,)])[0] == 0.3 - 0.2


def test_epsilon_delta_default_and_hint():
    sets = [(0.25,), (0.25,)]
    eps, delta = epsilon_delta(sets)
    assert eps == 0.25
    assert delta == pytest.approx(0.9 * min(0.5, 1.0 / 1.25))
    # a valid hint is taken verbatim
    eps, delta = epsilon_delta(sets, delta_hint=0.3)
    assert delta == 0.3
    # hints outside (0, sup) fall back to the default 0.9 * min(1/2, 1/(1+eps))
    eps, delta = epsilon_delta(sets, delta_hint=0.9)
    assert delta == pytest.approx(0.45)
    eps, delta = epsilon_delta(sets, delta_hint=-1.0)
    assert delta == pytest.approx(0.45)


def test_epsilon_delta_rejects_degenerate_sets():
    with pytest.raises(DegenerateInputError):
        epsilon_delta([])
    with pytest.raises(DegenerateInputError):
        epsilon_delta([()])
    with pytest.raises(DegenerateInputError):
        epsilon_delta([(0.2, 0.2)])
    with pytest.raises(DegenerateInputError):
        epsilon_delta([(0.0, 0.5)])
    with pytest.raises(DegenerateInputError):
        epsilon_delta([(0.5, 1.0)])


def test_design_intervals_geometry():
    intervals = design_intervals(0.25, 0.45, 3)
    base = 2.0 / (0.25 * 0.45)
    for i, (lo, hi) in enumerate(intervals, start=1):
        assert hi == pytest.approx(base**i, rel=1e-12)
        assert lo == pytest.approx(0.5 * base**i, rel=1e-12)
    # windows are disjoint and increasing: hi_i < lo_{i+1} since base > 2
    for (_, hi), (lo2, _) in zip(intervals, intervals[1:]):
        assert hi < lo2


def test_draw_coefficients_stay_inside_windows():
    rng = np.random.default_rng(9)
    intervals = design_intervals(0.2, 0.4, 4)
    for _ in range(50):
        a = draw_coefficients(intervals, rng)
        for x, (lo, hi) in zip(a, intervals):
            assert lo <= x <= hi


def test_verify_separation_singleton_sets_trivially_pass():
    sets = [(0.25,), (0.25,)]
    eps, delta = epsilon_delta(sets)
    a = midpoint_coefficients(design_intervals(eps, delta, 2))
    chk = verify_separation(sets, a, delta)
    assert chk.n_sums == 1
    assert chk.min_gap == np.inf
    assert chk.passed


def test_verify_separation_brute_force_cross_check():
    # small enough to re-enumerate pairwise here with plain loops
    sets = [(0.1, 0.4), (0.2, 0.3, 0.7)]
    eps, delta = epsilon_delta(sets)
    a = midpoint_coefficients(design_intervals(eps, delta, 2))
    chk = verify_separation(sets, a, delta)
    sums = sorted(a[0] * x + a[1] * y for x in sets[0] for y in sets[1])
    pair_min = min(t - s for s, t in zip(sums, sums[1:]))
    assert chk.n_sums == 6
    assert chk.min_gap == pytest.approx(pair_min, rel=1e-12)
    assert chk.threshold == pytest.approx(1.0 / delta)
    assert chk.passed
    assert chk.min_gap > 1.0 / delta


def test_verify_separation_detects_bad_coefficients():
    # equal coefficients on identical sets collide sums exactly
    sets = [(0.2, 0.6), (0.2, 0.6)]
    _, delta = epsilon_delta(sets)
    chk = verify_separation(sets, [1.0, 1.0], delta)
    assert not chk.passed
    assert chk.min_gap == 0.0


def test_verify_separation_coefficient_count_mismatch():
    with pytest.raises(ValueError):
        verify_separation([(0.2,), (0.3,)], [1.0], 0.4)


def test_pair_cap():
    # 7 sets of 8 values -> 8^7 sums -> ~4.4e12 pairs, far past the cap
    sets = [tuple((i + 1) / 10.0 for i in range(8))] * 7
    with pytest.raises(CombinatorialLimitError):
        verify_separation(sets, [1.0] * 7, 0.4)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), d=st.integers(1, 4))
@example(seed=177935146, d=4)  # sums near 1.5e17 once rounded together in floats
def test_designed_coefficients_always_separate(seed, d):
    """The core guarantee, as a property: random sets + designed draws pass."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(d):
        size = int(rng.integers(1, 5))
        while True:
            vals = np.sort(rng.uniform(0.05, 0.95, size))
            if size == 1 or np.min(np.diff(vals)) > 1e-4:
                break
        sets.append(tuple(float(v) for v in vals))
    eps, delta = epsilon_delta(sets)
    a = draw_coefficients(design_intervals(eps, delta, d), rng)
    chk = verify_separation(sets, a, delta)
    assert chk.passed, (sets, a, delta, chk)


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 10**6),
)
def test_sine_systems_always_separable(lengths, seed):
    sets = sine_system(lengths)
    rng = np.random.default_rng(seed)
    eps, delta = epsilon_delta(sets)
    a = draw_coefficients(design_intervals(eps, delta, len(sets)), rng)
    assert verify_separation(sets, a, delta).passed
