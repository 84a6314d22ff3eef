"""Boundary-perturbed tridiagonal matrices: exact spectra vs large-r expansion.

The small-l spectra have closed forms, so those are the oracles here:
  l=1:            D = a + b + 2r                       (1x1)
  l=2:            eig = (a+b)/2 + r  +-  sqrt(((a-b)/2)^2 + r^4)
and the tridiagonal solver is cross-checked against numpy's eigvalsh elsewhere
in the range where no closed form exists.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxham.tridiag import (
    TridiagSpec,
    boundary_matrix,
    c_coefficient,
    constant_order_correction,
    cos_pi_frac,
    exact_spectrum,
    factor_specs,
    predicted_eigenvalue,
    predicted_grid,
    sin_pi_frac,
)
from boxham.errors import ConvergenceError


# ------------------------------------------------------------ trig helpers


def test_trig_helpers_hit_exact_lattice_points():
    assert cos_pi_frac(1, 2) == 0.0
    assert cos_pi_frac(0, 5) == 1.0
    assert cos_pi_frac(3, 3) == -1.0
    assert sin_pi_frac(0, 7) == 0.0
    assert sin_pi_frac(7, 7) == 0.0


def test_trig_helpers_are_bitwise_symmetric():
    # cos(pi (q-n)/q) == -cos(pi n/q) and sin(pi (q-n)/q) == sin(pi n/q),
    # bit for bit -- the cluster near-tie fast path relies on this.
    for q in range(2, 30):
        for n in range(1, q):
            assert cos_pi_frac(q - n, q) == -cos_pi_frac(n, q)
            assert sin_pi_frac(q - n, q) == sin_pi_frac(n, q)


def test_trig_helpers_match_math_library():
    for q in range(2, 15):
        for n in range(0, q + 1):
            assert cos_pi_frac(n, q) == pytest.approx(math.cos(math.pi * n / q), abs=1e-15)
            assert sin_pi_frac(n, q) == pytest.approx(math.sin(math.pi * n / q), abs=1e-15)


# ------------------------------------------------------------ factors


def test_factor_specs_put_the_boost_on_the_plus_side():
    specs = factor_specs((2, 3), [(0.5, -0.25), (0.1, 0.2)], (0.75, 1.5), 40.0)
    assert specs == [
        TridiagSpec(l=2, a=0.5, b=-0.25 + 0.75, r=40.0),
        TridiagSpec(l=3, a=0.1, b=0.2 + 1.5, r=40.0),
    ]


def test_boundary_matrix_shape_and_corners():
    m = boundary_matrix(TridiagSpec(l=3, a=0.5, b=-1.0, r=10.0))
    assert m.shape == (3, 3)
    assert m[0, 0] == 0.5 + 10.0
    assert m[2, 2] == -1.0 + 10.0
    assert m[0, 1] == m[1, 0] == 100.0
    assert m[1, 1] == 0.0


# ------------------------------------------------------------ exact spectra


def test_spectrum_l1_closed_form():
    spec = TridiagSpec(l=1, a=0.3, b=-0.7, r=5.0)
    assert exact_spectrum(spec).tolist() == [0.3 - 0.7 + 10.0]


def test_spectrum_l2_closed_form():
    spec = TridiagSpec(l=2, a=1.0, b=0.0, r=10.0)
    mid = 0.5 + 10.0
    disc = math.sqrt(0.25 + 10.0**4)
    expect = np.array([mid - disc, mid + disc])
    assert np.allclose(exact_spectrum(spec), expect, rtol=1e-14)


def test_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(3)
    for _ in range(20):
        l = int(rng.integers(1, 12))
        spec = TridiagSpec(
            l=l,
            a=float(rng.uniform(-2, 2)),
            b=float(rng.uniform(-2, 2)),
            r=float(rng.uniform(1, 500)),
        )
        ours = exact_spectrum(spec)
        ref = np.linalg.eigvalsh(boundary_matrix(spec))
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(ours - ref)) < 1e-12 * scale


def test_spectrum_is_lapack_stevd_bit_for_bit():
    # exact_spectrum solves the dense stack with numpy's eigh; scipy's
    # eigh_tridiagonal with the dstevd driver is the oracle for its bits
    from scipy.linalg import eigh_tridiagonal

    for l in (1, 2, 3, 7, 12, 30):
        for a, b, r in [(0.3, -0.7, 5.0), (0.0, 0.0, 50.0), (-1.9, 1.4, 3200.0)]:
            spec = TridiagSpec(l=l, a=a, b=b, r=r)
            diag = np.zeros(l)
            diag[0] += a + r
            diag[-1] += b + r
            ref = eigh_tridiagonal(diag, np.full(l - 1, r**2), lapack_driver="stevd")[0]
            assert np.array_equal(exact_spectrum(spec), ref), (l, a, b, r)


def test_spectrum_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        exact_spectrum(TridiagSpec(l=3, a=float("nan"), b=0.0, r=5.0))


def test_batched_spectrum_equals_per_spec_dstevd_bit_for_bit():
    from scipy.linalg.lapack import dstevd

    rng = np.random.default_rng(7)
    for l in (1, 2, 5, 12):
        specs = [
            TridiagSpec(l=l, a=float(rng.uniform(-2, 2)), b=float(rng.uniform(-2, 2)), r=r)
            for r in (3.0, 50.0, float(rng.uniform(10, 3200)))
        ]
        batch = exact_spectrum(specs)
        assert batch.shape == (len(specs), l)
        for spec, row in zip(specs, batch):
            diag = np.zeros(l)
            diag[0] += spec.a + spec.r
            diag[-1] += spec.b + spec.r
            ref = diag if l == 1 else dstevd(diag, np.full(l - 1, spec.r**2))[0]
            assert np.array_equal(row, ref), (l, spec)
            assert np.array_equal(exact_spectrum(spec), ref), (l, spec)


def test_batched_spectrum_rejects_mixed_l():
    with pytest.raises(ValueError):
        exact_spectrum([TridiagSpec(l=2, a=0.0, b=0.0, r=5.0), TridiagSpec(l=3, a=0.0, b=0.0, r=5.0)])


def test_batch_with_one_corrupted_eigenpair_raises(monkeypatch):
    solve = np.linalg.eigh
    calls = []

    def corrupt_second(stack):
        values, vectors = solve(stack)
        calls.append(stack.shape)
        values = values.copy()
        values[1, 1] += 1e-6 * np.max(np.abs(values[1]))
        return values, vectors

    specs = [TridiagSpec(l=4, a=0.1 * k, b=-0.2, r=40.0) for k in range(4)]
    exact_spectrum(specs)  # clean batch passes
    monkeypatch.setattr(np.linalg, "eigh", corrupt_second)
    with pytest.raises(ConvergenceError):
        exact_spectrum(specs)
    assert calls == [(len(specs), 4, 4)]  # the whole batch was solved in one call


def test_eigensolver_failure_is_a_convergence_error(monkeypatch):
    def fail(stack):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError):
        exact_spectrum(TridiagSpec(l=3, a=0.0, b=0.0, r=5.0))


def test_predicted_grid_equals_scalar_predictions_bitwise():
    rng = np.random.default_rng(19)
    for l in (1, 2, 3, 6, 9):
        specs = []
        for _ in range(40):
            r = float(rng.uniform(2.5, 5000.0))
            a, b = (float(x) for x in rng.uniform(-0.99, 0.99, 2) * min(r, 2.4))
            specs.append(TridiagSpec(l=l, a=a, b=b, r=r))
        for order in ("r2", "r1", "const", "c_over_r"):
            grid = predicted_grid(specs, order)
            assert grid.shape == (len(specs), l)
            want = [[predicted_eigenvalue(spec, n, order) for n in range(1, l + 1)] for spec in specs]
            assert grid.tolist() == want, (l, order)
            assert np.array_equal(grid.view(np.int64), np.array(want).view(np.int64)), (l, order)


def test_predicted_grid_checks_every_spec():
    ok = TridiagSpec(l=3, a=0.5, b=0.5, r=10.0)
    with pytest.raises(ValueError):
        predicted_grid([ok, TridiagSpec(l=3, a=0.5, b=20.0, r=10.0)])
    with pytest.raises(ValueError):
        predicted_grid([ok, TridiagSpec(l=4, a=0.5, b=0.5, r=10.0)])
    with pytest.raises(ValueError):
        predicted_grid([ok], "r3")


def test_c_coefficient_memo_matches_direct_sum():
    for l in range(1, 13):
        for n in range(1, l + 1):
            assert c_coefficient(l, n) == c_coefficient.__wrapped__(l, n)
    with pytest.raises(ValueError):
        c_coefficient(5, 6)  # an invalid index raises on every call
    with pytest.raises(ValueError):
        c_coefficient(5, 6)


def test_spec_validation():
    with pytest.raises(ValueError):
        TridiagSpec(l=0, a=0.0, b=0.0, r=1.0)
    with pytest.raises(ValueError):
        TridiagSpec(l=2, a=0.0, b=0.0, r=0.0)
    with pytest.raises(ValueError):
        predicted_eigenvalue(TridiagSpec(l=2, a=0.0, b=0.0, r=0.5), 1)


# ------------------------------------------------------------ C coefficient


def test_c_coefficient_pinned_value():
    # l=3, n=1: single same-parity partner n=3, works out to -1/(32 sqrt 2)
    assert c_coefficient(3, 1) == pytest.approx(-1.0 / (32.0 * math.sqrt(2.0)), rel=1e-13)


def test_c_coefficient_vanishes_without_same_parity_partner():
    assert c_coefficient(1, 1) == 0.0
    assert c_coefficient(2, 1) == 0.0
    assert c_coefficient(2, 2) == 0.0


def test_c_coefficient_bound_spot_checks():
    for l in (3, 5, 8, 12):
        for n in range(1, l + 1):
            assert abs(c_coefficient(l, n)) < 10.0 * (l + 1)


def test_constant_order_correction_is_minus_four_c():
    for l in (1, 2, 3, 4, 7):
        for n in range(1, l + 1):
            assert constant_order_correction(l, n) == -4.0 * c_coefficient(l, n)


# ------------------------------------------------------------ expansion


def test_predicted_orders_nest():
    spec = TridiagSpec(l=4, a=0.5, b=-1.0, r=200.0)
    for n in range(1, 5):
        r2 = predicted_eigenvalue(spec, n, "r2")
        r1 = predicted_eigenvalue(spec, n, "r1")
        const = predicted_eigenvalue(spec, n, "const")
        cr = predicted_eigenvalue(spec, n, "c_over_r")
        m1 = 5
        assert r2 == 2.0 * spec.r**2 * cos_pi_frac(n, m1)
        assert r1 - r2 == pytest.approx((4.0 * spec.r / m1) * sin_pi_frac(n, m1) ** 2)
        # const and r1 are both ~r^2, so their difference only resolves to
        # a few ulps of that magnitude
        ulp_bound = 8 * np.finfo(float).eps * max(abs(const), 1.0)
        gap = const - r1
        expect = (2.0 * (spec.a + spec.b) / m1) * sin_pi_frac(n, m1) ** 2
        expect += constant_order_correction(4, n)
        assert gap == pytest.approx(expect, abs=ulp_bound)
        assert cr - const == pytest.approx(
            constant_order_correction(4, n) * (spec.a + spec.b) / spec.r, abs=ulp_bound
        )


def test_predicted_rejects_unknown_order_and_bad_mode():
    spec = TridiagSpec(l=3, a=0.0, b=0.0, r=50.0)
    with pytest.raises(ValueError):
        predicted_eigenvalue(spec, 1, "r3")
    with pytest.raises(ValueError):
        predicted_eigenvalue(spec, 4)


@settings(max_examples=40, deadline=None)
@given(
    l=st.integers(1, 10),
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
    r=st.floats(10, 1e4),
)
def test_spectrum_is_sorted_and_real(l, a, b, r):
    spec = TridiagSpec(l=l, a=a, b=b, r=r)
    vals = exact_spectrum(spec)
    assert len(vals) == l
    assert np.all(np.diff(vals) >= 0)
    assert np.all(np.isfinite(vals))


@settings(max_examples=30, deadline=None)
@given(l=st.integers(2, 9), n_seed=st.integers(0, 10**6))
def test_trace_identity(l, n_seed):
    # trace of the matrix equals the eigenvalue sum -- catches scaling bugs
    rng = np.random.default_rng(n_seed)
    spec = TridiagSpec(
        l=l, a=float(rng.uniform(-1, 1)), b=float(rng.uniform(-1, 1)), r=float(rng.uniform(5, 300))
    )
    vals = exact_spectrum(spec)
    tr = float(np.trace(boundary_matrix(spec)))
    assert np.sum(vals) == pytest.approx(tr, rel=1e-11, abs=1e-9)
