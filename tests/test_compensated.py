"""Error-free transforms and double-double helpers.

Every finite double is an exact rational, so Fraction gives a perfect oracle:
two_sum and two_prod must reproduce the mathematical result *exactly* when the
hi/lo parts are added back together as rationals.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxham.compensated import (
    dd_add,
    dd_matmul,
    dd_mul,
    dd_scale,
    quick_two_sum,
    refined_solve,
    split,
    two_prod,
    two_sum,
)

finite = st.floats(
    min_value=-1e15, max_value=1e15, allow_nan=False, allow_infinity=False
)


@settings(max_examples=300, deadline=None)
@given(a=finite, b=finite)
def test_two_sum_is_error_free(a, b):
    hi, lo = two_sum(a, b)
    assert Fraction(float(hi)) + Fraction(float(lo)) == Fraction(a) + Fraction(b)
    assert float(hi) == a + b  # hi is the rounded sum


@settings(max_examples=300, deadline=None)
@given(a=finite, b=finite)
def test_quick_two_sum_matches_two_sum_when_ordered(a, b):
    big, small = (a, b) if abs(a) >= abs(b) else (b, a)
    hi1, lo1 = quick_two_sum(big, small)
    hi2, lo2 = two_sum(big, small)
    assert float(hi1) == float(hi2)
    assert float(lo1) == float(lo2)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_split_recombines_exactly(a):
    hi, lo = split(a)
    assert float(hi) + float(lo) == a
    assert Fraction(float(hi)) + Fraction(float(lo)) == Fraction(a)


# two_prod's error term is exact only while the product stays clear of the
# subnormal range, so keep magnitudes bounded away from underflow
nonzero_scaled = st.floats(min_value=1e-100, max_value=1e10).flatmap(
    lambda m: st.sampled_from([m, -m])
)


@settings(max_examples=300, deadline=None)
@given(a=nonzero_scaled | st.just(0.0), b=nonzero_scaled | st.just(0.0))
def test_two_prod_is_error_free(a, b):
    hi, lo = two_prod(a, b)
    assert Fraction(float(hi)) + Fraction(float(lo)) == Fraction(a) * Fraction(b)


def test_two_prod_catches_rounding_the_plain_product_loses():
    a, b = 1.0 + 2.0**-30, 1.0 - 2.0**-30
    hi, lo = two_prod(a, b)
    assert lo != 0.0  # a*b is not representable, the error term is live
    assert Fraction(float(hi)) + Fraction(float(lo)) == Fraction(a) * Fraction(b)


def test_transforms_are_vectorized():
    a = np.array([1.0, 1e16, -3.5])
    b = np.array([2.0**-53, 1.0, 0.1])
    hi, lo = two_sum(a, b)
    assert hi.shape == (3,)
    for i in range(3):
        shi, slo = two_sum(float(a[i]), float(b[i]))
        assert hi[i] == shi and lo[i] == slo
    hi, lo = two_prod(a, b)
    for i in range(3):
        shi, slo = two_prod(float(a[i]), float(b[i]))
        assert hi[i] == shi and lo[i] == slo


def test_dd_add_keeps_cancelled_tail():
    # 1e16 + 1 - 1e16 in plain doubles loses the 1; dd keeps it
    hi, lo = dd_add(1e16, 0.0, 1.0, 0.0)
    hi, lo = dd_add(hi, lo, -1e16, 0.0)
    assert hi + lo == 1.0


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=1, max_value=1e6).flatmap(lambda m: st.sampled_from([m, -m])),
    b=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    c=st.floats(min_value=1, max_value=1e6).flatmap(lambda m: st.sampled_from([m, -m])),
    d=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_dd_mul_near_quad_accuracy(a, b, c, d):
    # Normalized dd inputs (|lo| well below ulp(hi)): compare against the
    # rational product.  Denormalized lo parts void the accuracy contract.
    xb = a * (b / 1e6) * 2.0**-55
    yd = c * (d / 1e6) * 2.0**-55
    hi, lo = dd_mul(a, xb, c, yd)
    want = (Fraction(a) + Fraction(xb)) * (Fraction(c) + Fraction(yd))
    got = Fraction(float(hi)) + Fraction(float(lo))
    rel = abs((got - want) / want)
    assert rel < Fraction(1, 2**95)


def test_dd_scale_exact_by_power_of_two():
    hi, lo = dd_scale(np.array([1.0, 3.0]), np.array([2.0**-60, 0.0]), 4.0)
    assert hi.tolist() == [4.0, 12.0]
    assert lo[0] == 2.0**-58


def test_dd_matmul_against_rational_oracle():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (4, 2))
    hi, lo = dd_matmul(a, None, b, None)
    for i in range(3):
        for j in range(2):
            want = sum(Fraction(a[i, k]) * Fraction(b[k, j]) for k in range(4))
            got = Fraction(float(hi[i, j])) + Fraction(float(lo[i, j]))
            assert abs(got - want) <= abs(want) * Fraction(1, 2**100) + Fraction(1, 2**140)


def test_refined_solve_beats_plain_lu_on_ill_conditioned_system():
    # Refinement converges to the exact solution of the system as stored, so
    # the oracle is a rational Gaussian elimination on the rounded entries
    # (NOT the textbook Hilbert solution -- that differs at cond * eps).
    n = 9
    m = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])  # Hilbert
    rhs = m @ np.ones(n)

    frac = [[Fraction(m[i, j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(frac[r][col]))
        frac[col], frac[piv] = frac[piv], frac[col]
        for r in range(n):
            if r != col and frac[r][col]:
                f = frac[r][col] / frac[col][col]
                frac[r] = [x - f * y for x, y in zip(frac[r], frac[col])]
    x_exact = np.array([float(frac[i][n] / frac[i][i]) for i in range(n)])

    x_hi, x_lo = refined_solve(m, rhs.reshape(-1, 1))
    err_dd = np.max(np.abs(x_hi[:, 0] + x_lo[:, 0] - x_exact))
    err_plain = np.max(np.abs(np.linalg.solve(m, rhs) - x_exact))
    assert err_dd < 1e-13
    assert err_dd < err_plain * 1e-2


def test_refined_solve_residual_is_tiny_for_well_conditioned():
    rng = np.random.default_rng(5)
    m = rng.uniform(-1, 1, (6, 6)) + 6 * np.eye(6)
    rhs = rng.uniform(-1, 1, (6, 2))
    x_hi, x_lo = refined_solve(m, rhs)
    resid = m @ x_hi + m @ x_lo - rhs
    assert np.max(np.abs(resid)) < 1e-14
