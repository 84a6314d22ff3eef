"""Exact zero tests in cyclotomic rings and the cosine-sum vanishing scan.

Everything here is integer: each cosine is a row of coordinates in Z[zeta_m].
The only floats appear in cross-checks against the complex embedding
zeta = exp(2 pi i/m).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxham.cyclotomic import (
    cos_rows,
    cos_sum_is_zero,
    cyclotomic_polynomial,
    verify_nonvanishing,
)
from boxham.errors import CombinatorialLimitError


def test_cyclotomic_polynomial_known_cases():
    # coefficients low-order first
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomial_degree_is_totient():
    for m in (5, 8, 15, 30, 105, 770):
        poly = cyclotomic_polynomial(m)
        assert len(poly) - 1 == sum(math.gcd(k, m) == 1 for k in range(1, m + 1))
        assert poly[-1] == 1  # monic


def test_cyclotomic_polynomial_105_has_coefficient_minus_two():
    # the first index where a coefficient outside {-1,0,1} appears
    assert -2 in cyclotomic_polynomial(105)


def test_cyclotomic_polynomial_roots_are_primitive():
    for m in (7, 12):
        poly = cyclotomic_polynomial(m)
        root = np.exp(2j * np.pi / m)
        value = sum(c * root**k for k, c in enumerate(poly))
        assert abs(value) < 1e-9


@pytest.mark.parametrize("m", [2, 12, 30, 210, 2002])
def test_cos_rows_match_embedding(m):
    # row K, evaluated at zeta = exp(2 pi i/m), is 2cos(2 pi K/m) for any integer K
    exponents = sorted({0, 1, m // 2, m - 1, m + 3, -5} | set(range(0, m, max(1, m // 40))))
    rows = cos_rows(exponents, m)
    assert rows.dtype == np.int64
    assert rows.shape == (len(exponents), len(cyclotomic_polynomial(m)) - 1)
    powers = np.exp(2j * np.pi / m) ** np.arange(rows.shape[1])
    expected = [2 * math.cos(2 * math.pi * k / m) for k in exponents]
    np.testing.assert_allclose(rows @ powers, expected, atol=1e-9)


def _long_division_rows(exponents, m):
    """Oracle: x^K + x^(m-K) reduced modulo Phi_m by long division, top column first.

    Rows whose x^j coefficient is already zero are skipped at column j;
    subtracting 0 * Phi_m would change nothing.
    """
    phi = np.array(cyclotomic_polynomial(m), dtype=np.int64)
    deg = phi.size - 1
    k = np.asarray(exponents, dtype=np.int64) % m
    rows = np.zeros((k.size, m), dtype=np.int64)
    rows[np.arange(k.size), k] += 1
    rows[np.arange(k.size), -k % m] += 1
    for j in range(m - 1, deg - 1, -1):
        live = np.flatnonzero(rows[:, j])
        rows[live, j - deg : j] -= rows[live, j, None] * phi[:deg]
    return rows[:, :deg]


def test_cos_rows_walk_matches_long_division_for_every_exponent():
    for m in range(1, 301):
        exponents = np.arange(m)
        rows = cos_rows(exponents, m)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, _long_division_rows(exponents, m)), m
    m = 2002
    for start in range(0, m, 128):  # blocks keep the oracle's work array small
        exponents = np.arange(start, min(start + 128, m))
        assert np.array_equal(cos_rows(exponents, m), _long_division_rows(exponents, m)), start
    assert cos_rows([], 12).shape == (0, 4)


def test_verify_nonvanishing_blocks_share_one_reduction(monkeypatch):
    import boxham.cyclotomic as cyclotomic

    calls = []

    def counting(exponents, m):
        calls.append(m)
        return cos_rows(exponents, m)

    monkeypatch.setattr(cyclotomic, "cos_rows", counting)
    rep = cyclotomic.verify_nonvanishing((5, 7, 11))
    assert calls == [770]
    assert rep.tuples == 240 and rep.zeros == 0


def test_cos_sum_golden_identity():
    # cos(pi/5) + cos(3pi/5) + cos(2pi/3) = (cos(pi/5) - cos(2pi/5)) - 1/2 = 0
    assert cos_sum_is_zero((5, 5, 3), (1, 3, 2))
    assert not cos_sum_is_zero((5, 5, 3), (1, 2, 2))


def test_cos_sum_validates_range():
    for ps, ns in [((5,), (0,)), ((5,), (5,)), ((5, 7), (1,)), ((), ()), ((-5,), (1,))]:
        with pytest.raises(ValueError):
            cos_sum_is_zero(ps, ns)


def test_cos_sum_controls():
    # cos(pi/2) = 0 and cos(pi/3) + cos(2pi/3) = 0, both exact
    assert cos_sum_is_zero((2,), (1,))
    assert cos_sum_is_zero((3, 3), (1, 2))
    assert not cos_sum_is_zero((3,), (1,))
    assert not cos_sum_is_zero((5, 7), (1, 1))


def test_verify_nonvanishing_coprime_pair():
    rep = verify_nonvanishing((5, 7))
    assert rep.admissible
    assert not rep.reasons
    assert rep.tuples == 24
    assert rep.zeros == 0
    assert not rep.witnesses


def test_verify_nonvanishing_flags_inadmissible_input():
    rep = verify_nonvanishing((2,))
    assert not rep.admissible
    assert rep.reasons  # says why
    # the scan still runs and finds the vanishing tuple n=1
    assert rep.zeros >= 1
    assert (1,) in rep.witnesses

    rep = verify_nonvanishing((5, 10))
    assert not rep.admissible


def test_verify_nonvanishing_non_coprime_finds_zero():
    rep = verify_nonvanishing((3, 3))
    assert not rep.admissible
    assert rep.zeros >= 1
    assert (1, 2) in rep.witnesses or (2, 1) in rep.witnesses


def test_verify_nonvanishing_witness_order():
    # lexicographic; the cossum CSV lists its rows in this order
    assert verify_nonvanishing((4, 4, 4)).witnesses == (
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 2, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    )
    assert verify_nonvanishing((6,)).witnesses == ((3,),)


def test_verify_nonvanishing_rejects_bad_moduli():
    for ps in [(), (0,), (-5,), (5, 0)]:
        with pytest.raises(ValueError):
            verify_nonvanishing(ps)
    rep = verify_nonvanishing((1,))  # legal but inadmissible: nothing to scan
    assert not rep.admissible
    assert rep.tuples == 0 and rep.zeros == 0


def test_modulus_cap_is_enforced():
    with pytest.raises(CombinatorialLimitError):
        verify_nonvanishing((5003, 7001))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([5, 7, 11, 13]),
    data=st.data(),
)
def test_exact_zero_test_agrees_with_float_evaluation(p, data):
    n = data.draw(st.integers(1, p - 1), label="n")
    q = data.draw(st.sampled_from([5, 7, 11, 13]), label="q")
    m = data.draw(st.integers(1, q - 1), label="m")
    ps, ns = (p, q), (n, m)
    float_sum = math.cos(math.pi * n / p) + math.cos(math.pi * m / q)
    exact_zero = cos_sum_is_zero(ps, ns)
    if exact_zero:
        assert abs(float_sum) < 1e-9
    else:
        assert abs(float_sum) > 1e-9


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 200))
def test_cyclotomic_product_over_divisors(m):
    # Prod_{d | m} Phi_d(x) = x^m - 1, checked at x = 3 in exact integers
    x = 3
    prod = 1
    for d in range(1, m + 1):
        if m % d == 0:
            poly = cyclotomic_polynomial(d)
            prod *= sum(c * x**k for k, c in enumerate(poly))
    assert prod == x**m - 1
