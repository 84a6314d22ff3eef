"""Exact zero tests for sums of cosines at rational angles.

A sum sum_i cos(pi n_i / p_i) is an algebraic number in the cyclotomic ring
Z[zeta_m] with m = 2P, P = prod p_i: twice each cosine is zeta^K + zeta^-K
with K = n_i P / p_i.  Reducing x^K + x^(m-K) modulo the monic integer
polynomial Phi_m gives its coordinates in the basis 1, zeta, ...,
zeta^(phi(m)-1), so every such number is one row of integers and "is this sum
exactly zero?" is "is the summed row the zero vector?" -- a finite, float-free
question.  The scans here certify non-vanishing that way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialLimitError

MODULUS_CAP = 10_000

_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def _divisors(m: int) -> list[int]:
    small, large = [], []
    k = 1
    while k * k <= m:
        if m % k == 0:
            small.append(k)
            if k != m // k:
                large.append(m // k)
        k += 1
    return small + large[::-1]


def cyclotomic_polynomial(m: int) -> list[int]:
    """Integer coefficients of Phi_m, constant term first.

    Built by dividing x^m - 1 by the product of Phi_d over proper divisors d
    (memoized, so the recursion shares work across calls).  The division is
    exact; a nonzero remainder would mean an arithmetic fault and raises.
    """
    if not 1 <= m <= MODULUS_CAP:
        raise ValueError(f"m must be in 1..{MODULUS_CAP}, got {m}")
    cached = _PHI_CACHE.get(m)
    if cached is not None:
        return list(cached)
    if m == 1:
        _PHI_CACHE[1] = (-1, 1)
        return [-1, 1]

    divisor_product = np.array([1], dtype=np.int64)
    for d in _divisors(m)[:-1]:
        phi_d = np.array(cyclotomic_polynomial(d), dtype=np.int64)
        divisor_product = np.convolve(divisor_product, phi_d)

    numerator = np.zeros(m + 1, dtype=np.int64)
    numerator[0] = -1
    numerator[m] = 1
    g = divisor_product.size - 1  # degree of the (monic) divisor product
    quotient = np.zeros(m + 1 - g, dtype=np.int64)
    work = numerator.copy()
    for k in range(m, g - 1, -1):
        c = work[k]
        if c != 0:
            quotient[k - g] = c
            work[k - g : k] -= c * divisor_product[:g]
            work[k] = 0
    if np.any(work[:g] != 0):
        raise ArithmeticError(f"cyclotomic division left a remainder at m={m}")
    coeffs = tuple(int(c) for c in quotient)
    _PHI_CACHE[m] = coeffs
    return list(coeffs)


def cos_rows(exponents, m: int) -> np.ndarray:
    """2cos(2 pi K/m) = zeta^K + zeta^-K in Z[zeta_m], one int64 row per exponent K.

    Row j holds x^K + x^(m-K) reduced modulo Phi_m, constant term first, with
    the exponents taken mod m.  A sum of these numbers with integer weights is
    zero exactly when the weighted sum of the rows is the zero vector.

    The remainders x^e mod Phi_m are walked for e = 0, 1, ... up to the
    largest exponent needed.  Phi_m is monic, so x * (x^e mod Phi_m) is one
    shift plus one subtraction of the top coefficient times Phi_m.  The
    remainder is a window of deg = phi(m) entries in a zero-filled buffer of
    fewer than m + deg, and the shift moves the window one slot down, so it
    copies nothing.  Only the needed remainders are kept: the walk costs
    O(m * deg) and holds no m x deg table.

    int64 is exact here: the walk holds single remainders x^e mod Phi_m, and
    a sweep of every m <= MODULUS_CAP and every e < m found their coefficients
    at most 72 in magnitude (at most 24 for the even m that 2P and 2A give);
    a remainder minus 72 times a coefficient of Phi_m, and each row (a sum of
    two remainders), stay far inside int64.
    """
    phi = np.array(cyclotomic_polynomial(m), dtype=np.int64)
    deg = phi.size - 1
    k = np.asarray(exponents, dtype=np.int64) % m
    plus, minus = k.tolist(), (-k % m).tolist()
    needed = set(plus) | set(minus)
    last = max(needed, default=0)
    # x^e mod Phi_m is buf[start : start + deg], constant term first.
    buf = np.zeros(last + deg, dtype=np.int64)
    start = last
    buf[start] = 1
    remainders = {}
    for e in range(last + 1):
        if e in needed:
            remainders[e] = buf[start : start + deg].copy()
        if e == last:
            break
        top = buf[start + deg - 1]
        start -= 1
        if top:
            buf[start : start + deg] -= top * phi[:deg]
    rows = np.zeros((k.size, deg), dtype=np.int64)
    for row, a, b in zip(rows, plus, minus):
        np.add(remainders[a], remainders[b], out=row)
    return rows


def _ambient_order(ps: tuple[int, ...]) -> int:
    """The order m = 2P whose ring holds every cos(pi n/p_i); validates the p_i."""
    if not ps or any(p < 1 for p in ps):
        raise ValueError(f"need at least one modulus, each >= 1, got {ps}")
    m = 2 * math.prod(ps)
    if m > MODULUS_CAP:
        raise CombinatorialLimitError(f"modulus 2P={m} exceeds cap {MODULUS_CAP}")
    return m


def cos_sum_is_zero(ps, ns) -> bool:
    """Exact zero test of sum_i cos(pi*ns[i]/ps[i]); no floating point anywhere."""
    ps = tuple(int(p) for p in ps)
    ns = tuple(int(n) for n in ns)
    if len(ps) != len(ns):
        raise ValueError("ps and ns must have the same length")
    m = _ambient_order(ps)
    for n, p in zip(ns, ps):
        if not 1 <= n < p:
            raise ValueError(f"need 1 <= n < p, got n={n}, p={p}")
    rows = cos_rows([n * (m // (2 * p)) for n, p in zip(ns, ps)], m)
    return not rows.sum(axis=0).any()


@dataclass(frozen=True)
class NonvanishingReport:
    """Outcome of an exhaustive cosine-sum scan."""

    ps: tuple[int, ...]
    admissible: bool
    reasons: tuple[str, ...]
    tuples: int
    zeros: int
    witnesses: tuple[tuple[int, ...], ...]


def verify_nonvanishing(ps) -> NonvanishingReport:
    """Scan every tuple (n_1..n_d), 1 <= n_i < p_i, for a vanishing cosine sum.

    Admissibility (pairwise-coprime p_i, each p_i odd, not divisible by 3 and
    not 1) is checked and reported; violations do not stop the scan, they only
    flag the input, since the inadmissible outcomes are informative controls.
    An empty ps or any p_i < 1 raises ValueError.  Witnesses come in
    lexicographic order.  The modulus cap also bounds the scan: it holds
    prod(p_i - 1) < P <= MODULUS_CAP / 2 tuples.
    """
    ps = tuple(int(p) for p in ps)
    m = _ambient_order(ps)
    reasons = []
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if math.gcd(ps[i], ps[j]) != 1:
                reasons.append(f"gcd({ps[i]},{ps[j]}) = {math.gcd(ps[i], ps[j])} != 1")
    for p in ps:
        if p == 1 or p % 2 == 0 or p % 3 == 0:
            reasons.append(f"{p} is 1 or divisible by 2 or 3")
    count = math.prod(p - 1 for p in ps)

    # Row n-1 of block i is 2cos(pi n/p_i).  Each prefix of the leading
    # coordinates is summed once and added to the whole last block.
    # All blocks are reduced in one walk, then split back per modulus.
    exponents = [n * (m // (2 * p)) for p in ps for n in range(1, p)]
    *leading, last = np.split(cos_rows(exponents, m), np.cumsum([p - 1 for p in ps[:-1]]))
    witnesses: list[tuple[int, ...]] = []
    for prefix in itertools.product(*(range(1, p) for p in ps[:-1])):
        total = last.copy()
        for block, n in zip(leading, prefix):
            total += block[n - 1]
        witnesses.extend(prefix + (int(n) + 1,) for n in np.flatnonzero(~total.any(axis=1)))
    return NonvanishingReport(
        ps=ps,
        admissible=not reasons,
        reasons=tuple(reasons),
        tuples=count,
        zeros=len(witnesses),
        witnesses=tuple(witnesses),
    )
