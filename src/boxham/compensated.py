"""Compensated (double-double) arithmetic for cancellation-prone assemblies.

Classic error-free transformations: two_sum (Knuth), split and two_prod
(Dekker, no FMA assumed), and the double-double add/scale/multiply built from
them (in the style of Ogita-Rump-Oishi accurate-sum/dot papers).  A value is
carried as an unevaluated pair (hi, lo) with |lo| <= ulp(hi)/2, giving roughly
32 significant digits — enough headroom for r^2-scale terms that exhaust
plain doubles.

Everything here is elementwise-vectorized: the same code paths accept scalars
or ndarrays.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1
REFINEMENT_PASSES = 3


def two_sum(a, b):
    """s + e == a + b exactly, s = fl(a + b)."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def quick_two_sum(a, b):
    """two_sum under the promise |a| >= |b| (one branchless step cheaper)."""
    s = a + b
    e = b - (s - a)
    return s, e


def split(a):
    """Dekker split into 26+26 bit halves: hi + lo == a exactly."""
    t = _SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    """p + e == a * b exactly, p = fl(a * b); Dekker product, FMA-free."""
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def dd_add(x_hi, x_lo, y_hi, y_lo):
    s, e = two_sum(x_hi, y_hi)
    e = e + (x_lo + y_lo)
    return quick_two_sum(s, e)


def dd_scale(x_hi, x_lo, c: float):
    p, e = two_prod(x_hi, c)
    e = e + x_lo * c
    return quick_two_sum(p, e)


def dd_mul(x_hi, x_lo, y_hi, y_lo):
    p, e = two_prod(x_hi, y_hi)
    e = e + (x_hi * y_lo + x_lo * y_hi)
    return quick_two_sum(p, e)


def dd_matmul(a_hi, a_lo, b_hi, b_lo):
    """Matrix product of two dd matrices, accumulated in dd.

    Rank-one slabs: C = sum_k outer(A[:, k], B[k, :]) with each slab formed by
    two_prod and folded in with dd_add.  O(K) python loop over vectorized
    (m x n) updates — fine at desk scale.
    """
    a_hi = np.atleast_2d(np.asarray(a_hi, dtype=np.float64))
    b_hi = np.atleast_2d(np.asarray(b_hi, dtype=np.float64))
    a_lo = np.zeros_like(a_hi) if a_lo is None else np.atleast_2d(a_lo)
    b_lo = np.zeros_like(b_hi) if b_lo is None else np.atleast_2d(b_lo)
    m, kk = a_hi.shape
    n = b_hi.shape[1]
    c_hi = np.zeros((m, n))
    c_lo = np.zeros((m, n))
    for k in range(kk):
        col_hi, col_lo = a_hi[:, k][:, None], a_lo[:, k][:, None]
        row_hi, row_lo = b_hi[k][None, :], b_lo[k][None, :]
        p_hi, p_lo = dd_mul(col_hi, col_lo, row_hi, row_lo)
        c_hi, c_lo = dd_add(c_hi, c_lo, p_hi, p_lo)
    return c_hi, c_lo


def refined_solve(m: np.ndarray, rhs: np.ndarray):
    """Solve m @ X = rhs with dd-accurate iterative refinement.

    One ``numpy.linalg.solve`` for X; each of REFINEMENT_PASSES passes
    computes the residual rhs - m @ X in dd (so the subtraction does not lose
    the small part), solves once more for the correction and folds it into a
    dd-carried X.  The factorization's conditioning limits the correction
    direction, not the achievable residual accuracy.
    """
    m = np.asarray(m, dtype=np.float64)
    rhs = np.atleast_2d(np.asarray(rhs, dtype=np.float64))
    x_hi = np.linalg.solve(m, rhs)
    x_lo = np.zeros_like(x_hi)
    for _ in range(REFINEMENT_PASSES):
        mx_hi, mx_lo = dd_matmul(m, None, x_hi, x_lo)
        r_hi, r_lo = dd_add(rhs, np.zeros_like(rhs), -mx_hi, -mx_lo)
        delta = np.linalg.solve(m, r_hi + r_lo)
        x_hi, x_lo = dd_add(x_hi, x_lo, delta, np.zeros_like(delta))
    return x_hi, x_lo
