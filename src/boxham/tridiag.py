"""Boundary-perturbed path-graph matrices and their large-r eigenvalue expansion.

The object of study is the l x l symmetric tridiagonal matrix

    D = r^2 * A_l + (a + r) |e_1><e_1| + (b + r) |e_l><e_l|

with A_l the 0/1 path-graph adjacency.  For large r its eigenvalues follow the
unperturbed modes 2 r^2 cos(pi n/(l+1)) with corrections of order r, 1 and 1/r;
this module provides that expansion with its correction coefficients, a
reference spectrum from one batched ``numpy.linalg.eigh`` with a residual
check, and the factor description of each coordinate of the Kronecker-sum
truncation.

Trigonometric quantities are always evaluated as functions of pi*n/(l+1)
directly (never by recurrence), through helpers that make the reflection
symmetries n <-> l+1-n bitwise exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


def cos_pi_frac(num: int, den: int) -> float:
    """cos(pi*num/den) with exact quadrant reduction.

    Guarantees cos_pi_frac(den-n, den) == -cos_pi_frac(n, den) bitwise and an
    exact 0.0 at the half angle, so symmetric mode pairs cancel exactly.
    """
    num %= 2 * den
    if num > den:
        num = 2 * den - num
    if 2 * num == den:
        return 0.0
    if 2 * num < den:
        return math.cos(math.pi * num / den)
    return -math.cos(math.pi * (den - num) / den)


def sin_pi_frac(num: int, den: int) -> float:
    """sin(pi*num/den) with the same exact reduction as cos_pi_frac."""
    num %= 2 * den
    sign = 1.0
    if num > den:
        sign = -1.0
        num = 2 * den - num
    if 2 * num == den:
        return sign
    if 2 * num < den:
        return sign * math.sin(math.pi * num / den)
    return sign * math.sin(math.pi * (den - num) / den)


@dataclass(frozen=True)
class TridiagSpec:
    """Parameters (l, a, b, r) of one boundary-perturbed matrix."""

    l: int
    a: float
    b: float
    r: float

    def __post_init__(self):
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")

    def require_expansion_regime(self):
        if not self.r > max(abs(self.a), abs(self.b), 1.0):
            raise ValueError(
                f"expansion needs r > max(|a|,|b|,1); got r={self.r}, a={self.a}, b={self.b}"
            )


def factor_specs(lengths, omega_pairs, lams, r: float) -> list[TridiagSpec]:
    """The tridiagonal factor of each coordinate of the truncation A_r.

    ``omega_pairs[i] = (omega on box -e_i, omega on box +e_i)`` and ``lams[i]``
    is the boost lambda_i on box +e_i; coordinate i has the boundary
    parameters a = omega_-, b = omega_+ + lambda_i.
    """
    return [
        TridiagSpec(l=int(l), a=float(minus), b=float(plus) + float(lam), r=r)
        for l, (minus, plus), lam in zip(lengths, omega_pairs, lams)
    ]


def path_adjacency(l: int) -> np.ndarray:
    """The 0/1 path-graph adjacency A_l (integer matrix)."""
    a = np.zeros((l, l), dtype=np.int64)
    for i in range(l - 1):
        a[i, i + 1] = a[i + 1, i] = 1
    return a


def boundary_matrix(spec: TridiagSpec) -> np.ndarray:
    """Dense r^2*A_l + (a+r)E_11 + (b+r)E_ll."""
    d = spec.r**2 * path_adjacency(spec.l).astype(np.float64)
    d[0, 0] += spec.a + spec.r
    d[-1, -1] += spec.b + spec.r
    return d


@functools.cache
def c_coefficient(l: int, n: int) -> float:
    """The parity-restricted boundary-coupling coefficient

        C_n = (2/(l+1)^2) sin^2(pi n/(l+1))
              * sum_{m != n, m = n mod 2} sin^2(pi m/(l+1))
                / (cos(pi m/(l+1)) - cos(pi n/(l+1))).

    Zero when the parity-restricted sum is empty (any l <= 2).  Note this is a
    coefficient with a fixed sign convention; see constant_order_correction for
    how it enters the eigenvalue.  Memoized: it depends on the integers (l, n)
    only, and each expansion grid asks for the same few pairs many times.
    """
    if not 1 <= n <= l:
        raise ValueError(f"mode index {n} outside 1..{l}")
    m1 = l + 1
    acc = 0.0
    for m in range(1, l + 1):
        if m != n and (m - n) % 2 == 0:
            acc += sin_pi_frac(m, m1) ** 2 / (
                cos_pi_frac(m, m1) - cos_pi_frac(n, m1)
            )
    return (2.0 / m1**2) * sin_pi_frac(n, m1) ** 2 * acc


def constant_order_correction(l: int, n: int) -> float:
    """The r^0 term of the eigenvalue expansion: -4 * c_coefficient(l, n).

    The boundary coupling enters the eigenvalue with weight -4 relative to the
    sign convention of c_coefficient: equivalently it equals
    4 a_n sum_{m=n mod 2, m!=n} a_m / (E_n - E_m) with the mode's own energy
    first in the denominator.  The r-sweeps in the test suite pin this sign
    empirically: with it, residuals decay like 1/r; with the opposite sign they
    plateau at a constant.
    """
    return -4.0 * c_coefficient(l, n)


def exact_spectrum(specs) -> np.ndarray:
    """Reference eigenvalues of boundary-perturbed matrices, ascending.

    ``specs`` is one TridiagSpec, answered by a 1-D array, or a sequence of
    specs sharing one l, answered by one row per spec; a single spec is a
    batch of one.  The batch is stacked as dense (batch, l, l) matrices and
    solved by one ``numpy.linalg.eigh`` call (LAPACK ``dsyevd``, whose
    reduction leaves a tridiagonal matrix as it is, so the eigenvalues equal
    ``dstevd``'s bit for bit).  Every eigenpair of the batch is then checked
    against its matrix at once: ||D v - lam v|| must stay below
    1e-10 * ||D||; a violation (or a solver failure) raises ConvergenceError.
    """
    single = isinstance(specs, TridiagSpec)
    batch = [specs] if single else list(specs)
    l = batch[0].l
    if any(spec.l != l for spec in batch):
        raise ValueError(f"one batch must share l, got {sorted({spec.l for spec in batch})}")
    diag = np.zeros((len(batch), l), dtype=np.float64)
    diag[:, 0] += [spec.a + spec.r for spec in batch]
    diag[:, -1] += [spec.b + spec.r for spec in batch]
    r2 = np.array([spec.r**2 for spec in batch])
    finite = np.isfinite(diag[:, 0]) & np.isfinite(diag[:, -1]) & np.isfinite(r2)
    if not finite.all():
        raise ValueError(f"non-finite tridiagonal entries for {batch[int(np.argmin(finite))]}")
    if l == 1:
        return diag[0] if single else diag  # the 1 x 1 matrix is its own eigenvalue
    offdiag = np.repeat(r2[:, None], l - 1, axis=1)
    stack = np.zeros((len(batch), l, l))
    i = np.arange(l)
    stack[:, i, i] = diag
    stack[:, i[1:], i[:-1]] = offdiag
    stack[:, i[:-1], i[1:]] = offdiag
    try:
        values, vectors = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolver failed on order {l}: {exc}") from exc

    # residual check via tridiagonal matvec, every matrix at once
    norm = np.maximum(np.abs(values).max(axis=1), np.abs(diag).max(axis=1) + 2.0 * r2)
    mv = diag[:, :, None] * vectors
    mv[:, :-1] += offdiag[:, :, None] * vectors[:, 1:]
    mv[:, 1:] += offdiag[:, :, None] * vectors[:, :-1]
    residual = np.linalg.norm(mv - values[:, None, :] * vectors, axis=1).max(axis=1)
    bad = np.flatnonzero(residual > 1e-10 * norm)
    if bad.size:
        k = bad[0]
        raise ConvergenceError(
            f"eigenpair residual {residual[k]:.3e} exceeds 1e-10 * ||D|| = {1e-10 * norm[k]:.3e}"
        )
    return values[0] if single else values


def _expansion(l: int, n: int, a, b, r, r2, order: str):
    """The partial sum of ``predicted_eigenvalue``, on floats or on arrays.

    ``r2`` is r**2, evaluated by the caller as a Python float per r.  Every
    operation is elementwise and in the same order for both kinds of input,
    so each array entry equals the scalar result bit for bit.
    """
    m1 = l + 1
    cos_n = cos_pi_frac(n, m1)
    sin2_n = sin_pi_frac(n, m1) ** 2
    value = 2.0 * r2 * cos_n
    if order == "r2":
        return value
    value += (4.0 * r / m1) * sin2_n
    if order == "r1":
        return value
    correction = constant_order_correction(l, n)
    value += (2.0 * (a + b) / m1) * sin2_n
    value += correction
    if order == "const":
        return value
    value += correction * (a + b) / r
    if order == "c_over_r":
        return value
    raise ValueError(f"unknown order token {order!r}")


def predicted_eigenvalue(spec: TridiagSpec, n: int, order: str = "const") -> float:
    """Partial sum of the large-r expansion for mode n.

    Orders: "r2" (2 r^2 cos), "r1" (+ 4r/(l+1) sin^2), "const"
    (+ 2(a+b)/(l+1) sin^2 + constant-order boundary correction), "c_over_r"
    (+ the same correction scaled by (a+b)/r).  The 1/r remainder has no
    closed form here and is only bounded; residual sweeps absorb it.
    """
    spec.require_expansion_regime()
    if not 1 <= n <= spec.l:
        raise ValueError(f"mode index {n} outside 1..{spec.l}")
    return _expansion(spec.l, n, spec.a, spec.b, spec.r, spec.r**2, order)


def predicted_grid(specs, order: str = "const") -> np.ndarray:
    """``predicted_eigenvalue`` of every mode of specs sharing one l.

    Row k, column n-1 holds mode n of ``specs[k]``, equal bit for bit to the
    scalar call: each mode is one ``_expansion`` over the arrays of a, b, r.
    """
    l = specs[0].l
    if any(spec.l != l for spec in specs):
        raise ValueError(f"one grid must share l, got {sorted({spec.l for spec in specs})}")
    for spec in specs:
        spec.require_expansion_regime()
    a = np.array([spec.a for spec in specs])
    b = np.array([spec.b for spec in specs])
    r = np.array([spec.r for spec in specs])
    r2 = np.array([spec.r**2 for spec in specs])
    return np.stack([_expansion(l, n, a, b, r, r2, order) for n in range(1, l + 1)], axis=1)
