"""Geometric coefficient design that separates all weighted selections.

Given finite point sets S_1..S_d in (0,1), one coefficient a_i per set turns a
selection pi (one point from each set) into the sum F_pi = sum_i a_i x_{i,pi(i)}.
Drawing a_i from the geometric windows ((1/2)(2/(eps*delta))^i, (2/(eps*delta))^i)
forces every two distinct selections more than 1/delta apart:

  * eps is the smallest of all elements and all within-set gaps (the proof
    only ever uses within-set separation, so cross-set gaps play no part),
  * delta is any value in (0, min(1/2, 1/(1+eps))).

verify_separation brute-forces the claim for concrete coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialLimitError, DegenerateInputError, MagnitudeError
from .tridiag import sin_pi_frac

PAIR_CAP = 1_000_000


@dataclass(frozen=True)
class SeparationCheck:
    """Result of one brute-force verification."""

    min_gap: float
    threshold: float
    passed: bool
    n_sums: int


def sine_system(lengths) -> list[tuple[float, ...]]:
    """The per-coordinate point sets sin^2(pi*j/(l_i+1))/(l_i+1), deduplicated.

    The reflection j <-> l_i+1-j gives bitwise-equal values (sin_pi_frac makes
    the symmetry exact), so duplicates drop out exactly.  All values land in
    (0, 1).
    """
    out = []
    for l in lengths:
        m1 = int(l) + 1
        values = sorted({sin_pi_frac(j, m1) ** 2 / m1 for j in range(1, int(l) + 1)})
        out.append(tuple(values))
    return out


def epsilon_delta(sets, delta_hint: float | None = None) -> tuple[float, float]:
    """epsilon = min(all elements, all within-set gaps); delta from the hint.

    The hint is used verbatim when it satisfies 0 < delta < min(1/2, 1/(1+eps));
    otherwise delta defaults to 0.9 of that supremum (widest windows at the
    smallest magnitudes).  Coincident points in a set are rejected: a zero gap
    would make epsilon zero and the windows meaningless.
    """
    sets = [tuple(sorted(float(x) for x in s)) for s in sets]
    if not sets or any(not s for s in sets):
        raise DegenerateInputError("every set must be nonempty")
    eps = min(s[0] for s in sets)
    for s in sets:
        if s[0] <= 0.0 or s[-1] >= 1.0:
            raise DegenerateInputError(f"set values must lie in (0,1), got {s}")
        for a, b in zip(s, s[1:]):
            if b - a == 0.0:
                raise DegenerateInputError(f"coincident points {a} in a set")
            eps = min(eps, b - a)
    sup = min(0.5, 1.0 / (1.0 + eps))
    if delta_hint is not None and 0.0 < delta_hint < sup:
        return eps, float(delta_hint)
    return eps, 0.9 * sup


def design_intervals(epsilon: float, delta: float, d: int) -> list[tuple[float, float]]:
    """The d open windows ((1/2)(2/(eps*delta))^i, (2/(eps*delta))^i), i = 1..d."""
    if not (epsilon > 0 and delta > 0):
        raise DegenerateInputError("epsilon and delta must be positive")
    base = 2.0 / (epsilon * delta)
    out = []
    power = 1.0
    for _ in range(d):
        power *= base
        if not np.isfinite(power):
            raise MagnitudeError(
                f"the windows (2/(eps*delta))^i overflow double for d={d}, "
                f"eps={epsilon:g}, delta={delta:g}"
            )
        out.append((0.5 * power, power))
    return out


def midpoint_coefficients(intervals) -> list[float]:
    """Deterministic coefficient choice: the centre of each window."""
    return [0.5 * (lo + hi) for lo, hi in intervals]


def draw_coefficients(intervals, rng: np.random.Generator) -> list[float]:
    """One uniform draw from each window."""
    return [float(rng.uniform(lo, hi)) for lo, hi in intervals]


def verify_separation(sets, a, delta: float) -> SeparationCheck:
    """Brute-force check that all selection sums are more than 1/delta apart.

    Enumerates every selection sum exactly: each float is a dyadic rational,
    so scaling every product a_i * x to one power-of-two denominator makes the
    sums integers that no rounding can merge.  The minimum over distinct pairs
    is the minimum adjacent difference after sorting, so the pair scan needs
    no quadratic work; it is compared with the threshold exactly and reported
    as the nearest float.  The pair count (not the sum count) is capped.
    """
    sets = [[float(x) for x in s] for s in sets]
    if len(a) != len(sets):
        raise ValueError(f"need one coefficient per set: {len(a)} vs {len(sets)}")
    n_sums = 1
    for s in sets:
        n_sums *= len(s)
    n_pairs = n_sums * (n_sums - 1) // 2
    if n_pairs > PAIR_CAP:
        raise CombinatorialLimitError(f"{n_pairs} pairs exceed cap {PAIR_CAP}")
    threshold = 1.0 / delta
    if n_sums < 2:
        return SeparationCheck(min_gap=float("inf"), threshold=threshold, passed=True, n_sums=n_sums)

    products = []
    for coeff, s in zip(a, sets):
        pc, qc = float(coeff).as_integer_ratio()
        products.append([(pc * px, qc * qx) for px, qx in (x.as_integer_ratio() for x in s)])
    denom = max(q for terms in products for _, q in terms)
    sums = [0]
    for terms in products:
        scaled = [p * (denom // q) for p, q in terms]
        sums = [u + v for u in sums for v in scaled]
    sums.sort()
    min_diff = min(v - u for u, v in zip(sums, sums[1:]))
    tp, tq = threshold.as_integer_ratio()
    return SeparationCheck(
        min_gap=min_diff / denom,
        threshold=threshold,
        passed=min_diff * tq > tp * denom,
        n_sums=n_sums,
    )
