"""Cluster structure of the Kronecker-sum truncation.

The truncated operator is a Kronecker sum of d boundary-perturbed tridiagonal
factors, so its eigenvalues are labeled by mode tuples (n_1..n_d) and predicted
by summing the per-factor expansions.  Two labels separate at order r^2 when
their cosine sums differ, at order r when their weighted sine-square sums
differ, and otherwise stay together ("same cluster"); the same-cluster labels
of n are always among the reflections m_i in {n_i, l_i+1-n_i}.

Equality of cosine/sine sums is decided exactly, once per geometry: the
class table reduces every tuple's sums to integer vectors in a cyclotomic
ring and numbers the distinct vectors, and every classification reads those
class ids instead of comparing floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import MODULUS_CAP, cos_rows
from .errors import CombinatorialLimitError, MatchingError
from .tridiag import (
    cos_pi_frac,
    exact_spectrum,
    factor_specs,
    predicted_eigenvalue,
    sin_pi_frac,
)

TUPLE_CAP = 10_000

COS_SEPARATED = "cos_separated"
SINE_SEPARATED = "sine_separated"
SAME_CLUSTER = "same_cluster"
_CLASSES = (COS_SEPARATED, SINE_SEPARATED, SAME_CLUSTER)

DEGENERACY_TOL = 1e-6

GAP_MARGIN = 0.25

_FALLBACK_TOL = 1e-12


@dataclass(frozen=True)
class GapReport:
    """Classification and measured gap of one label pair."""

    pair: tuple[tuple[int, ...], tuple[int, ...]]
    gap_class: str
    gap: float
    required: float | None

    @property
    def satisfied(self) -> bool:
        return self.required is None or self.gap >= self.required


@dataclass(frozen=True)
class AdmissibilityReport:
    """Which multiplicity regime the side lengths fall into."""

    lengths: tuple[int, ...]
    s: int
    simple: bool
    bound: int
    reasons: tuple[str, ...]


def _check_modes(lengths, modes):
    if len(modes) != len(lengths) or any(
        not 1 <= n <= l for n, l in zip(modes, lengths)
    ):
        raise ValueError(f"modes {modes} out of range for lengths {lengths}")


def predicted_cluster_energy(
    lengths,
    modes,
    omega_pairs,
    lams,
    r: float,
) -> float:
    """Sum of the per-factor expansions (order const) for one mode tuple.

    A test oracle: the tests check the labelled spectrum and the expansion
    against it.  The factors come from ``tridiag.factor_specs``; each must be
    in the expansion regime r > max(|a|, |b|, 1), or ValueError is raised.
    """
    lengths = tuple(int(l) for l in lengths)
    modes = tuple(int(n) for n in modes)
    _check_modes(lengths, modes)
    specs = factor_specs(lengths, omega_pairs, lams, r)
    return sum(predicted_eigenvalue(spec, n, "const") for spec, n in zip(specs, modes))


def all_mode_tuples(lengths) -> list[tuple[int, ...]]:
    total = math.prod(lengths)
    if total > TUPLE_CAP:
        raise CombinatorialLimitError(f"{total} mode tuples exceed cap {TUPLE_CAP}")
    tuples = [()]
    for l in lengths:
        tuples = [t + (n,) for t in tuples for n in range(1, l + 1)]
    return tuples


def _over_tuples(per_axis) -> np.ndarray:
    """sum_i per_axis[i][t_i - 1] for every mode tuple t, in all_mode_tuples order.

    The terms are added left to right from 0, as Python's ``sum`` adds them.
    """
    total = 0
    for axis, terms in enumerate(per_axis):
        total = total + np.reshape(terms, [-1 if k == axis else 1 for k in range(len(per_axis))])
    return total.ravel()


def _probe(width: int) -> np.ndarray:
    """Fixed pseudo-random uint64 weights below 2^62, for ``_exact_ids``."""
    return np.random.default_rng(0).integers(1 << 62, size=width, dtype=np.uint64)


def _exact_ids(rows) -> np.ndarray:
    """Number the distinct integer vectors sum_i rows[i][t_i - 1] over the tuples t.

    Each vector's dot product with ``_probe`` in uint64 arithmetic, which is
    exact mod 2^64 and so linear (one key per tuple), groups the candidates:
    equal vectors always share it, and only tuples that share it are compared
    entry by entry, so no N x phi(2A) table is held.
    """
    probe = _probe(rows[0].shape[1])
    keys = _over_tuples([row.astype(np.uint64) @ probe for row in rows])
    _, ids, counts = np.unique(keys, return_inverse=True, return_counts=True)
    ids = ids.ravel()
    order = np.argsort(ids, kind="stable")
    ends = np.cumsum(counts)
    next_id = counts.size
    for group in np.flatnonzero(counts > 1):
        members = order[ends[group] - counts[group] : ends[group]].tolist()
        coords = np.unravel_index(members, [len(row) for row in rows])
        vectors = sum(row[c] for row, c in zip(rows, coords))
        # the first vector keeps the group's id, every other one gets a new id
        split: dict[bytes, int] = {}
        for k, vector in zip(members, vectors):
            text = vector.tobytes()
            if text not in split:
                split[text] = ids[k] if not split else next_id + len(split) - 1
            ids[k] = split[text]
        next_id += len(split) - 1
    return ids


def _float_ids(values: np.ndarray) -> np.ndarray:
    """Number float sums by tolerance; used only where 2A > MODULUS_CAP.

    There the ring Z[zeta_2A] is past the cyclotomic cap, so no exact test
    is available.  Walking the sums in ascending order, a sum within
    _FALLBACK_TOL * max(1, max |sum|) of the first sum of the current class
    joins it; any other sum opens a new class.
    """
    tol = _FALLBACK_TOL * max(1.0, float(np.abs(values).max()))
    ids = np.empty(values.size, dtype=np.int64)
    leader, current = -math.inf, -1
    for k in np.argsort(values, kind="stable").tolist():
        if values[k] - leader > tol:
            leader, current = values[k], current + 1
        ids[k] = current
    return ids


@dataclass(frozen=True, eq=False)
class ClassTable:
    """The order-r^2 and order-r class of every mode tuple of one geometry.

    ``tuples`` lists the mode tuples in all_mode_tuples order and ``index``
    maps each to its position k.  ``cos[k]`` and ``sine[k]`` are tuple k's
    float cosine sum and weighted sine-square sum sum_i sin^2(pi n_i/q_i)/q_i
    (q_i = l_i + 1); ``cos_ids[k]`` and ``sine_ids[k]`` number their exact
    values, so two tuples share an id exactly when the sums are equal.
    """

    lengths: tuple[int, ...]
    tuples: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    cos: np.ndarray
    sine: np.ndarray
    cos_ids: tuple[int, ...]
    sine_ids: tuple[int, ...]

    def classify(self, n: tuple[int, ...], m: tuple[int, ...]) -> str:
        """``classify_pair`` of two valid mode tuples of this geometry."""
        i, j = self.index[n], self.index[m]
        if self.cos_ids[i] != self.cos_ids[j]:
            return COS_SEPARATED
        if self.sine_ids[i] != self.sine_ids[j]:
            return SINE_SEPARATED
        if not self._reflects(n, m):
            raise AssertionError(
                f"labels {n} and {m} share both sums but are not reflections of each other"
            )
        return SAME_CLUSTER

    def classes(self, first: np.ndarray, second: np.ndarray) -> list[str]:
        """``classify`` of every pair (tuples[first[k]], tuples[second[k]]).

        The classes are read off the id arrays; only the pairs that share both
        sums go through ``classify``, which asserts that they are reflections.
        """
        cos_ids, sine_ids = np.asarray(self.cos_ids), np.asarray(self.sine_ids)
        kind = np.where(
            cos_ids[first] != cos_ids[second],
            0,
            np.where(sine_ids[first] != sine_ids[second], 1, 2),
        )
        for k in np.flatnonzero(kind == 2).tolist():
            self.classify(self.tuples[first[k]], self.tuples[second[k]])
        return np.array(_CLASSES, dtype=object)[kind].tolist()

    def _reflects(self, n: tuple[int, ...], m: tuple[int, ...]) -> bool:
        return all(mi in (ni, l + 1 - ni) for mi, ni, l in zip(m, n, self.lengths))

    def permuted_tie(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The first pair, in all_mode_tuples pair order, that ``classify`` rejects."""
        groups: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for t, key in zip(self.tuples, zip(self.cos_ids, self.sine_ids)):
            groups.setdefault(key, []).append(t)
        pairs = (p for g in groups.values() for p in itertools.combinations(g, 2))
        ties = [p for p in pairs if not self._reflects(*p)]
        return min(ties, key=lambda p: (self.index[p[0]], self.index[p[1]]), default=None)


@functools.lru_cache(maxsize=64)
def class_table(lengths: tuple[int, ...]) -> ClassTable:
    """The ClassTable of ``lengths``, built once per geometry.

    With A the lcm of the q_i = l_i + 1, 2cos(pi n/q_i) is the cos_rows row
    of exponent n A/q_i in Z[zeta_2A], so a tuple's cosine sum is the sum of
    its coordinates' rows.  4A sin^2(pi n/q)/q = (A/q)(2 - 2cos(2 pi n/q)),
    and the constants are the same for every tuple, so the rows of exponent
    2n A/q_i weighted by A/q_i number the sine sums.  Past the modulus cap
    (2A > MODULUS_CAP) the float sums are numbered by ``_float_ids``.
    Building the table raises nothing for permuted ties; ``classify`` does.
    """
    tuples = tuple(all_mode_tuples(lengths))
    cos = _over_tuples([[cos_pi_frac(n, l + 1) for n in range(1, l + 1)] for l in lengths])
    sine = _over_tuples(
        [[sin_pi_frac(n, l + 1) ** 2 / (l + 1) for n in range(1, l + 1)] for l in lengths]
    )
    ambient = math.lcm(*[l + 1 for l in lengths])
    if 2 * ambient > MODULUS_CAP:
        cos_ids, sine_ids = _float_ids(cos), _float_ids(sine)
    else:
        steps = [ambient // (l + 1) for l in lengths]
        exponents = [
            j * n * step for j in (1, 2) for l, step in zip(lengths, steps) for n in range(1, l + 1)
        ]
        rows = np.split(cos_rows(exponents, 2 * ambient), np.cumsum(lengths * 2)[:-1])
        d = len(lengths)
        cos_ids = _exact_ids(rows[:d])
        sine_ids = _exact_ids([step * row for step, row in zip(steps, rows[d:])])
    for values in (cos, sine):
        values.flags.writeable = False
    return ClassTable(
        lengths=lengths,
        tuples=tuples,
        index={t: k for k, t in enumerate(tuples)},
        cos=cos,
        sine=sine,
        cos_ids=tuple(cos_ids.tolist()),
        sine_ids=tuple(sine_ids.tolist()),
    )


def classify_pair(n, m, lengths) -> str:
    """cos_separated / sine_separated / same_cluster for a label pair.

    Reads the class ids of the geometry's ``class_table``.  same_cluster
    additionally asserts the reflection structure: every coordinate of m must
    be n_i or its mirror l_i+1-n_i.  The assertion marks the boundary of this
    three-way classification: when two coordinates share a length, permuted
    labels such as (1,2)/(2,1) at lengths (3,3) tie both displayed sums
    without being reflections — such pairs are separated only at the
    designed-potential order, and tripping the assertion (rather than
    silently labeling them same_cluster) is deliberate.
    """
    lengths = tuple(int(l) for l in lengths)
    n = tuple(int(x) for x in n)
    m = tuple(int(x) for x in m)
    _check_modes(lengths, n)
    _check_modes(lengths, m)
    return class_table(lengths).classify(n, m)


def flip_partners(modes, lengths) -> set[tuple[int, ...]]:
    """All reflections m with m_i in {n_i, l_i+1-n_i}; at most 2^d labels.

    A test oracle: the tests check same-cluster pairs against it.
    """
    partners = [()]
    for n, l in zip(modes, lengths):
        options = {n, l + 1 - n}
        partners = [p + (o,) for p in partners for o in sorted(options)]
    return set(partners)


def min_nonzero_gaps(lengths) -> tuple[float | None, float | None]:
    """Smallest nonzero spread of cosine sums (c) and weighted sine sums (s).

    Walks every mode tuple's sum in ascending order, keeps the first sum of
    each class of the geometry's ``class_table``, and takes the minimal
    adjacent difference of those values.  None when all values agree.
    """
    table = class_table(tuple(int(l) for l in lengths))

    def spread(values: np.ndarray, ids: tuple[int, ...]) -> float | None:
        order = np.argsort(values, kind="stable")
        _, first = np.unique(np.asarray(ids)[order], return_index=True)
        if first.size == 1:
            return None
        return float(np.diff(values[order[np.sort(first)]]).min())

    return spread(table.cos, table.cos_ids), spread(table.sine, table.sine_ids)


def degeneracy_tolerance(values) -> float:
    """tau = DEGENERACY_TOL * max(1, spectral diameter) — the clustering resolution."""
    values = np.asarray(values, dtype=np.float64)
    diameter = float(values.max() - values.min()) if values.size > 1 else 0.0
    return DEGENERACY_TOL * max(1.0, diameter)


def cluster_indices(values, tau: float) -> list[list[int]]:
    """Group sorted-by-value indices whose adjacent gaps are <= tau.

    The walk reads Python floats (``tolist``), whose differences are the
    numpy scalars' bit for bit, at a fraction of their per-item cost.
    """
    order = np.argsort(values, kind="stable").tolist()
    floats = np.asarray(values).tolist()
    groups: list[list[int]] = [[order[0]]] if order else []
    for prev, cur in zip(order, order[1:]):
        if floats[cur] - floats[prev] <= tau:
            groups[-1].append(cur)
        else:
            groups.append([cur])
    return groups


def verify_gaps(spectrum, lengths, r: float) -> list[GapReport]:
    """Measure every label-pair gap against its class threshold.

    ``spectrum`` maps each mode tuple to its eigenvalue, as
    ``mode_resolved_spectrum`` returns it, so every gap is taken between two
    labelled values and no assignment is guessed.  Pairs (a, b) run over the
    tuples in ascending eigenvalue order (ties in all_mode_tuples order), in
    ``itertools.combinations`` order.
    cos_separated pairs must open at least 2*c*r^2*(1-GAP_MARGIN),
    sine_separated at least 4*s*r*(1-GAP_MARGIN); same_cluster pairs are
    reported with their raw gaps and never asserted.
    """
    lengths = tuple(int(l) for l in lengths)
    c_min, s_min = min_nonzero_gaps(lengths)
    # a class has no threshold only when all of its sums agree, and then
    # classify never returns it
    required: dict[str, float | None] = {SAME_CLUSTER: None}
    if c_min is not None:
        required[COS_SEPARATED] = 2.0 * c_min * r**2 * (1.0 - GAP_MARGIN)
    if s_min is not None:
        required[SINE_SEPARATED] = 4.0 * s_min * r * (1.0 - GAP_MARGIN)
    table = class_table(lengths)
    values = np.array([spectrum[t] for t in table.tuples])
    order = np.argsort(values, kind="stable")
    earlier, later = np.triu_indices(order.size, 1)
    first, second = order[earlier], order[later]
    gaps = np.abs(values[first] - values[second]).tolist()
    pairs = zip(first.tolist(), second.tolist(), table.classes(first, second), gaps)
    return [
        GapReport(
            pair=(table.tuples[i], table.tuples[j]), gap_class=kind, gap=gap, required=required[kind]
        )
        for i, j, kind, gap in pairs
    ]


def admissibility(lengths) -> AdmissibilityReport:
    """Simplicity / multiplicity-bound classification of the side lengths.

    With s = #{l_i > 1}: simple when s <= 1; when s = 2 and the two values of
    l_i+1 are coprime; or when s > 2, the l_i+1 are pairwise coprime and none
    is divisible by 2 or 3.  Otherwise the cluster-size bound 2^s - s applies.
    """
    lengths = tuple(int(l) for l in lengths)
    if any(l < 1 for l in lengths):
        raise ValueError(f"lengths must be >= 1, got {lengths}")
    active = [l + 1 for l in lengths if l > 1]
    s = len(active)
    reasons: list[str] = []
    if s <= 1:
        simple = True
        reasons.append(f"only {s} side(s) exceed 1: spectrum has no room for cluster collisions")
    elif s == 2:
        g = math.gcd(active[0], active[1])
        simple = g == 1
        reasons.append(
            f"gcd({active[0]},{active[1]}) = {g}" + (" (coprime)" if simple else " (shared factor)")
        )
    else:
        coprime = all(
            math.gcd(active[i], active[j]) == 1
            for i in range(s)
            for j in range(i + 1, s)
        )
        clean = all(q % 2 != 0 and q % 3 != 0 for q in active)
        simple = coprime and clean
        if not coprime:
            reasons.append("the values l_i+1 are not pairwise coprime")
        if not clean:
            offenders = [q for q in active if q % 2 == 0 or q % 3 == 0]
            reasons.append(f"values divisible by 2 or 3: {offenders}")
        if simple:
            reasons.append(f"{active} pairwise coprime and free of factors 2 and 3")
    bound = 1 if simple else 2**s - s
    return AdmissibilityReport(
        lengths=lengths, s=s, simple=simple, bound=bound, reasons=tuple(reasons)
    )


def mode_resolved_spectrum(lengths, omega_pairs, lams, r: float) -> dict[tuple[int, ...], float]:
    """Exact Kronecker-sum eigenvalue of A_r for every mode tuple.

    The one labelled spectrum of the truncation: the cluster gaps and the
    gap-growth fits are both measured on it.  Each factor's spectrum is
    computed by the tridiagonal reference solver and attached to its mode
    index through the descending-cosine order; MatchingError is raised when
    two adjacent factor predictions sit within 4r, where that order is not
    safe.  Tuple eigenvalues are the sums of their factors' eigenvalues, so
    the tiny same-cluster splittings stay far above dense-solver noise.
    """
    lengths = tuple(int(l) for l in lengths)
    by_mode = []
    for spec in factor_specs(lengths, omega_pairs, lams, r):
        predicted = [predicted_eigenvalue(spec, n, "r1") for n in range(1, spec.l + 1)]
        order = np.argsort(predicted)  # ascending predicted -> ascending exact
        if np.any(np.diff(np.sort(predicted)) < 4.0 * r):
            # adjacent factor modes closer than the r^1 scale: ordering unsafe
            raise MatchingError(f"factor modes too close to order at r={r}")
        values = np.empty(spec.l)
        values[order] = exact_spectrum(spec)
        by_mode.append(values)
    return dict(zip(all_mode_tuples(lengths), _over_tuples(by_mode).tolist()))


def displayed_gap_constant(lengths) -> float:
    """The literal gap constant 10 d^3 max_i (l_i+1)^3 from the source bound.

    The corresponding boost magnitudes need delta ~ 1/(100 d^3 max^3) and an r
    beyond double range, so runtime checks use margin-scaled thresholds
    instead; this constant feeds the exact-rational demo script only.
    """
    d = len(lengths)
    return 10.0 * d**3 * max(l + 1 for l in lengths) ** 3


def third_order_bound(lengths) -> float:
    """Bound 20 d^3 max_i (l_i+1)^3 on the undisplayed residual term."""
    d = len(lengths)
    return 20.0 * d**3 * max(l + 1 for l in lengths) ** 3
