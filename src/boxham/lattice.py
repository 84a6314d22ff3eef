"""Finite-volume geometry and operators for box-constant disorder.

The volume is a block of rectangular boxes on Z^d.  Box ``n`` (a tuple of
integers) holds the sites ``{x : n_i*l_i < x_i <= (n_i+1)*l_i}``; the disorder
potential is constant on each box.  This module builds the partition, the
nearest-neighbour Laplacian with Dirichlet truncation, box projections, the
Hamiltonian ``H = Laplacian + sum_n omega_n P_n + sum_i lambda_i P_{e_i}``,
and the face products ``P_0 L P_n L P_0`` that later modules rely on.

Sites are ordered lexicographically with coordinate 1 outermost, so every
operator is assembled from per-axis factors by Kronecker products instead of
site by site: the Laplacian is the Kronecker sum of path-graph adjacencies,
a box mask is the Kronecker product of per-axis interval indicators, and the
potential is the omega grid repeated l_i times along axis i.  The Laplacian is
built once per partition and cached on it, read-only.  ``laplacian_into``
applies the same Kronecker sum to columns on the ghost-padded layout below
without forming the n x n matrix; the origin-box coupling (box-0 block and
Delta_00) is cached per partition too, and so is B^T = (I-P0) L P0 in its
sublattice packing (two columns of opposite parity per column, with the
tables that unpack B X).

The stencil has one layout, a flat ghost-padded one, and its callers (the
series walk, the Krylov rank check, the packing of B^T) keep their columns
on it from the first step to the last.  The site grid gets one ghost layer
at the end of every axis after the first, and is stored in C order as a
``(padded sites, columns)`` array.  The +-e_i neighbours of every site are
then the whole array shifted by axis i's stride, one contiguous slice per
shift, so applying L costs 2d contiguous adds over the padded array whatever
the axis.  A site on the low or high face of axis i finds a ghost there (or,
on axis 1, the end of the array), so the ghosts must hold zeros when read;
the sums written into them are junk.

All structural objects are integer matrices so identity checks are exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompleteSampleError, VolumeError
from .tridiag import path_adjacency

# Largest site count whose dense float64 matrix fits in 1 GiB: n^2 * 8 <= 2^30.
# Guards the dense routes: the q > 1/2 complement LU, the partition survey's
# identities, the tests' oracles; the stencil routes hold O(n * |box 0|).
DEFAULT_SITE_CAP = int((2**30 // 8) ** 0.5)
DEFAULT_RADIUS_CAP = 4


@dataclass(frozen=True)
class BoxPartition:
    """Geometry container: dimension, box side lengths, truncation radius.

    Boxes ``n`` with ``max_i |n_i| <= radius`` are materialized.  Sites are
    ordered lexicographically, and the ordering is part of the contract
    (reproducible matrices, reproducible tensor-factor ordering).
    """

    d: int
    lengths: tuple[int, ...]
    radius: int

    @property
    def boxes(self) -> list[tuple[int, ...]]:
        rng = range(-self.radius, self.radius + 1)
        return [n for n in itertools.product(rng, repeat=self.d)]

    @property
    def axis_sizes(self) -> list[int]:
        """Sites along each axis: (2*radius + 1) * l_i."""
        return [(2 * self.radius + 1) * l for l in self.lengths]

    @property
    def sites(self) -> tuple[tuple[int, ...], ...]:
        """Every site, in lexicographic order (enumerated on each access).

        An ordering oracle: the tests check the site order of the Laplacian,
        the Hamiltonian and the box masks against it.
        """
        axes = [range(-self.radius * l + 1, (self.radius + 1) * l + 1) for l in self.lengths]
        return tuple(itertools.product(*axes))

    @property
    def n_sites(self) -> int:
        count = 1
        for size in self.axis_sizes:
            count *= size
        return count

    @functools.cached_property
    def laplacian(self) -> np.ndarray:
        """The Laplacian entries, built on first use and shared read-only."""
        lap = build_laplacian(self).entries
        lap.setflags(write=False)
        return lap

    @functools.cached_property
    def origin_coupling(self) -> tuple[tuple[slice, ...], np.ndarray]:
        """(block, Delta_00) of box 0, built on first use and shared read-only.

        ``block`` holds the grid slices of box 0; Delta_00 = P0 L P0 is the
        float Kronecker sum of the path graphs on box 0.  Neither needs the
        dense Laplacian.
        """
        block = tuple(slice(self.radius * l, (self.radius + 1) * l) for l in self.lengths)
        delta00 = kronecker_sum([path_adjacency(l) for l in self.lengths]).astype(np.float64)
        delta00.setflags(write=False)
        return block, delta00

    @functools.cached_property
    def sublattice_packing(self) -> SublatticePacking:
        """B^T = (I-P0) L P0 packed by sublattice with its unpacking tables.

        Built on first use and shared read-only; see ``SublatticePacking``
        for the layout.  Packed column c is the stencil applied to the unit
        columns of the c-th even and the c-th odd box-0 site together, with
        box 0 and the ghosts cleared: no site neighbours both, so every entry
        is 0 or 1 and equals the sum of the two unpacked columns exactly.
        """
        block, _ = self.origin_coupling
        grid = padded, real, strides = ghost_grid(self.axis_sizes)
        size = math.prod(self.lengths)
        coords = np.indices(self.lengths).reshape(self.d, size)
        parity = coords.sum(axis=0) % 2
        even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
        column = np.empty(size, dtype=np.intp)
        column[even], column[odd] = np.arange(even.size), np.arange(odd.size)
        # flat padded index of every box-0 site; a direction is left out when
        # its neighbours of box 0 fall off the grid, which only radius 0 does
        origin = np.array([s.start for s in block])[:, None]
        sites = np.array(strides) @ (coords + origin)
        units = np.zeros((math.prod(padded), even.size))
        units[sites, column] = 1.0
        packed = laplacian_into(np.empty_like(units), units, strides)
        cleared = np.ones(padded, dtype=bool)
        cleared[real] = False
        cleared[block] = True
        packed[cleared.ravel()] = 0.0
        neighbours = [
            sites + step * stride
            for s, n, stride in zip(block, self.axis_sizes, strides)
            for step in (-1, 1)
            if 0 <= s.start + step and s.stop + step <= n
        ]
        neighbours = np.array(neighbours, dtype=np.intp).reshape(-1, size)
        plane = parity[:, None] != parity[None, :]
        pick = (plane * size + np.arange(size)[:, None]) * even.size + column
        for a in (packed, neighbours, pick):
            a.setflags(write=False)
        # the series walk on booleans: a term reaches the open neighbours of
        # the last one, and terms of even and odd k gather apart
        opened = ~cleared.ravel()[:, None]
        term = packed != 0
        reached = [term, np.zeros_like(term)]
        support = [np.count_nonzero(term)]
        while len(support) < 3 or support[-1] != support[-3]:
            spread = laplacian_into(np.empty_like(units), term.astype(np.float64), strides)
            term = (spread != 0) & opened
            reached[len(support) % 2] |= term
            support.append(np.count_nonzero(reached[0]) + np.count_nonzero(reached[1]))
        return SublatticePacking(
            grid=grid, bt=packed, neighbours=neighbours, pick=pick, reach=len(support) - 1
        )

    def box_of(self, site: tuple[int, ...]) -> tuple[int, ...]:
        """Box index of a site: n_i = floor((x_i - 1) / l_i).

        A test oracle: the tests check ``box_sites``, the box masks and the
        Hamiltonian's diagonal against it.
        """
        return tuple((x - 1) // l for x, l in zip(site, self.lengths))


@dataclass(frozen=True)
class SublatticePacking:
    """B^T of box 0 at half its columns, and the tables that unpack B X.

    Z^d is bipartite.  Column j of B^T lives on the sublattice opposite box-0
    site j, and every stencil step moves a column to the other sublattice, so
    an even-parity column and an odd-parity one have disjoint supports after
    any number of steps.  ``bt`` therefore holds the c-th even and the c-th
    odd box-0 site's columns (lexicographic order within each parity) summed
    in column c; an odd |box 0| leaves the last even column unpaired.  It is
    laid out as ``(padded sites, columns)`` on ``grid``, the
    ``ghost_grid(axis_sizes)`` triple (padded shape, real sites, strides).

    ``neighbours[t, i]`` is the flat padded index of box-0 site i's neighbour
    in direction t, in the stencil's order -e_1, +e_1, -e_2, ...; directions
    off the grid (radius 0) are left out.  ``pick[i, j]`` is the flat index
    of B X[i, j] in neighbour sums of shape ``(2, |box 0|, columns)``: plane
    0, the even-k terms of the series, when sites i and j have the same
    parity and plane 1, the odd-k terms, otherwise; row i; site j's column.

    ``reach`` is the first k >= 2 at which the support of the series walk,
    the sites where its even-k or its odd-k partial sum is nonzero, is no
    larger than at k - 2.  It is found by the walk's own recurrence on
    booleans from ``bt != 0``, with box 0 and the ghosts kept closed, so
    it is a fact of the geometry, the same for every cell of the partition:
    1/D is nonzero off box 0, and only an entry that cancels to exactly 0
    could make one cell's measured support differ.  From that step on the
    support grows no more, and every site the walk can reach has been
    reached (18 at d=3, l=(2,2,2) and 19 at l=(2,4), radius 2).
    """

    grid: tuple[tuple[int, ...], tuple[slice, ...], tuple[int, ...]]
    bt: np.ndarray
    neighbours: np.ndarray
    pick: np.ndarray
    reach: int


@dataclass(frozen=True)
class DisorderSample:
    """One realization of the box potential.

    ``values`` maps every materialized box index to its omega; ``distribution``
    records the (lower, upper) bounds of the uniform law it was drawn from.
    """

    values: dict[tuple[int, ...], float]
    distribution: tuple[float, float]
    seed: int


@dataclass(frozen=True)
class LatticeOperator:
    """A real symmetric matrix over a partition's sites; a test oracle and a traced name."""

    entries: np.ndarray
    partition: BoxPartition = field(repr=False)


_last_partition: BoxPartition | None = None


def build_partition(
    d: int,
    lengths: list[int] | tuple[int, ...],
    radius: int,
) -> BoxPartition:
    """Materialize the boxes with all |n_i| <= radius.

    Raises VolumeError when the total site count Prod(l_i) * (2*radius+1)^d
    exceeds DEFAULT_SITE_CAP (the error names the offending count and the
    bytes one dense float64 matrix on it would take), or when the radius
    exceeds the desk-scale DEFAULT_RADIUS_CAP.  The site cap guards the dense
    routes: the q > 1/2 complement LU, the partition survey's identities and
    the tests' oracles; the stencil routes hold O(n * |box 0|).

    Asked for the geometry of its last call again, it returns the same
    partition, so a process builds a geometry's cached origin coupling,
    sublattice packing and dense Laplacian once, not once per job.  Only
    the last geometry is kept: a call for another one releases it.  What a
    partition caches depends on (d, lengths, radius) alone and is
    read-only, so callers cannot see each other through it.
    """
    global _last_partition
    lengths = tuple(int(l) for l in lengths)
    if d < 1 or len(lengths) != d or any(l < 1 for l in lengths):
        raise VolumeError(f"need d >= 1 and {d} lengths >= 1, got lengths={lengths}")
    if radius < 0:
        raise VolumeError(f"radius must be nonnegative, got {radius}")
    if radius > DEFAULT_RADIUS_CAP:
        raise VolumeError(f"radius {radius} exceeds cap {DEFAULT_RADIUS_CAP}")
    partition = BoxPartition(d=d, lengths=lengths, radius=radius)
    count = partition.n_sites
    if count > DEFAULT_SITE_CAP:
        raise VolumeError(
            f"volume of {count} sites exceeds cap {DEFAULT_SITE_CAP}: one dense float64 "
            f"matrix on it needs {8 * count**2} bytes"
        )
    if partition != _last_partition:
        _last_partition = partition
    return _last_partition


def kronecker_sum(factors: list[np.ndarray]) -> np.ndarray:
    """sum_i I x ... x F_i x ... x I, with factor 1 outermost (lexicographic order)."""
    sizes = [f.shape[0] for f in factors]
    total = np.zeros((int(np.prod(sizes)),) * 2, dtype=np.result_type(*factors))
    for i, f in enumerate(factors):
        left, right = int(np.prod(sizes[:i])), int(np.prod(sizes[i + 1 :]))
        blocks = total.reshape(left, sizes[i], right, left, sizes[i], right)
        # I_left x F x I_right is F on the entries with a == a' and c == c';
        # einsum returns that diagonal as a writable view, so no n x n term
        # is ever materialized.
        np.einsum("apcaqc->apqc", blocks)[...] += f[:, :, None]
    return total


def ghost_grid(sizes) -> tuple[tuple[int, ...], tuple[slice, ...], tuple[int, ...]]:
    """(padded shape, real sites, flat strides) of a site grid with ghost layers.

    One ghost layer ends every axis but the first: stepping off either end of
    axis 1 steps off the flat array, which the shifted slices skip.  The real
    sites are the leading ``sizes`` block of the padded grid; the strides
    count padded sites.
    """
    padded = (sizes[0], *(n + 1 for n in sizes[1:]))
    strides = [math.prod(padded[a + 1 :]) for a in range(len(padded))]
    return padded, tuple(map(slice, sizes)), tuple(strides)


def laplacian_into(out: np.ndarray, x: np.ndarray, strides: tuple[int, ...]) -> np.ndarray:
    """out = L x on the flat ghost-padded layout; x must be zero on the ghosts.

    x and out are ``(..., padded sites, columns)``: leading axes index
    independent stacks, and every shift is a slice of axis -2, contiguous
    within each stack.  Each site sums its neighbours in the order -e_1, +e_1, -e_2, +e_2, ...,
    starting from ``0 + first`` as a zero-filled sum would, so a -0.0 never
    survives into the sum and the zeros read from ghosts add nothing: the
    result is bit for bit the shifted-slice sum on the unpadded grid.  The
    ghost rows of ``out`` receive junk.
    """
    s = strides[0]
    out[..., :s, :] = 0
    np.add(x[..., :-s, :], 0, out=out[..., s:, :])
    out[..., :-s, :] += x[..., s:, :]
    for s in strides[1:]:
        out[..., s:, :] += x[..., :-s, :]
        out[..., :-s, :] += x[..., s:, :]
    return out


def _check_box(partition: BoxPartition, n: tuple[int, ...]) -> None:
    if len(n) != partition.d or any(abs(ni) > partition.radius for ni in n):
        raise VolumeError(f"box {n} outside radius {partition.radius}")


def box_sites(partition: BoxPartition, n: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sites of box n, sorted lexicographically."""
    _check_box(partition, n)
    axes = [range(ni * l + 1, (ni + 1) * l + 1) for ni, l in zip(n, partition.lengths)]
    return list(itertools.product(*axes))


def box_mask(partition: BoxPartition, n: tuple[int, ...]) -> np.ndarray:
    """Boolean site mask of box n (the diagonal of the projection P_n).

    The Kronecker product of the per-axis interval indicators, set as one block
    of the site grid and flattened in lexicographic order.
    """
    _check_box(partition, n)
    mask = np.zeros(partition.axis_sizes, dtype=bool)
    start = [(ni + partition.radius) * l for ni, l in zip(n, partition.lengths)]
    mask[tuple(slice(s, s + l) for s, l in zip(start, partition.lengths))] = True
    return mask.ravel()


def build_laplacian(partition: BoxPartition) -> LatticeOperator:
    """Nearest-neighbour 0/1 adjacency with Dirichlet truncation.

    The Kronecker sum of the path adjacencies along each axis: edges leaving
    the truncated volume are dropped, and the matrix is integer and exactly
    symmetric.  Builds a fresh matrix on every call; ``partition.laplacian``
    is the cached copy the other operators share.
    """
    factors = [path_adjacency(size) for size in partition.axis_sizes]
    return LatticeOperator(entries=kronecker_sum(factors), partition=partition)


def _box_potential(
    partition: BoxPartition,
    disorder: DisorderSample,
    boosts: dict[int, float] | None = None,
) -> np.ndarray:
    """Per-site diagonal omega_{box(x)}, plus lambda_i on the unit box e_i.

    ``_box_potentials`` on a stack of one cell.
    """
    return _box_potentials(partition, [(disorder, boosts)])[0]


def _box_potentials(
    partition: BoxPartition,
    cells: Sequence[tuple[DisorderSample, dict[int, float] | None]],
) -> np.ndarray:
    """``_box_potential`` of every (disorder, boosts) cell, ``(cells, n_sites)``.

    Reads every cell's box values at once, checks each boost direction once
    for the stack, adds each cell's boosts on its own row and repeats each
    axis once for the whole stack, so every row is bit for bit the cell's
    own.  A cell that lacks a box raises IncompleteSampleError, and a boost
    direction outside 1..d raises VolumeError.
    """
    # partition.boxes is lexicographic, the C order of the box grid
    boxes = partition.boxes
    try:
        values = [disorder.values[n] for disorder, _ in cells for n in boxes]
    except KeyError as exc:
        raise IncompleteSampleError(f"disorder sample has no value for box {exc.args[0]}") from None
    side = (2 * partition.radius + 1,) * partition.d
    grid = np.array(values, dtype=np.float64).reshape((len(cells),) + side)
    units: dict[int, tuple[int, ...]] = {}
    for c, (_, boosts) in enumerate(cells):
        for direction, lam in (boosts or {}).items():
            if direction not in units:
                if not 1 <= direction <= partition.d:
                    raise VolumeError(f"boost direction {direction} outside 1..{partition.d}")
                e = tuple(1 if k == direction - 1 else 0 for k in range(partition.d))
                _check_box(partition, e)
                units[direction] = tuple(partition.radius + ek for ek in e)
            grid[(c,) + units[direction]] += lam
    for axis, l in enumerate(partition.lengths, start=1):
        grid = np.repeat(grid, l, axis=axis)
    return grid.reshape(len(cells), -1)


def build_hamiltonian(
    partition: BoxPartition,
    disorder: DisorderSample,
    boosts: dict[int, float] | None = None,
) -> LatticeOperator:
    """H = Laplacian + sum_n omega_n P_n + sum_i lambda_i P_{e_i}.

    ``boosts`` maps coordinate directions 1..d to an extra coupling added on
    the unit box e_i.  The diagonal at site x is omega_{box(x)} plus the boost
    when box(x) is a boosted unit box.  A test oracle and a traced name; no
    driver builds H.
    """
    h = partition.laplacian.astype(np.float64)
    h[np.diag_indices_from(h)] += _box_potential(partition, disorder, boosts)
    return LatticeOperator(entries=h, partition=partition)


def zero_disorder(partition: BoxPartition) -> DisorderSample:
    """The omega == 0 sample.

    A test oracle: with no disorder the Hamiltonian is the bare Laplacian, so
    the tests know its truncations in closed form.
    """
    return DisorderSample(
        values={n: 0.0 for n in partition.boxes}, distribution=(0.0, 0.0), seed=0
    )


def face_product(
    partition: BoxPartition, direction: int
) -> tuple[np.ndarray, np.ndarray]:
    """The triple product P_0 L P_n L P_0 for the unit box n = sign(direction)*e_|direction|.

    ``direction`` is +-(1..d).  Returns the computed product restricted to the
    rows/columns of box 0 alongside the 0/1 diagonal indicator of the face
    {x in box 0 : x_i = l_i} (for +e_i) or {x in box 0 : x_i = 1} (for -e_i);
    the caller asserts their equality.  Both matrices are integer.
    """
    if direction == 0 or abs(direction) > partition.d:
        raise VolumeError(f"direction must be +-(1..{partition.d}), got {direction}")
    if partition.radius < 1:
        raise VolumeError("face products need radius >= 1")
    axis = abs(direction) - 1
    sign = 1 if direction > 0 else -1
    n = tuple(sign if k == axis else 0 for k in range(partition.d))

    lap = partition.laplacian
    m0 = box_mask(partition, (0,) * partition.d)
    mn = box_mask(partition, n)
    product = lap[np.ix_(m0, mn)] @ lap[np.ix_(mn, m0)]

    face = np.zeros(partition.lengths, dtype=np.int64)
    face[(slice(None),) * axis + (-1 if sign > 0 else 0,)] = 1
    return product, np.diag(face.ravel())


def neighbor_sum_identity(partition: BoxPartition) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of  P_0 L (I - P_0) L P_0 = sum_{|n|_1 = 1} P_0 L P_n L P_0.

    Returned as integer matrices restricted to box 0; equality is exact for
    radius >= 1 because the Laplacian only couples adjacent boxes.  The left
    side sums over the complement sites that box 0 touches: every other column
    of L[box 0, :] is zero.
    """
    lap = partition.laplacian
    m0 = box_mask(partition, (0,) * partition.d)
    comp = ~m0 & lap[m0].any(axis=0)
    lhs = lap[np.ix_(m0, comp)] @ lap[np.ix_(comp, m0)]
    rhs = np.zeros_like(lhs)
    for axis in range(partition.d):
        for sign in (+1, -1):
            n = tuple(sign if k == axis else 0 for k in range(partition.d))
            mn = box_mask(partition, n)
            rhs += lap[np.ix_(m0, mn)] @ lap[np.ix_(mn, m0)]
    return lhs, rhs


def partition_of_unity_holds(partition: BoxPartition) -> bool:
    """Exact check that the box masks tile the volume: sum_n P_n = I."""
    total = np.zeros(partition.n_sites, dtype=np.int64)
    for n in partition.boxes:
        total += box_mask(partition, n).astype(np.int64)
    return bool(np.all(total == 1))
