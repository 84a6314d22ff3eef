"""Restricted resolvents, the Schur reduction, and the 1/r series truncation.

For a spectral parameter z away from the spectrum, G_pq(z) = P_p (H-z)^{-1} P_q
is computed by dense factorization with one step of iterative refinement.  The
origin block admits a Schur reduction: with the origin box decoupled from its
complement, G_00(z)^{-1} = H_z + (omega_0 - z) I where

    H_z = P0 L P0 - P0 L (I-P0) (H~ - z)^{-1} (I-P0) L P0

and H~ carries the complement dynamics.  ``schur_reduced`` solves the
complement by the series itself: H~_cc - r = D + L_cc with D = diag(V_cc - r)
the potential minus r, and when q = 2d max|1/D| <= 1/2 the sum
(D + L_cc)^{-1} = sum_k (-D^{-1} L_cc)^k D^{-1} runs on the lattice stencil
of the partition, with an a-priori tail bound that decides where it stops.
Each term moves every column of B^T to the other sublattice of the
bipartite lattice, so the walk packs two columns of opposite sublattice into
one, keeps the even-k and odd-k terms in two accumulators and unpacks B X
from them, bit for bit the unpacked sum.  ``schur_reduced_walks`` reduces
the series cells of many disorder samples at one r together, as one stack
laid out site-major, every cell's packed columns side by side; each cell
stops at the term its lone walk would stop at, so its bits are those of
that walk, and then leaves the walk.  No cell stops before the geometry's
reach step, the term at which the walk's support stops growing, which the
packing computes once; from it on, each cell's stop is its own a-priori
tail bound.  It leaves the other cells out.
``schur_reduced`` reduces one cell: by the walk on a stack of one, or, for
larger q, by the refined dense LU of the complement.

Expanding (H~ - r)^{-1} in powers of 1/r turns r^2 * H_r into a
boundary-perturbed lattice operator

    A_r = r^2 P0 L P0 + r P0 L (I-P0) L P0
          + sum_{|n|_1 = 1} omega_n P0 L P_n L P0 + sum_i lambda_i P0 L P_{e_i} L P0

plus the third-order face product and an O(1/r) remainder.  A_r splits as a
Kronecker sum of tridiagonal factors, which is what makes its spectrum
tractable coordinate by coordinate.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionWarning, SpectralProximityError, VolumeError
from .lattice import (
    BoxPartition,
    LatticeOperator,
    SublatticePacking,
    _box_potential,
    _box_potentials,
    box_mask,
    kronecker_sum,
    laplacian_into,
)
from .tridiag import boundary_matrix, factor_specs

SOLVER_TOL = 1e-10
PROXIMITY_FLOOR = 1e-6


@dataclass(frozen=True)
class RestrictedResolvent:
    """One block G_pq(z) of the resolvent (rows on box p, columns on box q); a test oracle."""

    p: tuple[int, ...]
    q: tuple[int, ...]
    z: float
    block: np.ndarray


@dataclass(frozen=True)
class SchurReduced:
    """The reduced origin-block operator H_r, with omega_0 kept separate.

    Eigenvalues nu of ``matrix`` are in bijection with eigenvalues
    mu = 1/(nu + omega_0 - r) of G_00(r), multiplicities included.
    """

    r: float
    matrix: np.ndarray
    omega0: float

    def mu_values(self) -> np.ndarray:
        """Sorted eigenvalues of G_00(r) implied by the reduction.

        ``harness.constancy_scan`` reads G_00's spectrum from it; the tests
        compare it with the directly solved resolvent block.
        """
        nu = np.linalg.eigvalsh(self.matrix)
        return np.sort(1.0 / (nu + self.omega0 - self.r))


def _solve_refined(m: np.ndarray, rhs: np.ndarray, z_scale: float):
    """Dense LU solve with one refinement pass and per-column residual checks.

    ``numpy.linalg.solve`` runs twice, once for the solve and once for the
    refinement step, each with its own LU factorization; an exactly singular
    ``m`` (a zero pivot) raises SpectralProximityError with residual 0.0.
    Non-finite entries raise ValueError up front, since NaN would pass every
    check below.

    Two inspections of the solve guard the spectral-parameter precondition:

    * the ordinary residual must stay below SOLVER_TOL * (1 + |z|) * ||x_col||
      (backward stability of the factorization);
    * the normalized vector v = x_col/||x_col|| satisfies
      ||(M) v|| = ||rhs_col||/||x_col||, which is an upper bound on the
      distance from the spectral parameter to the nearest eigenvalue whose
      eigenvector overlaps the right-hand side.  When that falls below
      PROXIMITY_FLOOR the parameter is too close to the spectrum and a
      SpectralProximityError carries the distance estimate.

    An eigenvector with no weight on the right-hand-side columns is invisible
    to the second probe; for sampled disorder that configuration has measure
    zero.
    """
    rhs = np.atleast_2d(rhs)
    if not (np.isfinite(m).all() and np.isfinite(rhs).all()):
        raise ValueError("non-finite entries in a dense solve")
    try:
        x = np.linalg.solve(m, rhs)
        x += np.linalg.solve(m, rhs - m @ x)
    except np.linalg.LinAlgError as exc:
        raise SpectralProximityError(
            f"spectral parameter is an eigenvalue: {exc}", residual=0.0
        ) from exc
    x_norms = np.linalg.norm(x, axis=0)
    rhs_norms = np.linalg.norm(rhs, axis=0)
    live = rhs_norms > 0.0
    if np.any(live):
        dist_bound = np.full_like(rhs_norms, np.inf)
        np.divide(rhs_norms, x_norms, out=dist_bound, where=live & (x_norms > 0.0))
        nearest = float(np.min(dist_bound))
        if nearest < PROXIMITY_FLOOR:
            raise SpectralProximityError(
                "spectral parameter is within "
                f"{nearest:.3e} of an eigenvalue (floor {PROXIMITY_FLOOR:g})",
                residual=nearest,
            )
    residual = np.linalg.norm(rhs - m @ x, axis=0)
    allowance = SOLVER_TOL * (1.0 + abs(z_scale)) * x_norms
    worst = float(np.max(residual - allowance))
    if worst > 0.0:
        raise SpectralProximityError(
            "solver residual indicates the spectral parameter is too close to "
            "an eigenvalue",
            residual=float(residual.max()),
        )
    return x


def restricted_resolvent(
    h: LatticeOperator, z: float, p: tuple[int, ...], q: tuple[int, ...]
) -> RestrictedResolvent:
    """G_pq(z): solve (H - z) X = columns of P_q and keep the box-p rows.

    A dense n x n test oracle and a traced name; ``harness.constancy_scan``
    reduces G_00 through ``schur_reduced`` instead.
    """
    part = h.partition
    mask_p = box_mask(part, tuple(p))
    mask_q = box_mask(part, tuple(q))
    m = h.entries.astype(np.float64) - z * np.eye(part.n_sites)
    rhs = np.zeros((part.n_sites, int(mask_q.sum())))
    rhs[np.flatnonzero(mask_q), np.arange(rhs.shape[1])] = 1.0
    x = _solve_refined(m, rhs, z)
    return RestrictedResolvent(p=tuple(p), q=tuple(q), z=float(z), block=x[mask_p, :])


def _origin_split(
    partition: BoxPartition,
    omega: np.ndarray | None = None,
    boosts: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float blocks (Delta_00, B, H~_cc) of the operator split at the origin box.

    Delta_00 = P0 L P0 and B = P0 L (I-P0).  H~_cc is the complement block of
    the decoupled Hamiltonian H~, equal to H[comp, comp]; without an omega
    grid it is the bare Laplacian block L[comp, comp].
    """
    m0 = box_mask(partition, (0,) * partition.d)
    comp = ~m0
    lap = partition.laplacian
    hcc = lap[np.ix_(comp, comp)].astype(np.float64)
    if omega is not None:
        hcc[np.diag_indices_from(hcc)] += _box_potential(partition, omega, boosts)[comp]
    delta00 = lap[np.ix_(m0, m0)].astype(np.float64)
    b = lap[np.ix_(m0, comp)].astype(np.float64)
    return delta00, b, hcc


def _jacobi_series(
    inv_d: np.ndarray, packing: SublatticePacking, q: Sequence[float]
) -> np.ndarray:
    """B X with X = sum_k (-D^-1 L_cc)^k D^-1 B^T, the complement solve as a series.

    Walks a stack of cells at once: ``inv_d`` is 1/D per cell on the site
    grid, shape ``(cells,) + axis_sizes``, with zeros on box 0, which pins
    the box-0 rows of every term to 0 and so restricts L to L_cc; ``q``
    holds each cell's q = 2d max|1/D|, which must be below 1.  Every term
    after the k-th is bounded entrywise by max|1/D| q^(k+1), and a row of B
    has at most 2d ones, so the tail of B X is at most q^(k+2) / (1-q).  A
    cell stops at the first k >= ``packing.reach`` at which that is within
    eps/16 of its smallest nonzero entry of B X, so every entry is resolved
    and not only the largest.  The reach step is the first k >= 2 at which
    the walk's support has stopped growing, one step per sublattice of the
    bipartite lattice, so no entry the walk has yet to reach is still zero.
    It is found once per geometry from the support alone, on booleans, so
    it cannot be fooled: a rule that counted each cell's nonzero entries
    would read a shrunken support where an entry cancels to exactly 0, and
    could stop that cell before every entry had been reached.  Each cell
    keeps B X from the step at which its own rule stops it, the k its lone
    walk would stop at, and then leaves the walk: its columns are dropped
    from every buffer, so the walk steps only the cells still running.

    The walk runs on the partition's ``sublattice_packing``: two columns of
    B^T, one per parity of their box-0 site, share each packed column, since
    a term flips the sublattice of every column and so the pair never
    overlaps.  Terms of even k are summed into one accumulator and terms of
    odd k into another, each laid out site-major on the flat ghost-padded
    layout of ``lattice.ghost_grid``, ``(padded sites, cells * columns)``,
    one cell's packed columns after another.  Entry B X[i, j] sums, over
    box-0 site i's neighbours (``_neighbour_sums``), the even-k accumulator
    when sites i and j have the same parity and the odd-k one otherwise:
    there that accumulator holds exactly column j's terms.  Every add and
    multiply is per column and per cell, so every one is the one the lone
    unpacked walk does, and B X keeps its bits, signed zeros included.

    The step -1/D is broadcast to the packed shape once and is zero on box 0
    and on the ghosts, so multiplying by it both finishes a term and clears
    the junk the stencil wrote into the ghosts before the next step reads
    them.  A term costs 2d shifted adds, each one contiguous pass over the
    columns of every running cell, one multiply and one add into an
    accumulator, with no allocation but when a cell leaves.
    """
    padded, real, strides = packing.grid
    sites, columns = packing.bt.shape
    cells = len(inv_d)
    step = np.zeros(padded + (cells, columns))
    step[real] = np.moveaxis(inv_d, 0, -1)[..., None]
    step = step.reshape(sites, -1)
    term = (packing.bt[:, None] * _by_cell(step, columns)).reshape(step.shape)
    np.negative(step, out=step)
    acc = np.zeros((2,) + term.shape)
    acc[0] = term
    spare = np.empty_like(term)
    live = np.arange(cells)
    bx = np.empty((cells,) + packing.pick.shape)
    floor = np.finfo(np.float64).eps / 16.0
    k = 0
    while True:
        if k >= packing.reach:
            sums = _by_cell(_neighbour_sums(acc, packing.neighbours), columns)
            got = np.moveaxis(sums, 2, 0).reshape(live.size, -1)[:, packing.pick]
            smallest = np.min(np.abs(got), axis=(1, 2), where=got != 0.0, initial=np.inf)
            tails = np.array([q[c] ** (k + 2) / (1.0 - q[c]) for c in live])
            running = tails > floor * smallest
            bx[live[~running]] = got[~running]
            if not running.any():
                return bx
            if not running.all():
                live = live[running]
                term, step, acc = (
                    _by_cell(x, columns)[..., running, :].reshape(x.shape[:-1] + (-1,))
                    for x in (term, step, acc)
                )
                spare = np.empty_like(term)
        term, spare = laplacian_into(spare, term, strides), term
        term *= step
        k += 1
        acc[k % 2] += term


def _by_cell(x: np.ndarray, columns: int) -> np.ndarray:
    """Site-major x, ``(..., cells * columns)``, as ``(..., cells, columns)``."""
    return x.reshape(x.shape[:-1] + (-1, columns))


def _neighbour_sums(x: np.ndarray, neighbours: np.ndarray) -> np.ndarray:
    """Per box-0 site, the sum of x over its neighbours, for x zero on box 0.

    x is on the flat padded layout, ``(..., padded sites, columns)``, and the
    rows of ``neighbours`` are flat indices, one direction each.  The sum
    starts from 0 and adds the directions in order, as the stencil does.  A
    single ``np.add.reduce`` promises no order: on a C-contiguous
    ``(2, 8, 1, 1)`` array, the shape at |box 0| = 1 and d = 4, it adds the
    eight directions pairwise, which changes bits.
    """
    rows = np.zeros(x.shape[:-2] + neighbours.shape[1:] + x.shape[-1:])
    for index in neighbours:
        rows += x[..., index, :]
    return rows


WALK_BYTES = 2**19
"""Bytes one buffer of a stacked series walk may hold: the step, the term,
the spare or one accumulator, at ``padded sites * cells * packed columns``
floats.  Measured, not a knob.  On a 2-vCPU Xeon host, with the site-major
walk stopping at the reach step, the series cost per cell (median of 15
timings, range over three runs) of the d=3, l=(2,2,2), radius-2 grid
(38 720 bytes a cell) was 0.74-0.99 ms walked alone, 0.42-0.56 ms at 4 to
20 cells a walk (one reading of 0.69), 0.57-0.62 ms at 25 and 0.67-0.75 ms
at 32; on l=(2,4) (6 720 bytes a cell) it fell from 0.43-0.50 ms alone to
0.047-0.086 ms at 13 to 78 cells (the budget) and 0.060-0.066 ms at 100.
The bits of every cell do not depend on it.
"""


def schur_reduced_walks(
    partition: BoxPartition,
    cells: Sequence[tuple[np.ndarray, Sequence[float] | None]],
    r: float,
) -> Iterator[tuple[list[int], np.ndarray]]:
    """H_r of the series cells among (omega, boosts) ``cells`` at one r, as stacks.

    A cell is an omega box grid and a boost vector (or None), as
    ``lattice._box_potentials`` takes them.
    Each item is (indices into ``cells``, their H_r stacked as
    ``(len(indices), |box 0|, |box 0|)``).  The potentials of all cells are
    built as one stack (``lattice._box_potentials``) and their q taken in
    one reduction.  Only the cells with
    q = 2d max|1/D| <= 1/2 appear, each once, walked together by
    ``_jacobi_series`` in as few walks as keep one walk buffer within
    ``WALK_BYTES``, in order and in chunks of near-equal size.  The others
    are left out, so the walks run no dense solve and raise nothing; the
    caller reduces a left-out cell with ``schur_reduced``, where a cell near
    the spectrum raises.  Each matrix is bit for bit the one
    ``schur_reduced`` returns for its cell.
    """
    block, delta00 = partition.origin_coupling
    potential = _box_potentials(partition, cells).reshape(len(cells), *partition.axis_sizes)
    with np.errstate(divide="ignore"):
        inv_d = 1.0 / (potential - r)
    inv_d[(slice(None),) + block] = 0.0
    q = (2 * partition.d * np.abs(inv_d).reshape(len(cells), -1).max(axis=1)).tolist()
    series = [i for i, qi in enumerate(q) if qi <= 0.5]
    if series:
        packing = partition.sublattice_packing
        per_walk = max(1, WALK_BYTES // packing.bt.nbytes)
        for chunk in np.array_split(series, -(-len(series) // per_walk)):
            bx = _jacobi_series(inv_d[chunk], packing, [q[i] for i in chunk])
            yield chunk.tolist(), delta00 - bx


def schur_reduced(
    partition: BoxPartition,
    omega: np.ndarray,
    boosts: Sequence[float] | None,
    r: float,
) -> SchurReduced:
    """The reduced operator H_r = P0 L P0 - P0 L (H~ - r)^{-1} L P0 on box 0.

    ``omega`` is the cell's box grid and ``boosts`` its boost vector or None,
    as ``lattice._box_potentials`` takes them; omega_0 is the grid's centre.
    The complement block splits as H~_cc - r = D + L_cc with
    D = diag(V_cc - r).  When q = 2d max|1/D| <= 1/2, D + L_cc is strictly
    diagonally dominant, so r is provably off the complement spectrum, and
    the solve is ``_jacobi_series`` on the lattice stencil, using only the
    partition's cached ``origin_coupling`` and ``sublattice_packing``, at
    ceil(|box 0| / 2) packed columns on the flat ghost-padded layout:
    ``schur_reduced_walks`` on a stack of one cell.  Otherwise the solve is
    ``_solve_refined``'s dense LU on ``_origin_split``'s blocks, which
    raises SpectralProximityError near the spectrum; no other reduction
    runs it.  The eigensolve of r^2 H_r, not the solve, limits the accuracy
    (see ``precision_guard``).

    Entries of r^2 H_r are resolved normwise, not entrywise: a tiny entry
    whose contributions cancel can carry an error of many ulp of itself.  At
    l=(2,3), radius 2, disorder.base_seed=2, r=300 with the from_lem4 boost,
    a 40-digit reduction put the worst entry 105 ulp off on the series route
    and 826 ulp off on the dense LU.  Eigenvalues only need the normwise
    bound; a claim about single entries would need a bound that accounts
    for the cancellation.
    """
    walked = schur_reduced_walks(partition, [(omega, boosts)], r)
    matrix = next((stack[0] for _, stack in walked), None)
    if matrix is None:
        delta00, b, hcc = _origin_split(partition, omega, boosts)
        matrix = delta00 - b @ _solve_refined(hcc - r * np.eye(len(hcc)), b.T, r)
    origin = (partition.radius,) * partition.d
    return SchurReduced(r=float(r), matrix=matrix, omega0=float(omega[origin]))


def neumann_truncation(
    partition: BoxPartition,
    omega: np.ndarray,
    boosts: Sequence[float] | None,
    r: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The order-(r^2, r, 1) truncation A_r and the third-order face product.

    A_r = r^2 Delta_00 + r B B^T + B V_cc B^T with V_cc the box potential off
    box 0, and the third-order product is B L_cc B^T.  Needs radius >= 2 so
    that both shells entering it are fully present.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    if partition.radius < 2:
        raise VolumeError(
            f"radius {partition.radius} < 2: the third-order term needs two shells"
        )
    delta00, b, hcc = _origin_split(partition, omega, boosts)
    # L has a zero diagonal, so the diagonal of H~_cc is V_cc and the rest L_cc
    v_cc = hcc.diagonal().copy()
    np.fill_diagonal(hcc, 0.0)
    a_r = r**2 * delta00 + r * (b @ b.T) + (b * v_cc) @ b.T
    return a_r, b @ hcc @ b.T


def kronecker_truncation(lengths, omega_pairs, lams, r: float) -> np.ndarray:
    """A_r assembled as the Kronecker sum of its tridiagonal factors.

    Factor i is the boundary matrix of ``tridiag.factor_specs``' spec i.
    Coordinate 1 is the outermost factor, matching the lexicographic site
    order of box 0.  A dense oracle with no production caller: the tests
    check the split-block truncation and ``cluster.mode_resolved_spectrum``
    against it, and perfbench keeps it as a trace target.
    """
    specs = factor_specs(lengths, omega_pairs, lams, r)
    return kronecker_sum([boundary_matrix(spec) for spec in specs])


def precision_guard(r: float, quantity: float, context: str = "") -> bool:
    """Warn when r^2 rounding noise encroaches on the quantity under test.

    Trips when r^2 * 2^-52 > 1e-3 * |quantity|.  The eigensolve of r^2 H_r
    resolves no finer than about r^2 * eps * ||H_r||, whatever the precision
    of the complement solve, so a trip is reported, not repaired; the caller
    records it with the result.
    """
    noise = r**2 * 2.0**-52
    if noise > 1e-3 * abs(quantity):
        warnings.warn(
            f"r^2 rounding noise {noise:.3e} is within 10^3 of the quantity "
            f"{quantity:.3e}{' in ' + context if context else ''}; the eigensolve "
            "of r^2 H_r resolves no finer than about r^2 * eps * ||H_r||",
            PrecisionWarning,
            stacklevel=2,
        )
        return True
    return False


def truncation_remainder(
    partition: BoxPartition,
    omega: np.ndarray,
    boosts: Sequence[float] | None,
    r: float,
    precision: str = "standard",
) -> float:
    """Spectral norm of r^2 * H_r - A_r - third_order.

    ``standard`` forms the literal difference in double precision, which is
    adequate while r^2 * 2^-52 stays well below the O(1/r) remainder.
    ``extended`` recomputes the solve and the difference in compensated
    double-double arithmetic, entering through the cancellation-reduced form
    -r^2 B Y - r B B^T - (order-1 faces) - third, whose r^2 Delta_00 blocks
    never appear.
    """
    if precision not in ("standard", "extended"):
        raise ValueError(f"precision must be standard|extended, got {precision!r}")
    a_r, third = neumann_truncation(partition, omega, boosts, r)
    if precision == "standard":
        sr = schur_reduced(partition, omega, boosts, r)
        diff = r**2 * sr.matrix - a_r - third
        return float(np.linalg.norm(diff, 2))

    from .compensated import dd_add, dd_matmul, dd_scale, refined_solve

    delta00, b, hcc = _origin_split(partition, omega, boosts)
    m = hcc - r * np.eye(len(hcc))
    y_hi, y_lo = refined_solve(m, b.T)
    by_hi, by_lo = dd_matmul(b, np.zeros_like(b), y_hi, y_lo)
    acc_hi, acc_lo = dd_scale(by_hi, by_lo, -(r**2))
    # a_r + third with the r^2 Delta_00 block removed, exactly representable
    lean = a_r + third - r**2 * delta00
    acc_hi, acc_lo = dd_add(acc_hi, acc_lo, -lean, np.zeros_like(lean))
    return float(np.linalg.norm(acc_hi + acc_lo, 2))


def remainder_closed_form(
    partition: BoxPartition,
    omega: np.ndarray,
    boosts: Sequence[float] | None,
    r: float,
) -> np.ndarray:
    """The remainder as -B H~ (H~ - r)^{-1} H~ B^T, with no large-term cancellation.

    Algebraically identical to r^2 H_r - A_r - third_order (expand
    (H~ - r)^{-1} = -1/r - H~/r^2 + H~ (H~ - r)^{-1} H~ / r^2 and multiply
    out); every entry is O(1/r) from the start, so double precision resolves
    it at any r.  Used as an independent cross-check of the literal route.
    """
    _, b, hcc = _origin_split(partition, omega, boosts)
    m = hcc - r * np.eye(len(hcc))
    x = _solve_refined(m, hcc @ b.T, r)
    return -(b @ hcc) @ x
