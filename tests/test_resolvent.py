"""Resolvent blocks, Schur reduction, and the large-r truncation routes."""

import warnings

import numpy as np
import pytest

from boxham import resolvent
from boxham.errors import PrecisionWarning, SpectralProximityError, VolumeError
from boxham.harness import (
    ExperimentConfig,
    boosts_for,
    lem4_midpoints,
    omega_pairs,
    sample_disorder,
)
from boxham.lattice import (
    _box_potential,
    box_mask,
    build_hamiltonian,
    build_partition,
    laplacian_into,
    zero_disorder,
)
from boxham.resolvent import (
    WALK_BYTES,
    _jacobi_series,
    _neighbour_sums,
    _origin_split,
    _solve_refined,
    kronecker_truncation,
    neumann_truncation,
    precision_guard,
    remainder_closed_form,
    restricted_resolvent,
    schur_reduced,
    schur_reduced_walks,
    truncation_remainder,
)


def _small_system(seed=0, d=1, lengths=(2,), radius=1, lam=None):
    part = build_partition(d, lengths, radius)
    if seed is None:
        sample = zero_disorder(part)
    else:
        cfg = ExperimentConfig(d=d, lengths=lengths, radius=radius, base_seed=seed)
        sample = sample_disorder(cfg, 0)
    h = build_hamiltonian(part, sample, lam)
    return part, sample, h


# ------------------------------------------------------- restricted blocks


def test_restricted_resolvent_against_direct_inverse():
    # 6-site chain, zero disorder, z = 10: check every block of (H-z)^-1
    part, _, h = _small_system(seed=None)
    z = 10.0
    full = np.linalg.inv(h.entries - z * np.eye(part.n_sites))
    for p in [(-1,), (0,), (1,)]:
        for q in [(-1,), (0,), (1,)]:
            g = restricted_resolvent(h, z, p, q)
            rows = np.flatnonzero(box_mask(part, p))
            cols = np.flatnonzero(box_mask(part, q))
            assert np.max(np.abs(g.block - full[np.ix_(rows, cols)])) < 1e-12
            assert g.p == p and g.q == q and g.z == z


def test_diagonal_block_is_symmetric_for_real_z():
    part, _, h = _small_system(seed=3, d=2, lengths=(2, 2))
    g = restricted_resolvent(h, 25.0, (0, 0), (0, 0))
    assert np.max(np.abs(g.block - g.block.T)) < 1e-12


def test_off_diagonal_blocks_are_transposes():
    part, _, h = _small_system(seed=3, d=2, lengths=(2, 2))
    g01 = restricted_resolvent(h, 25.0, (0, 0), (1, 0)).block
    g10 = restricted_resolvent(h, 25.0, (1, 0), (0, 0)).block
    assert np.max(np.abs(g01 - g10.T)) < 1e-12


def test_z_on_spectrum_raises_spectral_proximity():
    part, _, h = _small_system(seed=None)
    z = float(np.linalg.eigvalsh(h.entries)[0])
    with pytest.raises(SpectralProximityError) as info:
        restricted_resolvent(h, z, (0,), (0,))
    assert info.value.residual > 0


def test_exactly_singular_solve_raises_spectral_proximity():
    # the second pivot of [[1, 1], [1, 1]] is an exact zero
    with pytest.raises(SpectralProximityError) as info:
        _solve_refined(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2), 0.0)
    assert info.value.residual == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_solve_raises_value_error(bad):
    with pytest.raises(ValueError):
        _solve_refined(np.array([[bad, 0.0], [0.0, 1.0]]), np.eye(2), 0.0)


def test_rank_one_perturbation_identity():
    # G^lam_00 = G_00 - lam * G_0n (I + lam G_nn)^-1 G_n0 with the
    # perturbation lam * P_n placed on the box n = e_1
    part, sample, h = _small_system(seed=8, d=2, lengths=(2, 2))
    z, lam, n = 30.0, 1.7, (1, 0)
    g00 = restricted_resolvent(h, z, (0, 0), (0, 0)).block
    g0n = restricted_resolvent(h, z, (0, 0), n).block
    gnn = restricted_resolvent(h, z, n, n).block
    gn0 = restricted_resolvent(h, z, n, (0, 0)).block
    predicted = g00 - lam * g0n @ np.linalg.inv(np.eye(gnn.shape[0]) + lam * gnn) @ gn0

    h_lam = build_hamiltonian(part, sample, (lam, 0.0))
    direct = restricted_resolvent(h_lam, z, (0, 0), (0, 0)).block
    assert np.max(np.abs(predicted - direct)) < 1e-8


# ------------------------------------------------------- Schur reduction


def test_origin_split_blocks_match_hamiltonian():
    part, sample, h = _small_system(seed=4, d=2, lengths=(2, 2), lam=(0.7, 0.0))
    delta00, b, hcc = _origin_split(part, sample, (0.7, 0.0))
    m0 = box_mask(part, (0, 0))
    comp = ~m0
    lap = part.laplacian
    assert np.array_equal(delta00, lap[np.ix_(m0, m0)])
    assert np.array_equal(b, lap[np.ix_(m0, comp)])
    assert np.array_equal(hcc, h.entries[np.ix_(comp, comp)])
    _, _, lcc = _origin_split(part)
    assert np.array_equal(lcc, lap[np.ix_(comp, comp)])


def test_schur_eigenvalues_match_resolvent_block():
    # the bijection mu = 1/(nu + omega_0 - r), multiplicities included
    part, sample, h = _small_system(seed=4, d=2, lengths=(2, 2), radius=2)
    r = 60.0
    sr = schur_reduced(part, sample, None, r)
    mu = sr.mu_values()
    g00 = restricted_resolvent(h, r, (0, 0), (0, 0)).block
    direct = np.sort(np.linalg.eigvalsh(0.5 * (g00 + g00.T)))
    assert np.max(np.abs(mu - direct)) < 1e-8


def test_schur_matrix_approaches_laplacian_block_at_large_r():
    part, sample, _ = _small_system(seed=4, d=1, lengths=(3,), radius=2)
    from boxham.lattice import build_laplacian

    lap = build_laplacian(part).entries
    m0 = box_mask(part, (0,))
    delta00 = lap[np.ix_(m0, m0)].astype(float)
    sr = schur_reduced(part, sample, None, 1e5)
    assert np.max(np.abs(sr.matrix - delta00)) < 1e-4


def test_schur_matches_50_digit_reduction():
    # r^2 H_r from the same blocks, reduced in 50-digit arithmetic: the
    # double solve stays within a few ulp of every entry up to r = 3e7
    mp = pytest.importorskip("mpmath").mp
    cfg = ExperimentConfig(d=2, lengths=(2, 2), radius=1, base_seed=0)
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    boosts = (0.7, 0.0)
    delta00, b, hcc = _origin_split(part, sample, boosts)
    eps = np.finfo(np.float64).eps
    with mp.workdps(50):
        b_mp = mp.matrix(b.tolist())
        for r in (300.0, 3e4, 3e6, 3e7):
            lu, perm = mp.LU_decomp(mp.matrix(hcc.tolist()) - r * mp.eye(len(hcc)))
            # one factorization, solved for the |box 0| columns of B^T only
            by = [
                b_mp * mp.U_solve(lu, mp.L_solve(lu, b_mp.T.column(j), perm))
                for j in range(b_mp.rows)
            ]
            got = r**2 * schur_reduced(part, sample, boosts, r).matrix
            for i, j in np.ndindex(got.shape):
                exact = r**2 * (delta00[i, j] - by[j][i])
                assert abs(mp.mpf(float(got[i, j])) - exact) <= 8 * eps * abs(exact)


def _lem4_cell(d, lengths, seed=0):
    cfg = ExperimentConfig(
        d=d, lengths=lengths, radius=2, base_seed=seed,
        lambda_mode="from_lem4", lambda_values=(), lem4_delta=0.4,
    )
    sample = sample_disorder(cfg, 0)
    return cfg.partition(), sample, boosts_for(cfg, sample)


def _jacobi_q(part, sample, boosts, r):
    """q = 2d max|1/D| over the complement, D = V_cc - r."""
    m0 = box_mask(part, (0,) * part.d)
    v_cc = _box_potential(part, sample, boosts)[~m0]
    return 2 * part.d / float(np.min(np.abs(v_cc - r)))


def _dense_reduction(part, sample, boosts, r):
    delta00, b, hcc = _origin_split(part, sample, boosts)
    return delta00 - b @ _solve_refined(hcc - r * np.eye(len(hcc)), b.T, r)


def test_series_route_matches_dense_lu():
    # the stencil series against the refined dense LU on the shipped
    # multiplicity geometries: each is within 8 eps of a 50-digit reduction
    # (test_schur_matches_50_digit_reduction), so they agree to 16 eps
    eps = np.finfo(np.float64).eps
    for d, lengths in ((1, (3,)), (2, (2, 2)), (2, (2, 4)), (3, (2, 2, 2))):
        part, sample, boosts = _lem4_cell(d, lengths)
        for r in (300.0, 3e4, 3e6):
            assert _jacobi_q(part, sample, boosts, r) <= 0.5
            got = r**2 * schur_reduced(part, sample, boosts, r).matrix
            ref = r**2 * _dense_reduction(part, sample, boosts, r)
            assert np.array_equal(got == 0.0, ref == 0.0)
            assert np.all(np.abs(got - ref) <= 16 * eps * np.abs(ref))


# A deliberate oracle: the stencil and series as they stood on the unpadded
# site grid, one shifted slice per neighbour along each axis and one column
# per box-0 site, before the series moved to the flat ghost-padded layout and
# then to sublattice-packed columns.  Kept verbatim, ``_origin_rows``
# included, so the packed kernel is pinned bit for bit, signed zeros
# included, to the code it replaced.
def _grid_apply_laplacian(x: np.ndarray, d: int) -> np.ndarray:
    out = np.zeros_like(x)
    for axis in range(d):
        head = (slice(None),) * axis
        out[head + (slice(1, None),)] += x[head + (slice(None, -1),)]
        out[head + (slice(None, -1),)] += x[head + (slice(1, None),)]
    return out


def _grid_jacobi_series(
    inv_d: np.ndarray, bt: np.ndarray, block: tuple[slice, ...], q: float
) -> np.ndarray:
    d = len(block)
    step = -inv_d[..., None]
    term = inv_d[..., None] * bt
    x = term.copy()
    support = [np.count_nonzero(x)]
    floor = np.finfo(np.float64).eps / 16.0
    k = 0
    while True:
        if k >= 2 and support[k] == support[k - 2]:
            bx = _origin_rows(x, block)
            smallest = np.min(np.abs(bx[bx != 0.0]), initial=np.inf)
            if q ** (k + 2) / (1.0 - q) <= floor * smallest:
                return bx
        term = _grid_apply_laplacian(term, d)
        term *= step
        x += term
        support.append(np.count_nonzero(x))
        k += 1


def _grid_bt(part) -> np.ndarray:
    """B^T = (I-P0) L P0 on the site grid, one column per box-0 site."""
    m0 = box_mask(part, (0,) * part.d)
    bt = (part.laplacian[:, m0] * ~m0[:, None]).astype(np.float64)
    return bt.reshape(tuple(part.axis_sizes) + (-1,))


def _origin_rows(x: np.ndarray, block: tuple[slice, ...]) -> np.ndarray:
    """The box-0 rows of L x as an |box 0| x columns matrix, for x zero on box 0."""
    rows = np.zeros(x[block].shape)
    for axis, s in enumerate(block):
        for step in (-1, 1):
            shifted = slice(s.start + step, s.stop + step)
            if 0 <= shifted.start and shifted.stop <= x.shape[axis]:
                rows += x[block[:axis] + (shifted,) + block[axis + 1 :]]
    return rows.reshape(-1, x.shape[-1])


# (3, 3) and (1, 3, 3) have one more even-parity box-0 site than odd ones, so
# one packed column is unpaired; (2, 4) and (2, 2, 2) are the perfbench grids;
# (1, 1, 1, 1) sums eight neighbours of a single, unpaired site, a shape in
# which a numpy reduction can add them pairwise
@pytest.mark.parametrize(
    "d, lengths",
    [
        (1, (3,)),
        (2, (2, 3)),
        (3, (1, 2, 2)),
        (4, (1, 2, 1, 2)),
        (2, (3, 3)),
        (3, (1, 3, 3)),
        (2, (2, 4)),
        (3, (2, 2, 2)),
        (4, (1, 1, 1, 1)),
    ],
)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_padded_series_matches_grid_oracle_bit_for_bit(d, lengths, radius):
    # r < 0 and small |r| put D = V - r > 0, so the terms alternate in sign
    cfg = ExperimentConfig(d=d, lengths=lengths, radius=radius, base_seed=d + radius)
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    boosts = (0.7,) + (0.0,) * (d - 1) if radius else None
    block, delta00 = part.origin_coupling
    bt = _grid_bt(part)
    potential = _box_potential(part, sample, boosts).reshape(part.axis_sizes)
    inv_ds, qs, wants = [], [], []
    for r in (300.0, -300.0, 3e4, 3e6, 40.0, -25.0):
        inv_d = 1.0 / (potential - r)
        inv_d[block] = 0.0
        q = 2 * d * float(np.max(np.abs(inv_d)))
        assert q <= 0.5
        want = _grid_jacobi_series(inv_d, bt, block, q)
        (got,) = _jacobi_series(inv_d[None], part.sublattice_packing, [q])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        matrix = schur_reduced(part, sample, boosts, r).matrix
        assert np.array_equal(np.signbit(matrix), np.signbit(delta00 - want))
        assert np.array_equal(matrix, delta00 - want)
        inv_ds.append(inv_d)
        qs.append(q)
        wants.append(want)
    # the six r values walked as one stack: D takes both signs across the
    # cells, which stop at different k once radius >= 1 (4 to 41 terms), and
    # each keeps its lone walk's bits
    stacked = _jacobi_series(np.array(inv_ds), part.sublattice_packing, qs)
    assert stacked.shape == (len(wants),) + wants[0].shape
    for got, want in zip(stacked, wants):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _grid_reach(inv_d: np.ndarray, bt: np.ndarray, d: int) -> int:
    """First k >= 2 at which the grid walk's nonzero count equals that at k - 2.

    The support is counted as ``_grid_jacobi_series`` counts it, over the
    sum of every term so far, and the walk runs until that step whatever q.
    """
    step = -inv_d[..., None]
    term = inv_d[..., None] * bt
    x = term.copy()
    support = [np.count_nonzero(x)]
    while len(support) < 3 or support[-1] != support[-3]:
        term = _grid_apply_laplacian(term, d)
        term *= step
        x += term
        support.append(np.count_nonzero(x))
    return len(support) - 1


@pytest.mark.parametrize(
    "d, lengths",
    [
        (1, (3,)),
        (2, (2, 3)),
        (3, (1, 2, 2)),
        (4, (1, 2, 1, 2)),
        (2, (3, 3)),
        (3, (1, 3, 3)),
        (2, (2, 4)),
        (3, (2, 2, 2)),
        (4, (1, 1, 1, 1)),
    ],
)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_reach_step_is_where_the_grid_walks_support_stops_growing(d, lengths, radius):
    # zero disorder and a from_lem4 cell at r = 300 (boosted where the unit
    # boxes exist) reach their whole support at one step, the packing's
    cfg = ExperimentConfig(
        d=d, lengths=lengths, radius=radius, base_seed=d + radius,
        lambda_mode="from_lem4", lambda_values=(), lem4_delta=0.4,
    )
    part = cfg.partition()
    block, _ = part.origin_coupling
    bt = _grid_bt(part)
    sample = sample_disorder(cfg, 0)
    cells = [(zero_disorder(part), None), (sample, boosts_for(cfg, sample) if radius else None)]
    reaches = []
    for cell in cells:
        inv_d = 1.0 / (_box_potential(part, *cell).reshape(part.axis_sizes) - 300.0)
        inv_d[block] = 0.0
        reaches.append(_grid_reach(inv_d, bt, d))
    assert reaches == [part.sublattice_packing.reach] * len(cells)


@pytest.mark.parametrize(
    "d, lengths",
    [
        (1, (3,)),
        (2, (2, 3)),
        (3, (1, 2, 2)),
        (4, (1, 2, 1, 2)),
        (2, (3, 3)),
        (3, (1, 3, 3)),
        (2, (2, 4)),
        (3, (2, 2, 2)),
        (4, (1, 1, 1, 1)),
    ],
)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_stacked_walk_steps_only_the_running_cells(d, lengths, radius, monkeypatch):
    # the six-r stack of the grid oracle: a cell that has stopped leaves the
    # walk, so the stack takes as many cell-steps as the six lone walks
    cfg = ExperimentConfig(d=d, lengths=lengths, radius=radius, base_seed=d + radius)
    part = cfg.partition()
    packing = part.sublattice_packing
    block, _ = part.origin_coupling
    boosts = (0.7,) + (0.0,) * (d - 1) if radius else None
    potential = _box_potential(part, sample_disorder(cfg, 0), boosts).reshape(part.axis_sizes)
    inv_ds = np.array([1.0 / (potential - r) for r in (300.0, -300.0, 3e4, 3e6, 40.0, -25.0)])
    inv_ds[(slice(None),) + block] = 0.0
    qs = [2 * d * float(np.max(np.abs(inv_d))) for inv_d in inv_ds]
    stepped = []

    def counting(out, x, strides):
        stepped.append(x.size // packing.bt.size)
        return laplacian_into(out, x, strides)

    monkeypatch.setattr(resolvent, "laplacian_into", counting)
    lone = []
    for inv_d, q in zip(inv_ds, qs):
        stepped.clear()
        _jacobi_series(inv_d[None], packing, [q])
        lone.append(len(stepped))
    stepped.clear()
    _jacobi_series(inv_ds, packing, qs)
    assert sum(stepped) == sum(lone)
    assert stepped == sorted(stepped, reverse=True) and stepped[0] == len(lone)


@pytest.mark.parametrize(
    "d, lengths", [(1, (1,)), (1, (3,)), (2, (1, 3)), (3, (2, 1, 2))]
)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_origin_rows_are_box0_rows_of_dense_product(d, lengths, radius):
    # neighbours of box 0 past the grid (radius 0, length-1 axes) are skipped;
    # the gather reads x on the flat padded layout, whose ghosts hold zeros
    part = build_partition(d, lengths, radius)
    block = part.origin_coupling[0]
    packing = part.sublattice_packing
    padded, real, _ = packing.grid
    rng = np.random.default_rng(radius)
    x = rng.integers(-2**20, 2**20, size=tuple(part.axis_sizes) + (3,)) / 1024.0
    x[block] = 0.0
    flat = np.zeros(padded + (3,))
    flat[real] = x
    m0 = box_mask(part, (0,) * d)
    dense = part.laplacian.astype(np.float64) @ x.reshape(part.n_sites, 3)
    got = _neighbour_sums(flat.reshape(-1, 3), packing.neighbours)
    assert np.array_equal(got, dense[m0])


def test_dense_route_when_series_cannot_converge():
    # from_lem4 boosts e_3 by about 3000.4, so at r = 3000 the potential on
    # that box sits within 2 of r and q > 1/2: the dense LU runs instead
    part, sample, boosts = _lem4_cell(3, (2, 2, 2))
    r = 3000.0
    assert _jacobi_q(part, sample, boosts, r) > 0.5
    got = schur_reduced(part, sample, boosts, r).matrix
    assert np.array_equal(got, _dense_reduction(part, sample, boosts, r))


def _chiral_pair(lengths, radius, r, seed):
    """schur_reduced at (-omega, -lambda, -r) and -U0 H_r U0, U0 = diag((-1)^|x|) on box 0.

    Z^d is bipartite, so U L U = -L with U = diag((-1)^|x|) and
    H_{-r}(-V, -lambda) = -U0 H_r(V, lambda) U0 on box 0.  The relation
    follows from the operator, not from either solver.
    """
    cfg = ExperimentConfig(
        d=len(lengths), lengths=lengths, radius=radius, base_seed=seed,
        lambda_mode="from_lem4", lambda_values=(), lem4_delta=0.4,
    )
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    boosts = boosts_for(cfg, sample)
    got = schur_reduced(part, -sample, tuple(-lam for lam in boosts), -r).matrix
    parity = np.indices(lengths).reshape(len(lengths), -1).sum(axis=0) % 2
    u = np.where(parity == 0, 1.0, -1.0)
    want = -(u[:, None] * schur_reduced(part, sample, boosts, r).matrix * u[None, :])
    return _jacobi_q(part, sample, boosts, r), got, want


@pytest.mark.parametrize(
    "lengths, radius, r, series",
    [
        ((2, 2), 2, 300.0, True),
        ((2, 4), 2, 300.0, True),
        ((2, 2, 2), 2, 300.0, True),
        ((1, 2, 1, 2), 1, 300.0, True),
        # from_lem4 boosts e_3 by about 3000 and e_1 by 6 to 8, so at
        # r = 3000 and r = 12 some box sits near r: q > 1/2, the dense LU
        ((2, 2, 2), 2, 3000.0, False),
        ((2, 2, 2), 2, 12.0, False),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chiral_relation_holds_bit_for_bit(lengths, radius, r, series, seed):
    # negation is exact: every term of the negated series is -+ the
    # original, the even-k and odd-k accumulators swap signs and the parity
    # pick undoes it, so the bits hold, signed zeros included.  It cannot
    # see a sign error in Delta_00 - B X, which is symmetric under it.
    q, got, want = _chiral_pair(lengths, radius, r, seed)
    assert (q <= 0.5) == series
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chiral_relation_at_odd_box0_differs_only_in_signed_zeros(seed):
    # the centre site of the 3x3 box 0 touches no complement site, so its
    # row and column of B X are zero and H_r = Delta_00 - B X holds +0.0
    # where the centre meets the even sites; -U0 H_r U0 turns those into
    # -0.0, so here the relation keeps the values but not the signed zeros
    q, got, want = _chiral_pair((3, 3), 2, 300.0, seed)
    assert q <= 0.5
    assert np.array_equal(got, want)
    differs = np.signbit(got) != np.signbit(want)
    assert differs.any() and np.all(got[differs] == 0.0)


def _within_16_ulp(got, want):
    assert np.all(np.abs(got - want) <= 16 * np.spacing(np.abs(want)))
    assert np.array_equal(np.signbit(got), np.signbit(want))


# the series route at radius 2 and radius 1, D of both signs (r = -25), and
# the dense LU at (2, 2, 2), r = 12, where disorder in [-1, 1] puts
# q = 6 / min|V - 12| above 1/2; measured worst: 1 ulp on the series, 4 on
# the dense LU, signbits equal everywhere
@pytest.mark.parametrize(
    "lengths, radius, r, series",
    [
        ((2, 2), 2, 300.0, True),
        ((2, 4), 2, 300.0, True),
        ((3, 3), 2, 300.0, True),
        ((2, 2, 2), 2, 300.0, True),
        ((2, 3, 4), 1, 300.0, True),
        ((1, 2, 1, 2), 1, 300.0, True),
        ((2, 4), 2, 40.0, True),
        ((2, 3), 2, -25.0, True),
        ((2, 2, 2), 2, 12.0, False),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reflection_relation_conjugates_by_the_box0_reflection(lengths, radius, r, series, seed):
    # reflecting axis a, x_a -> l_a + 1 - x_a, maps box n to the box with
    # n_a -> -n_a and box 0 to itself; with the disorder reflected along,
    # H_r becomes P H_r P, P the reflection of box 0.  The ghost layer sits
    # at the high end of each axis only, so the two faces take different
    # paths through the stencil.
    d = len(lengths)
    cfg = ExperimentConfig(d=d, lengths=lengths, radius=radius, base_seed=seed)
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    assert (_jacobi_q(part, sample, None, r) <= 0.5) == series
    base = schur_reduced(part, sample, None, r).matrix.reshape(lengths * 2)
    for a in range(d):
        got = schur_reduced(part, np.flip(sample, axis=a), None, r).matrix
        _within_16_ulp(got, np.flip(base, axis=(a, d + a)).reshape(got.shape))


# every pair of equal-length axes, with from_lem4 boosts; at (2, 2, 2),
# r = 12 the boost of 6 to 8 on e_1 puts q above 1/2, the dense LU;
# measured worst: 2 ulp on the series, 3 on the dense LU
@pytest.mark.parametrize(
    "lengths, radius, r, series",
    [
        ((2, 2), 2, 300.0, True),
        ((3, 3), 2, 300.0, True),
        ((2, 2, 2), 2, 300.0, True),
        ((1, 2, 1, 2), 1, 300.0, True),
        ((2, 2, 2), 2, 12.0, False),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_axis_swap_relation_carries_omega_and_lambda(lengths, radius, r, series, seed):
    # swapping axes a and b of equal length, with omega and the boosts
    # carried along, permutes the sites of box 0 the same way; a boost put
    # on the wrong axis breaks it
    d = len(lengths)
    cfg = ExperimentConfig(
        d=d, lengths=lengths, radius=radius, base_seed=seed,
        lambda_mode="from_lem4", lambda_values=(), lem4_delta=0.4,
    )
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    boosts = boosts_for(cfg, sample)
    assert (_jacobi_q(part, sample, boosts, r) <= 0.5) == series
    base = schur_reduced(part, sample, boosts, r).matrix.reshape(lengths * 2)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d) if lengths[a] == lengths[b]]
    assert pairs
    for a, b in pairs:
        axes = list(range(d))
        axes[a], axes[b] = b, a
        swapped = tuple(boosts[i] for i in axes)
        got = schur_reduced(part, np.transpose(sample, axes), swapped, r).matrix
        want = np.transpose(base, axes + [d + i for i in axes]).reshape(got.shape)
        _within_16_ulp(got, want)


def test_schur_without_complement_is_laplacian_block():
    part = build_partition(2, (2, 3), radius=0)
    sr = schur_reduced(part, zero_disorder(part), None, 10.0)
    assert np.array_equal(sr.matrix, part.laplacian.astype(float))


# ------------------------------------------------------- truncation


def test_neumann_truncation_smallest_example():
    # d=1, l=2, zero disorder, r=1: A_1 = Delta_00 + B B^T = [[1,1],[1,1]]
    part = build_partition(1, (2,), radius=2)
    sample = zero_disorder(part)
    a_r, third = neumann_truncation(part, sample, None, 1.0)
    assert np.array_equal(a_r, np.ones((2, 2)))
    # in d=1 the two shell sites are never adjacent: third order vanishes
    assert np.array_equal(third, np.zeros((2, 2)))


def test_neumann_truncation_carries_face_weights():
    part = build_partition(1, (2,), radius=2)
    sample = np.array([0.0, -0.5, 0.0, 0.25, 0.0])  # boxes -2..2
    a_r, _ = neumann_truncation(part, sample, (2.0,), 10.0)
    # diag = r*BB^T + omega_- on left face + (omega_+ + lambda) on right face
    assert a_r[0, 0] == pytest.approx(10.0 - 0.5)
    assert a_r[1, 1] == pytest.approx(10.0 + 0.25 + 2.0)
    assert a_r[0, 1] == pytest.approx(100.0)


def test_neumann_truncation_guards():
    part = build_partition(1, (2,), radius=1)
    sample = zero_disorder(part)
    with pytest.raises(VolumeError):
        neumann_truncation(part, sample, None, 10.0)
    part = build_partition(1, (2,), radius=2)
    sample = zero_disorder(part)
    with pytest.raises(ValueError):
        neumann_truncation(part, sample, None, -1.0)
    with pytest.raises(VolumeError):
        neumann_truncation(part, sample, (0.0, 1.0), 10.0)


def test_third_order_norm_bound():
    part, sample, _ = _small_system(seed=6, d=2, lengths=(2, 3), radius=2)
    _, third = neumann_truncation(part, sample, None, 100.0)
    assert np.linalg.norm(third, 2) <= (2 * 2) ** 3


def test_kronecker_assembly_matches_neumann():
    cfg = ExperimentConfig(d=2, lengths=(2, 2), radius=2, base_seed=1)
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    pairs = omega_pairs(sample)
    lams = (0.3, -0.1)
    for r in (5.0, 300.0):
        a_r, _ = neumann_truncation(part, sample, (0.3, -0.1), r)
        kron = kronecker_truncation((2, 2), pairs, lams, r)
        scale = np.max(np.abs(a_r))
        assert np.max(np.abs(a_r - kron)) <= 1e-12 * scale


def test_kronecker_factor_order_is_coordinate_one_outermost():
    # distinct lengths make the two orderings distinguishable by shape of the
    # spectrum: put a marker weight on coordinate 1 and find it on the
    # outermost Kronecker factor
    pairs = [(0.0, 0.0), (0.0, 0.0)]
    k = kronecker_truncation((1, 2), pairs, (5.0, 0.0), 1.0)
    # coordinate 1 has l=1: its D is the scalar (0 + 1) + (0 + 5 + 1) = 7
    # coordinate 2 has l=2: D = [[1, 1], [1, 1]]
    d2 = np.array([[1.0, 1.0], [1.0, 1.0]])
    expect = 7.0 * np.eye(2) + 1.0 * d2  # Kronecker sum with coord 1 outermost
    assert np.allclose(k, expect, atol=1e-14)


def test_remainder_routes_agree():
    cfg = ExperimentConfig(d=2, lengths=(2, 3), radius=2, base_seed=7)
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    for r in (100.0, 800.0):
        literal = truncation_remainder(part, sample, None, r)
        extended = truncation_remainder(part, sample, None, r, precision="extended")
        closed = float(np.linalg.norm(remainder_closed_form(part, sample, None, r), 2))
        assert literal == pytest.approx(closed, rel=1e-4)
        assert extended == pytest.approx(closed, rel=1e-9)
    with pytest.raises(ValueError):
        truncation_remainder(part, sample, None, 100.0, precision="exact")


def test_remainder_decays_like_one_over_r():
    cfg = ExperimentConfig(d=1, lengths=(3,), radius=2, base_seed=2)
    part = cfg.partition()
    sample = sample_disorder(cfg, 0)
    n100 = truncation_remainder(part, sample, None, 100.0)
    n800 = truncation_remainder(part, sample, None, 800.0)
    assert n800 < n100 / 6.0  # ~8x shrink expected of a 1/r law


# ------------------------------------------------------- precision guard


def test_precision_guard_quiet_when_safe():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert precision_guard(100.0, 1.0) is False


def test_precision_guard_warns_when_noise_encroaches():
    with pytest.warns(PrecisionWarning):
        flagged = precision_guard(1e7, 1e-3, context="unit test")
    assert flagged is True


def test_walks_chunk_the_cells_within_the_buffer_budget():
    # a d=3, l=(2,2,2), radius-2 cell takes 38 720 bytes a buffer, so 13
    # fit in WALK_BYTES and 27 cells walk as three stacks of nine, in order;
    # each matrix is the one its cell gets alone
    cfg = ExperimentConfig(
        d=3, lengths=(2, 2, 2), radius=2, base_seed=0,
        lambda_mode="from_lem4", lambda_values=(), lem4_delta=0.4,
    )
    part = cfg.partition()
    mids = lem4_midpoints(cfg)
    samples = [sample_disorder(cfg, seed) for seed in range(27)]
    cells = [(sample, boosts_for(cfg, sample, mids)) for sample in samples]
    walks = list(schur_reduced_walks(part, cells, 300.0))
    assert [len(indices) for indices, _ in walks] == [9, 9, 9]
    assert [i for indices, _ in walks for i in indices] == list(range(27))
    assert 13 * part.sublattice_packing.bt.nbytes <= WALK_BYTES
    for indices, matrices in walks:
        assert matrices.shape == (len(indices), 8, 8)
        for i, matrix in zip(indices, matrices):
            alone = schur_reduced(part, *cells[i], 300.0).matrix
            assert np.array_equal(matrix, alone)
            assert np.array_equal(np.signbit(matrix), np.signbit(alone))
