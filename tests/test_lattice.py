"""Geometry and operator assembly tests: partitions, Laplacian, projections."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxham.errors import IncompleteSampleError, VolumeError
from boxham.harness import ExperimentConfig, boosts_for, sample_disorder
from boxham.lattice import (
    _box_potential,
    _box_potentials,
    box_mask,
    box_sites,
    build_hamiltonian,
    build_laplacian,
    build_partition,
    face_product,
    ghost_grid,
    laplacian_into,
    neighbor_sum_identity,
    partition_of_unity_holds,
    zero_disorder,
)


def test_box_membership_1d():
    # box n covers sites n*l+1 .. (n+1)*l, so l=2 gives (0)->{1,2}, (-1)->{-1,0}
    part = build_partition(1, (2,), radius=2)
    assert box_sites(part, (0,)) == [(1,), (2,)]
    assert box_sites(part, (-1,)) == [(-1,), (0,)]
    assert box_sites(part, (2,)) == [(5,), (6,)]
    assert part.n_sites == 10


def test_box_of_is_inverse_of_box_sites():
    part = build_partition(2, (2, 3), radius=1)
    for n in part.boxes:
        for s in box_sites(part, n):
            assert part.box_of(s) == n
    # d = 3: the mask marks exactly the box's sites in the lexicographic order
    part = build_partition(3, (2, 1, 3), radius=1)
    index = {s: i for i, s in enumerate(part.sites)}
    for n in part.boxes:
        sites = box_sites(part, n)
        assert all(part.box_of(s) == n for s in sites)
        assert np.flatnonzero(box_mask(part, n)).tolist() == [index[s] for s in sites]


def test_site_count_formula():
    part = build_partition(2, (2, 3), radius=1)
    assert part.n_sites == (3 * 2) * (3 * 3)
    part = build_partition(3, (2, 2, 2), radius=2)
    assert part.n_sites == (5 * 2) ** 3


def test_sites_are_lexicographically_ordered():
    part = build_partition(2, (2, 2), radius=1)
    assert list(part.sites) == sorted(part.sites)


def test_volume_caps():
    with pytest.raises(VolumeError):
        build_partition(4, (4, 4, 4, 4), radius=4)
    with pytest.raises(VolumeError):
        build_partition(1, (2,), radius=9)


def test_volume_cap_matches_dense_matrix_memory():
    # 91 125 sites: one dense float64 matrix on them would take 66 GB
    with pytest.raises(VolumeError, match=f"{8 * 91_125**2} bytes"):
        build_partition(3, (5, 5, 5), radius=4)


@pytest.mark.parametrize(
    "d, lengths, radius",
    [(1, (3,), 1), (1, (1,), 2), (2, (2, 2), 1), (2, (1, 3), 1), (3, (2, 1, 3), 1)],
    ids=["d1-l3-r1", "d1-l1-r2", "d2-l2x2-r1", "d2-l1x3-r1", "d3-l2x1x3-r1"],
)
def test_laplacian_is_symmetric_01_with_dirichlet_cutoff(d, lengths, radius):
    part = build_partition(d, lengths, radius)
    lap = build_laplacian(part).entries
    assert lap.dtype == np.int64
    assert np.array_equal(lap, lap.T)
    assert set(np.unique(lap)) <= {0, 1}
    # entries are 1 exactly on nearest-neighbour pairs inside the volume
    for (i, s), (j, t) in itertools.product(enumerate(part.sites), repeat=2):
        dist = sum(abs(x - y) for x, y in zip(s, t))
        assert lap[i, j] == (1 if dist == 1 else 0)


def test_laplacian_boundary_rows_have_lower_degree():
    part = build_partition(1, (3,), radius=1)
    lap = build_laplacian(part).entries
    degrees = lap.sum(axis=1)
    assert degrees[0] == 1 and degrees[-1] == 1
    assert all(degrees[1:-1] == 2)


def test_projection_and_masks_agree():
    part = build_partition(2, (2, 3), radius=1)
    for n in [(0, 0), (1, -1), (0, 1)]:
        p = np.diag(box_mask(part, n).astype(np.int64))  # the projection P_n
        mask = box_mask(part, n)
        assert np.array_equal(np.diag(p), mask.astype(p.dtype))
        assert np.array_equal(p @ p, p)


def test_partition_of_unity():
    for d, lengths in [(1, (3,)), (2, (2, 2)), (2, (1, 4))]:
        part = build_partition(d, lengths, radius=1)
        assert partition_of_unity_holds(part)


def test_neighbor_sum_identity_exact():
    part = build_partition(2, (2, 3), radius=1)
    lhs, rhs = neighbor_sum_identity(part)
    assert np.array_equal(lhs, rhs)


def test_face_product_is_indicator():
    part = build_partition(2, (2, 3), radius=1)
    for direction in (1, -1, 2, -2):
        prod, ind = face_product(part, direction)
        assert np.array_equal(prod, ind)
    # +e_1 face of box 0 is {x : x_1 = l_1}; for l=(2,3) that's 3 of 6 sites
    prod, ind = face_product(part, 1)
    assert int(np.trace(ind)) == 3


def test_face_product_rejects_bad_direction():
    part = build_partition(2, (2, 2), radius=1)
    with pytest.raises(VolumeError):
        face_product(part, 0)
    with pytest.raises(VolumeError):
        face_product(part, 3)


def test_hamiltonian_diagonal_carries_box_potential_and_boost():
    part = build_partition(2, (2, 2), radius=1)
    values = {n: 0.1 * (i + 1) for i, n in enumerate(part.boxes)}
    sample = np.array(list(values.values())).reshape(3, 3)
    boosts = (2.0, 5.0)
    h = build_hamiltonian(part, sample, boosts).entries
    lap = build_laplacian(part).entries
    off = h - np.diag(np.diag(h))
    assert np.array_equal(off, lap.astype(off.dtype))
    for i, s in enumerate(part.sites):
        n = part.box_of(s)
        expect = values[n]
        if n == (1, 0):
            expect += 2.0
        elif n == (0, 1):
            expect += 5.0
        assert h[i, i] == pytest.approx(expect, abs=0.0)


def test_hamiltonian_rejects_sample_missing_one_box():
    part = build_partition(2, (2, 3), radius=1)
    sample = np.full((3, 2), 0.5)  # the boxes n_2 = 1 left out
    with pytest.raises(IncompleteSampleError, match=r"\(3, 2\) for the box grid \(3, 3\)"):
        build_hamiltonian(part, sample)


def _potential_stack():
    """Five (2, 3), radius-2 cells: explicit, from_lem4 and no boosts, mixed."""
    cfg = ExperimentConfig(
        d=2, lengths=(2, 3), radius=2, base_seed=5,
        lambda_mode="from_lem4", lambda_values=(), lem4_delta=0.4,
    )
    samples = [sample_disorder(cfg, i) for i in range(5)]
    boosts = [(-1.25, 0.7), boosts_for(cfg, samples[1]), None, (3.5, 0.0)]
    boosts.append(boosts_for(cfg, samples[4]))
    return cfg.partition(), list(zip(samples, boosts))


def test_stacked_potential_is_each_cells_own_bit_for_bit():
    part, cells = _potential_stack()
    stacked = _box_potentials(part, cells)
    assert stacked.shape == (len(cells), part.n_sites)
    for row, (sample, boosts) in zip(stacked, cells):
        assert np.array_equal(row, _box_potential(part, sample, boosts))
        # the site-by-site oracle: omega of the site's box, plus its boost
        units = {
            tuple(1 if k == i else 0 for k in range(part.d)): lam
            for i, lam in enumerate(boosts or ())
        }
        for value, site in zip(row, part.sites):
            n = part.box_of(site)
            assert value == sample[tuple(k + part.radius for k in n)] + units.get(n, 0.0)


def test_stacked_potential_raises_for_the_failing_cell():
    part, cells = _potential_stack()
    sample, boosts = cells[2]
    lacking = cells[:2] + [(sample[:, 1:], boosts)]  # the boxes n_2 = -2 left out
    with pytest.raises(IncompleteSampleError, match=r"\(5, 4\) for the box grid \(5, 5\)"):
        _box_potentials(part, lacking + cells[3:])
    beyond = cells[:1] + [(cells[1][0], (0.0, 0.0, 0.5))] + cells[2:]
    with pytest.raises(VolumeError, match="3 boosts for d=2 at radius 2"):
        _box_potentials(part, beyond)


def test_box_potentials_take_only_the_partitions_grid_and_d_boosts():
    # omega is the (2R+1,)*d box grid and boosts a length-d vector; radius 0
    # holds no unit box, so only a cell without boosts is accepted there
    part = build_partition(2, (2, 3), radius=1)
    grid = np.arange(9.0).reshape(3, 3)
    for foreign in (np.zeros((5, 5)), np.zeros((3, 3, 3)), np.zeros(9)):
        with pytest.raises(IncompleteSampleError, match=rf"{foreign.shape}.*\(3, 3\)"):
            _box_potentials(part, [(grid, None), (foreign, None)])
    for boosts in ((0.5,), (0.5, 0.5, 0.5)):
        with pytest.raises(VolumeError, match=f"{len(boosts)} boosts for d=2 at radius 1"):
            _box_potentials(part, [(grid, (0.5, 0.5)), (grid, boosts)])
    flat = build_partition(2, (2, 3), radius=0)
    alone = _box_potentials(flat, [(np.full((1, 1), 0.25), None)])
    assert np.array_equal(alone, np.full((1, 6), 0.25))
    with pytest.raises(VolumeError, match="2 boosts for d=2 at radius 0"):
        _box_potentials(flat, [(zero_disorder(flat), None), (zero_disorder(flat), (0.5, 0.5))])
    # the unit boxes +e_1, +e_2 take lambda_1, lambda_2; every other box keeps omega
    boosted = _box_potentials(part, [(grid, (10.0, 20.0))])[0].reshape(part.axis_sizes)
    want = grid + np.array([[0, 0, 0], [0, 0, 20.0], [0, 10.0, 0]])
    assert np.array_equal(boosted[::2, ::3], want)


def test_box_potentials_take_zero_boosts_at_radius_zero():
    # no unit box exists at radius 0, so an all-zero vector is the only one
    # that fits, and it leaves the potential as it was
    flat = build_partition(2, (2, 3), radius=0)
    omega = np.full((1, 1), -0.0)
    plain = _box_potentials(flat, [(omega, None)])
    zeroed = _box_potentials(flat, [(omega, (0.0, -0.0)), (omega, None)])
    assert np.array_equal(zeroed.view(np.uint64), np.vstack([plain, plain]).view(np.uint64))
    for boosts in ((0.0, 1e-300), (0.0, 0.0, 0.0)):
        with pytest.raises(VolumeError, match=f"{len(boosts)} boosts for d=2 at radius 0"):
            _box_potentials(flat, [(omega, boosts)])


def test_cached_laplacian_is_read_only():
    part = build_partition(2, (2, 3), radius=1)
    sample = zero_disorder(part)
    before = build_hamiltonian(part, sample, (0.5, 0.0)).entries
    with pytest.raises(ValueError):
        part.laplacian[0, 1] = 7
    assert part.laplacian is part.laplacian
    assert np.array_equal(part.laplacian, build_laplacian(part).entries)
    assert np.array_equal(build_hamiltonian(part, sample, (0.5, 0.0)).entries, before)


def test_stencil_and_origin_coupling_match_dense_laplacian():
    # integer columns keep the stencil exact; radius 0 has no complement
    rng = np.random.default_rng(0)
    for d, lengths in ((1, (3,)), (2, (2, 3)), (3, (1, 2, 2))):
        for radius in (0, 1, 2):
            part = build_partition(d, lengths, radius)
            lap = build_laplacian(part).entries
            x = rng.integers(-9, 10, size=tuple(part.axis_sizes) + (2,))
            padded, real, strides = ghost_grid(tuple(part.axis_sizes))
            src = np.zeros(padded + (2,), dtype=x.dtype)
            src[real] = x
            flat = src.reshape(-1, 2)
            out = laplacian_into(np.empty_like(flat), flat, strides).reshape(src.shape)
            got = out[real].reshape(part.n_sites, 2)
            assert np.array_equal(got, lap @ x.reshape(part.n_sites, 2))

            block, delta00 = part.origin_coupling
            m0 = box_mask(part, (0,) * d)
            grid = np.zeros(part.axis_sizes, dtype=bool)
            grid[block] = True
            assert np.array_equal(grid.ravel(), m0)
            assert np.array_equal(delta00, lap[np.ix_(m0, m0)])
            assert not delta00.flags.writeable
            assert part.origin_coupling[1] is delta00

            # packed column c holds the c-th even and the c-th odd box-0
            # site's columns of B^T, zero on the ghosts
            bt = (lap[:, m0] * ~m0[:, None]).astype(np.float64)
            parity = np.indices(lengths).reshape(d, -1).sum(axis=0) % 2
            even, odd = bt[:, parity == 0], bt[:, parity == 1]
            even[:, : odd.shape[1]] += odd
            packing = part.sublattice_packing
            padded, real, _ = packing.grid
            packed = packing.bt.reshape(padded + (-1,))
            assert np.array_equal(packed[real].reshape(part.n_sites, -1), even)
            assert not np.any(np.signbit(packing.bt))
            assert packing.bt.sum() == bt.sum() and not packing.bt.flags.writeable


@pytest.mark.parametrize(
    "d, lengths", [(1, (1,)), (1, (3,)), (2, (1, 3)), (3, (2, 1, 2)), (4, (1, 2, 1, 2))]
)
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_flat_stencil_matches_dense_laplacian_on_float_columns(d, lengths, radius):
    # dyadic floats of at most 31 bits sum exactly in any order, so the
    # stencil must equal the dense product; -0.0 inputs must not leave a
    # -0.0 in the sums, which start from 0 like a zero-filled array
    part = build_partition(d, lengths, radius)
    lap = build_laplacian(part).entries.astype(np.float64)
    rng = np.random.default_rng(d * 10 + radius)
    x = rng.integers(-2**20, 2**20, size=tuple(part.axis_sizes) + (3,)) / 1024.0
    x[rng.random(x.shape) < 0.3] = -0.0
    want = lap @ x.reshape(part.n_sites, 3)

    # zeros on the ghosts in, junk on the ghosts out
    padded, real, strides = ghost_grid(tuple(part.axis_sizes))
    src = np.zeros(padded + (3,))
    src[real] = x
    flat = src.reshape(-1, 3)
    out = np.full_like(flat, np.nan)
    assert laplacian_into(out, flat, strides) is out
    got = out.reshape(padded + (3,))[real]
    assert np.array_equal(got.reshape(part.n_sites, 3), want)
    assert not np.any(np.signbit(got[got == 0.0]))


def test_zero_disorder_covers_all_boxes():
    part = build_partition(2, (2, 2), radius=2)
    sample = zero_disorder(part)
    assert sample.shape == (5, 5) and sample.size == len(part.boxes)
    assert np.all(sample == 0.0)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(1, 2),
    data=st.data(),
)
def test_partition_identities_hold_generically(d, data):
    lengths = tuple(
        data.draw(st.integers(1, 3), label=f"l{i}") for i in range(d)
    )
    part = build_partition(d, lengths, radius=1)
    assert partition_of_unity_holds(part)
    lhs, rhs = neighbor_sum_identity(part)
    assert np.array_equal(lhs, rhs)
    direction = data.draw(st.sampled_from(range(1, d + 1)), label="axis")
    sign = data.draw(st.sampled_from((1, -1)), label="sign")
    prod, ind = face_product(part, sign * direction)
    assert np.array_equal(prod, ind)
