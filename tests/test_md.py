"""Tests for the MD substrate: cells, neighbor lists, potentials,
integrators, and dataset generation."""

import numpy as np
import pytest

from repro.md.cell import PeriodicCell
from repro.md.dataset import Frame, FrameDataset, Trajectory
from repro.md.integrator import (
    EV_A_AMU,
    LangevinIntegrator,
    VelocityVerlet,
    instantaneous_temperature,
    kinetic_energy,
    maxwell_boltzmann_velocities,
)
from repro.md.neighbors import NeighborList, neighbor_pairs
from repro.md.potentials import (
    BornMayerHuggins,
    CompositePotential,
    DSFCoulomb,
    LennardJones,
)
from repro.md.system import (
    molten_salt_composition,
    molten_salt_potential,
    molten_salt_system,
)
from tests.neighbor_reference import image_shifts


class TestPeriodicCell:
    def test_cubic_from_scalar(self):
        cell = PeriodicCell(10.0)
        assert np.allclose(cell.lengths, [10.0, 10.0, 10.0])
        assert cell.is_cubic

    def test_orthorhombic(self):
        cell = PeriodicCell([5.0, 10.0, 15.0])
        assert not cell.is_cubic
        assert cell.volume == 750.0

    def test_invalid_lengths_raise(self):
        with pytest.raises(ValueError):
            PeriodicCell([1.0, 2.0])
        with pytest.raises(ValueError):
            PeriodicCell(-1.0)

    def test_wrap(self):
        cell = PeriodicCell(10.0)
        wrapped = cell.wrap(np.array([[11.0, -1.0, 5.0]]))
        assert np.allclose(wrapped, [[1.0, 9.0, 5.0]])

    def test_minimum_image(self):
        cell = PeriodicCell(10.0)
        d = cell.minimum_image(np.array([9.0, -9.0, 4.0]))
        assert np.allclose(d, [-1.0, 1.0, 4.0])

    def test_distance_through_boundary(self):
        cell = PeriodicCell(10.0)
        d = cell.distance(np.array([0.5, 0.0, 0.0]), np.array([9.5, 0.0, 0.0]))
        assert np.isclose(d, 1.0)

    def test_max_cutoff(self):
        assert PeriodicCell([8.0, 10.0, 12.0]).max_cutoff() == 4.0

    def test_image_shifts_small_cutoff(self):
        cell = PeriodicCell(10.0)
        shifts = image_shifts(cell, 4.0)
        assert len(shifts) == 27  # one shell

    def test_image_shifts_large_cutoff(self):
        cell = PeriodicCell(10.0)
        shifts = image_shifts(cell, 12.0)
        assert len(shifts) == 125  # two shells


class TestNeighborPairs:
    def test_simple_pair(self):
        cell = PeriodicCell(10.0)
        pos = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        i, j, d = neighbor_pairs(pos, cell, cutoff=2.0)
        assert len(i) == 1
        assert np.isclose(np.linalg.norm(d[0]), 1.5)

    def test_pair_through_boundary(self):
        cell = PeriodicCell(10.0)
        pos = np.array([[0.5, 5.0, 5.0], [9.5, 5.0, 5.0]])
        i, j, d = neighbor_pairs(pos, cell, cutoff=2.0)
        assert len(i) == 1
        assert np.isclose(np.linalg.norm(d[0]), 1.0)

    def test_no_pairs_beyond_cutoff(self):
        cell = PeriodicCell(10.0)
        pos = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        i, j, d = neighbor_pairs(pos, cell, cutoff=2.0)
        assert len(i) == 0

    def test_cutoff_beyond_half_box_finds_images(self):
        cell = PeriodicCell(4.0)
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        # with cutoff 6 the pair appears multiple times through images,
        # and each atom also sees its own periodic images
        i, j, d = neighbor_pairs(pos, cell, cutoff=6.0)
        dists = np.linalg.norm(d, axis=1)
        assert np.all(dists <= 6.0)
        assert np.any(i == j)  # self-image pairs exist
        # direct pair at distance 2 present
        cross = dists[(i != j)]
        assert np.isclose(cross.min(), 2.0)

    def test_each_unordered_pair_once(self):
        cell = PeriodicCell(20.0)
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 20, size=(12, 3))
        i, j, d = neighbor_pairs(pos, cell, cutoff=6.0)
        seen = set()
        for a, b in zip(i, j):
            key = (min(a, b), max(a, b))
            assert key not in seen
            seen.add(key)


class TestNeighborList:
    def test_counts_match_pairs(self):
        cell = PeriodicCell(12.0)
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 12, size=(10, 3))
        nl = NeighborList.build(pos, cell, cutoff=4.0)
        i, j, d = neighbor_pairs(pos, cell, cutoff=4.0)
        assert nl.neighbor_counts().sum() == 2 * len(i)

    def test_displacement_distances_within_cutoff(self):
        cell = PeriodicCell(12.0)
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 12, size=(10, 3))
        nl = NeighborList.build(pos, cell, cutoff=4.0)
        r = np.linalg.norm(nl.displacements, axis=-1)
        assert np.all(r[nl.mask.astype(bool)] <= 4.0)

    def test_fixed_width_padding(self):
        cell = PeriodicCell(12.0)
        pos = np.random.default_rng(3).uniform(0, 12, size=(8, 3))
        nl = NeighborList.build(pos, cell, cutoff=4.0, max_neighbors=30)
        assert nl.max_neighbors == 30

    def test_fixed_width_too_small_raises(self):
        cell = PeriodicCell(6.0)
        pos = np.random.default_rng(4).uniform(0, 6, size=(10, 3))
        with pytest.raises(ValueError, match="max_neighbors"):
            NeighborList.build(pos, cell, cutoff=5.0, max_neighbors=1)

    def test_neighbors_sorted_by_distance(self):
        cell = PeriodicCell(20.0)
        pos = np.array(
            [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )
        nl = NeighborList.build(pos, cell, cutoff=5.0)
        r0 = np.linalg.norm(nl.displacements[0], axis=-1)
        valid = nl.mask[0].astype(bool)
        assert np.all(np.diff(r0[valid]) >= 0)


class TestLennardJones:
    def test_minimum_at_sigma_2_1_6(self):
        lj = LennardJones(epsilon=0.01, sigma=3.0, cutoff=9.0)
        r_min = 3.0 * 2 ** (1.0 / 6.0)
        u_min, f_min = lj.pair_energy_and_scalar_force(
            np.array([r_min]), np.array([0]), np.array([0])
        )
        assert abs(f_min[0]) < 1e-10

    def test_energy_shifted_to_zero_at_cutoff(self):
        lj = LennardJones(cutoff=9.0)
        u, _ = lj.pair_energy_and_scalar_force(
            np.array([9.0]), np.array([0]), np.array([0])
        )
        assert np.isclose(u[0], 0.0)

    def test_forces_are_negative_gradient(self):
        lj = LennardJones()
        cell = PeriodicCell(20.0)
        pos = np.array([[5.0, 5.0, 5.0], [8.4, 5.0, 5.0]])
        species = np.zeros(2, dtype=int)
        _, forces = lj.energy_and_forces(pos, species, cell)
        eps = 1e-6
        for k in range(3):
            p = pos.copy()
            p[0, k] += eps
            ep, _ = lj.energy_and_forces(p, species, cell)
            p[0, k] -= 2 * eps
            em, _ = lj.energy_and_forces(p, species, cell)
            assert np.isclose(forces[0, k], -(ep - em) / (2 * eps), atol=1e-5)

    def test_newton_third_law(self):
        lj = LennardJones()
        cell = PeriodicCell(20.0)
        pos = np.random.default_rng(5).uniform(4, 16, size=(6, 3))
        _, forces = lj.energy_and_forces(pos, np.zeros(6, dtype=int), cell)
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-12)


class TestBornMayerHuggins:
    def _bmh(self):
        A = np.full((2, 2), 1000.0)
        rho = np.full((2, 2), 0.3)
        C = np.full((2, 2), 10.0)
        return BornMayerHuggins(A=A, rho=rho, C=C, cutoff=6.0)

    def test_repulsive_at_short_range(self):
        bmh = self._bmh()
        u, f = bmh.pair_energy_and_scalar_force(
            np.array([1.0]), np.array([0]), np.array([1])
        )
        assert f[0] > 0.0  # pushes apart

    def test_shift_zeroes_cutoff_energy(self):
        bmh = self._bmh()
        u, _ = bmh.pair_energy_and_scalar_force(
            np.array([6.0]), np.array([0]), np.array([0])
        )
        assert np.isclose(u[0], 0.0)

    def test_asymmetric_tables_rejected(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        sym = np.full((2, 2), 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            BornMayerHuggins(A=A, rho=sym, C=sym)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BornMayerHuggins(
                A=np.ones((2, 2)), rho=np.ones((3, 3)), C=np.ones((2, 2))
            )


class TestDSFCoulomb:
    def test_force_zero_at_cutoff(self):
        pot = DSFCoulomb([1.0, -1.0], alpha=0.2, cutoff=8.0)
        _, f = pot.pair_energy_and_scalar_force(
            np.array([8.0]), np.array([0]), np.array([1])
        )
        assert np.isclose(f[0], 0.0, atol=1e-12)

    def test_energy_zero_at_cutoff(self):
        pot = DSFCoulomb([1.0, -1.0], alpha=0.2, cutoff=8.0)
        u, _ = pot.pair_energy_and_scalar_force(
            np.array([8.0]), np.array([0]), np.array([1])
        )
        assert np.isclose(u[0], 0.0, atol=1e-12)

    def test_opposite_charges_attract(self):
        pot = DSFCoulomb([1.0, -1.0], alpha=0.2, cutoff=8.0)
        _, f = pot.pair_energy_and_scalar_force(
            np.array([3.0]), np.array([0]), np.array([1])
        )
        assert f[0] < 0.0  # attractive: pulls together

    def test_like_charges_repel(self):
        pot = DSFCoulomb([1.0, -1.0], alpha=0.2, cutoff=8.0)
        _, f = pot.pair_energy_and_scalar_force(
            np.array([3.0]), np.array([0]), np.array([0])
        )
        assert f[0] > 0.0

    def test_force_consistency_finite_difference(self):
        pot = DSFCoulomb([2.0, -1.0], alpha=0.25, cutoff=7.0)
        r = np.array([3.7])
        si, sj = np.array([0]), np.array([1])
        u0, f0 = pot.pair_energy_and_scalar_force(r, si, sj)
        eps = 1e-6
        up, _ = pot.pair_energy_and_scalar_force(r + eps, si, sj)
        um, _ = pot.pair_energy_and_scalar_force(r - eps, si, sj)
        assert np.isclose(f0[0], -(up[0] - um[0]) / (2 * eps), rtol=1e-5)


class TestCompositePotential:
    def test_sums_terms(self):
        lj1 = LennardJones(epsilon=0.01)
        lj2 = LennardJones(epsilon=0.02)
        comp = CompositePotential([lj1, lj2])
        r = np.array([3.5])
        s = np.array([0])
        u1, f1 = lj1.pair_energy_and_scalar_force(r, s, s)
        u2, f2 = lj2.pair_energy_and_scalar_force(r, s, s)
        uc, fc = comp.pair_energy_and_scalar_force(r, s, s)
        assert np.isclose(uc[0], u1[0] + u2[0])
        assert np.isclose(fc[0], f1[0] + f2[0])

    def test_cutoff_is_max(self):
        comp = CompositePotential(
            [LennardJones(cutoff=5.0), LennardJones(cutoff=9.0)]
        )
        assert comp.cutoff == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositePotential([])

    def test_respects_member_cutoffs(self):
        comp = CompositePotential(
            [LennardJones(cutoff=4.0), LennardJones(cutoff=8.0)]
        )
        # at r=6 only the second term contributes
        u, _ = comp.pair_energy_and_scalar_force(
            np.array([6.0]), np.array([0]), np.array([0])
        )
        u2, _ = LennardJones(cutoff=8.0).pair_energy_and_scalar_force(
            np.array([6.0]), np.array([0]), np.array([0])
        )
        assert np.isclose(u[0], u2[0])


class TestMoltenSaltSystem:
    def test_paper_composition_160_atoms(self):
        species = molten_salt_composition(32, 16)
        assert len(species) == 160
        counts = np.bincount(species)
        assert counts[0] == 32  # Al
        assert counts[1] == 16  # K
        assert counts[2] == 112  # Cl

    def test_charge_neutrality(self):
        from repro.md.system import ALCL3_KCL_CHARGES, SPECIES

        species = molten_salt_composition(4, 2)
        q = sum(ALCL3_KCL_CHARGES[SPECIES[s]] for s in species)
        assert q == 0.0

    def test_paper_box_size(self):
        system = molten_salt_system(32, 16, rng=0)
        assert np.isclose(system.cell.lengths[0], 17.84, atol=0.01)

    def test_scaled_system_preserves_density(self):
        small = molten_salt_system(4, 2, rng=0)
        big = molten_salt_system(32, 16, rng=0)
        assert np.isclose(
            small.cell.volume / small.n_atoms,
            big.cell.volume / big.n_atoms,
        )

    def test_min_separation_respected(self):
        system = molten_salt_system(4, 2, rng=0, min_separation=2.0)
        i, j, d = neighbor_pairs(
            system.positions, system.cell, cutoff=2.0
        )
        assert len(i) == 0

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            molten_salt_composition(0, 0)


class TestIntegrators:
    def test_maxwell_boltzmann_temperature(self):
        masses = np.full(500, 30.0)
        v = maxwell_boltzmann_velocities(masses, 500.0, rng=0)
        T = instantaneous_temperature(masses, v)
        assert abs(T - 500.0) / 500.0 < 0.15

    def test_maxwell_boltzmann_zero_com(self):
        masses = np.array([10.0, 20.0, 30.0])
        v = maxwell_boltzmann_velocities(masses, 300.0, rng=1)
        p = (masses[:, None] * v).sum(axis=0)
        assert np.allclose(p, 0.0, atol=1e-12)

    def test_kinetic_energy_units(self):
        # KE of one particle: 0.5 m v^2 / conversion
        masses = np.array([10.0])
        v = np.array([[0.01, 0.0, 0.0]])
        ke = kinetic_energy(masses, v)
        assert np.isclose(ke, 0.5 * 10.0 * 1e-4 / EV_A_AMU)

    def test_nve_energy_conservation(self):
        system = molten_salt_system(4, 2, rng=10)
        cutoff = 0.99 * system.cell.max_cutoff()
        pot = molten_salt_potential(cutoff=cutoff)
        # brief thermalization
        lang = LangevinIntegrator(pot, 498.0, dt=1.0, rng=11)
        v = maxwell_boltzmann_velocities(system.masses, 498.0, rng=12)
        _, v = lang.run(system, v, 200)
        vv = VelocityVerlet(pot, dt=0.5)
        totals = []

        def cb(step, pos, vel, e, f):
            totals.append(e + kinetic_energy(system.masses, vel))

        vv.run(system, v, 200, callback=cb)
        totals = np.array(totals)
        drift = (totals.max() - totals.min()) / abs(totals.mean())
        assert drift < 1e-3

    def test_langevin_reaches_target_temperature(self):
        system = molten_salt_system(4, 2, rng=20)
        cutoff = 0.99 * system.cell.max_cutoff()
        pot = molten_salt_potential(cutoff=cutoff)
        lang = LangevinIntegrator(pot, 498.0, friction=0.05, dt=1.0, rng=21)
        v = maxwell_boltzmann_velocities(system.masses, 100.0, rng=22)
        temps = []

        def cb(step, pos, vel, e, f):
            if step > 400:
                temps.append(
                    instantaneous_temperature(system.masses, vel)
                )

        lang.run(system, v, 800, callback=cb)
        mean_T = np.mean(temps)
        # small system: generous tolerance around the target
        assert 300.0 < mean_T < 750.0


class TestFrameDataset:
    def _frames(self, n=8):
        rng = np.random.default_rng(0)
        species = np.array([0, 1, 2, 2])
        return [
            Frame(
                positions=rng.uniform(0, 5, size=(4, 3)),
                species=species,
                energy=float(rng.normal()),
                forces=rng.normal(size=(4, 3)),
                box=np.full(3, 5.0),
            )
            for _ in range(n)
        ]

    def test_split_fractions(self):
        ds = FrameDataset(self._frames(8), validation_fraction=0.25, rng=0)
        assert len(ds.validation) == 2
        assert len(ds.train) == 6

    def test_split_is_shuffled_partition(self):
        frames = self._frames(8)
        ds = FrameDataset(frames, validation_fraction=0.25, rng=0)
        all_ids = {id(f) for f in ds.train} | {id(f) for f in ds.validation}
        assert all_ids == {id(f) for f in frames}

    def test_arrays_shapes(self):
        ds = FrameDataset(self._frames(8), rng=0)
        arr = ds.arrays("train")
        assert arr["coord"].shape == (6, 4, 3)
        assert arr["energy"].shape == (6,)
        assert arr["force"].shape == (6, 4, 3)
        assert arr["box"].shape == (6, 3)

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            FrameDataset([])

    def test_mismatched_atom_counts_rejected(self):
        frames = self._frames(2)
        bad = Frame(
            positions=np.zeros((5, 3)),
            species=np.zeros(5, dtype=int),
            energy=0.0,
            forces=np.zeros((5, 3)),
            box=np.full(3, 5.0),
        )
        with pytest.raises(ValueError, match="same atom count"):
            FrameDataset(frames + [bad])

    def test_save_load_roundtrip(self, tmp_path):
        ds = FrameDataset(self._frames(8), rng=0)
        ds.save(tmp_path / "data")
        loaded = FrameDataset.load(tmp_path / "data")
        assert len(loaded.train) == len(ds.train)
        assert len(loaded.validation) == len(ds.validation)
        assert np.allclose(
            loaded.train[0].positions, ds.train[0].positions
        )
        assert np.isclose(loaded.train[0].energy, ds.train[0].energy)

    def test_energy_statistics(self):
        ds = FrameDataset(self._frames(8), rng=0)
        stats = ds.energy_statistics()
        e = np.array([f.energy for f in ds.train])
        assert np.isclose(stats["mean"], e.mean())
        assert np.isclose(stats["per_atom_mean"], e.mean() / 4)

    def test_trajectory_slicing(self):
        traj = Trajectory(self._frames(5))
        assert len(traj[1:3]) == 2
        assert isinstance(traj[0], Frame)

    def test_generate_dataset_end_to_end(self, small_dataset):
        assert small_dataset.n_atoms == 20
        assert len(small_dataset.train) == 24
        assert len(small_dataset.validation) == 8
        # reference labels physically sane
        f = small_dataset.train[0]
        assert np.isfinite(f.energy)
        assert np.isfinite(f.forces).all()
        assert f.energy < 0.0  # bound melt
