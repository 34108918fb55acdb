"""Physics-validation tests: observables (RDF/MSD/VACF) and the Ewald
reference for the DSF electrostatics."""

import numpy as np
import pytest

from repro.md.cell import PeriodicCell
from repro.md.dataset import Frame, generate_dataset
from repro.md.ewald import EwaldCoulomb, madelung_nacl
from repro.md.observables import (
    mean_squared_displacement,
    radial_distribution,
    velocity_autocorrelation,
)
from repro.md.potentials import DSFCoulomb


@pytest.fixture(scope="module")
def melt_frames():
    ds = generate_dataset(
        n_frames=30,
        n_alcl3=4,
        n_kcl=2,
        equilibration_steps=300,
        sample_interval=5,
        rng=31,
    )
    return ds.train + ds.validation


class TestRDF:
    def test_ideal_gas_is_flat(self):
        """Uniform random points have g(r) ~ 1 away from r=0."""
        rng = np.random.default_rng(0)
        frames = [
            Frame(
                positions=rng.uniform(0, 12, size=(200, 3)),
                species=np.zeros(200, dtype=int),
                energy=0.0,
                forces=np.zeros((200, 3)),
                box=np.full(3, 12.0),
            )
            for _ in range(5)
        ]
        rdf = radial_distribution(frames, n_bins=30)
        tail = rdf.g[len(rdf.g) // 2 :]
        assert abs(tail.mean() - 1.0) < 0.1

    def test_melt_shows_structure(self, melt_frames):
        """The molten salt has a first coordination peak well above 1."""
        rdf = radial_distribution(melt_frames, n_bins=60)
        pos, height = rdf.first_peak()
        assert height > 1.5
        assert 1.5 < pos < 4.0

    def test_cation_anion_peak_before_cation_cation(self, melt_frames):
        """Charge ordering: the Al-Cl peak sits at shorter range than
        Al-Al (unlike charges attract)."""
        al_cl = radial_distribution(
            melt_frames, n_bins=60, species_a=0, species_b=2
        )
        al_al = radial_distribution(
            melt_frames, n_bins=60, species_a=0, species_b=0
        )
        pos_ac, _ = al_cl.first_peak()
        # Al-Al: find first bin where g exceeds 0.5 as a proxy for
        # the approach distance
        approach = al_al.r[np.argmax(al_al.g > 0.5)]
        assert pos_ac < approach + 1.0

    def test_species_resolution_requires_atoms(self, melt_frames):
        with pytest.raises(ValueError, match="no atoms"):
            radial_distribution(melt_frames, species_a=7)

    def test_r_max_bounded_by_box(self, melt_frames):
        with pytest.raises(ValueError, match="minimum-image"):
            radial_distribution(melt_frames, r_max=100.0)

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            radial_distribution([])


class TestMSD:
    def test_ballistic_motion_quadratic(self):
        """Constant-velocity particles: MSD = (v t)^2."""
        cell = PeriodicCell(100.0)
        v = np.array([0.1, 0.0, 0.0])
        traj = np.array(
            [np.tile(v * t, (5, 1)) + 50.0 for t in range(20)]
        )
        msd = mean_squared_displacement(traj, cell)
        expected = (0.1 * msd.lag_steps) ** 2
        assert np.allclose(msd.msd, expected, rtol=1e-10)

    def test_unwrapping_across_boundary(self):
        """A particle drifting through the periodic boundary must not
        show an MSD jump."""
        cell = PeriodicCell(10.0)
        xs = (9.5 + 0.2 * np.arange(10)) % 10.0
        traj = np.zeros((10, 1, 3))
        traj[:, 0, 0] = xs
        msd = mean_squared_displacement(traj, cell)
        expected = (0.2 * msd.lag_steps) ** 2
        assert np.allclose(msd.msd, expected, atol=1e-12)

    def test_static_particles_zero(self):
        cell = PeriodicCell(10.0)
        traj = np.ones((8, 3, 3))
        msd = mean_squared_displacement(traj, cell)
        assert np.allclose(msd.msd, 0.0)

    def test_diffusion_coefficient_positive_for_melt(self, melt_frames):
        cell = melt_frames[0].cell
        traj = np.stack([f.positions for f in melt_frames])
        msd = mean_squared_displacement(traj, cell)
        D = msd.diffusion_coefficient(dt_fs=10.0)
        assert D > 0.0

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            mean_squared_displacement(
                np.zeros((1, 2, 3)), PeriodicCell(5.0)
            )


class TestVACF:
    def test_starts_at_one(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(20, 10, 3))
        vacf = velocity_autocorrelation(v)
        assert np.isclose(vacf[0], 1.0)

    def test_uncorrelated_noise_decays(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(200, 50, 3))
        vacf = velocity_autocorrelation(v, max_lag=20)
        assert np.all(np.abs(vacf[1:]) < 0.2)

    def test_constant_velocity_stays_one(self):
        v = np.ones((30, 5, 3))
        vacf = velocity_autocorrelation(v)
        assert np.allclose(vacf, 1.0)


class TestEwald:
    def test_madelung_constant(self):
        """Absolute correctness anchor: rock-salt Madelung constant."""
        M = madelung_nacl(n_cells=2, k_max=8)
        assert abs(M - 1.747565) < 5e-3

    def test_forces_are_negative_gradient(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 8, size=(6, 3))
        species = np.array([0, 0, 0, 1, 1, 1])
        cell = PeriodicCell(8.0)
        ewald = EwaldCoulomb([1.0, -1.0], k_max=6)
        _, forces = ewald.energy_and_forces(pos, species, cell)
        eps = 1e-5
        for k in range(3):
            p = pos.copy()
            p[1, k] += eps
            ep, _ = ewald.energy_and_forces(p, species, cell)
            p[1, k] -= 2 * eps
            em, _ = ewald.energy_and_forces(p, species, cell)
            assert np.isclose(
                forces[1, k], -(ep - em) / (2 * eps), atol=1e-6
            )

    def test_forces_sum_to_zero(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 9, size=(8, 3))
        species = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        ewald = EwaldCoulomb([1.0, -1.0], k_max=6)
        _, forces = ewald.energy_and_forces(
            pos, species, PeriodicCell(9.0)
        )
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 8, size=(6, 3))
        species = np.array([0, 0, 0, 1, 1, 1])
        cell = PeriodicCell(8.0)
        ewald = EwaldCoulomb([1.0, -1.0], k_max=6)
        e1, _ = ewald.energy_and_forces(pos, species, cell)
        e2, _ = ewald.energy_and_forces(
            cell.wrap(pos + 2.7), species, cell
        )
        assert np.isclose(e1, e2, atol=1e-8)

    def test_dsf_approximates_ewald_for_neutral_melt(self):
        """The production DSF electrostatics track the exact Ewald
        energy differences (what forces/dynamics care about)."""
        rng = np.random.default_rng(4)
        cell = PeriodicCell(10.0)
        species = np.array([0, 0, 0, 0, 1, 1, 1, 1])

        def both(pos):
            ewald = EwaldCoulomb([1.0, -1.0], k_max=7)
            dsf = DSFCoulomb([1.0, -1.0], alpha=0.25, cutoff=4.9)
            e_ew, _ = ewald.energy_and_forces(pos, species, cell)
            e_dsf, _ = dsf.energy_and_forces(pos, species, cell)
            return e_ew, e_dsf

        # energy *differences* between two configurations
        pos1 = rng.uniform(2, 8, size=(8, 3))
        pos2 = pos1 + rng.normal(0, 0.3, size=(8, 3))
        ew1, dsf1 = both(pos1)
        ew2, dsf2 = both(pos2)
        d_ew = ew2 - ew1
        d_dsf = dsf2 - dsf1
        # same sign and same order of magnitude
        assert np.sign(d_ew) == np.sign(d_dsf)
        assert abs(d_dsf - d_ew) < 0.5 * max(abs(d_ew), 1.0)
