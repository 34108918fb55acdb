"""Tests for the extension modules: potential deployment, asynchronous
steady-state NSGA-II, the NAS representation, and campaign storage."""

import numpy as np
import pytest

from repro.deepmd.calculator import (
    DeepPotCalculator,
    force_rmse_along_trajectory,
)
from repro.deepmd.descriptor import DescriptorConfig
from repro.deepmd.model import DeepPotModel, ModelConfig
from repro.deepmd.training import Trainer, TrainingConfig
from repro.chaos import Fault, FaultPlan
from repro.engine import ProcessPoolBackend
from repro.evo.asynchronous import steady_state_nsga2
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.nas import (
    NAS_GENE_NAMES,
    NASRepresentation,
    NASSurrogateProblem,
    run_nas_nsga2,
)
from repro.hpo.representation import DeepMDRepresentation
from repro.injection import use_injector
from repro.io import (
    export_frontier_csv,
    export_level_plot_csv,
    export_parallel_coordinates_csv,
    load_campaign,
    save_campaign,
)


@pytest.fixture(scope="module")
def trained_model(small_dataset):
    config = ModelConfig(
        descriptor=DescriptorConfig(rcut=4.0, rcut_smth=1.5),
        embedding_widths=(4, 8),
        axis_neurons=3,
        fitting_widths=(8,),
    )
    model = DeepPotModel(config, rng=0)
    Trainer(
        model,
        small_dataset,
        TrainingConfig(numb_steps=40, batch_size=2, disp_freq=40),
        rng=1,
    ).train()
    return model


class TestDeepPotCalculator:
    def test_potential_interface(self, trained_model, small_dataset):
        calc = DeepPotCalculator(trained_model)
        frame = small_dataset.validation[0]
        energy, forces = calc.energy_and_forces(
            frame.positions, frame.species, frame.cell
        )
        assert np.isfinite(energy)
        assert forces.shape == frame.forces.shape

    def test_forces_sum_to_zero(self, trained_model, small_dataset):
        calc = DeepPotCalculator(trained_model)
        frame = small_dataset.validation[0]
        _, forces = calc.energy_and_forces(
            frame.positions, frame.species, frame.cell
        )
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-8)

    def test_padding_width_invariance(self, trained_model, small_dataset):
        """A trained model must predict identically regardless of the
        neighbor-table padding (the descriptor_norm design)."""
        frame = small_dataset.validation[0]
        c1 = DeepPotCalculator(trained_model)
        c2 = DeepPotCalculator(trained_model, max_neighbors=60)
        e1, f1 = c1.energy_and_forces(
            frame.positions, frame.species, frame.cell
        )
        e2, f2 = c2.energy_and_forces(
            frame.positions, frame.species, frame.cell
        )
        assert np.isclose(e1, e2)
        assert np.allclose(f1, f2)

    def test_runs_md(self, trained_model, small_dataset):
        """The learned potential can drive the same integrator that
        generated the training data — the deployment loop closes."""
        from repro.md.integrator import (
            LangevinIntegrator,
            maxwell_boltzmann_velocities,
        )
        from repro.md.system import molten_salt_system

        system = molten_salt_system(4, 2, rng=5)
        calc = DeepPotCalculator(trained_model)
        integrator = LangevinIntegrator(calc, 498.0, dt=0.5, rng=6)
        v = maxwell_boltzmann_velocities(system.masses, 498.0, rng=7)
        pos, vel = integrator.run(system, v, 10)
        assert np.isfinite(pos).all()
        assert np.isfinite(vel).all()

    def test_trajectory_rmse(self, trained_model, small_dataset):
        calc = DeepPotCalculator(trained_model)
        rmse = force_rmse_along_trajectory(
            calc, small_dataset.validation[:4]
        )
        assert rmse.shape == (4,)
        assert np.all(rmse > 0.0)
        assert np.all(np.isfinite(rmse))

    @staticmethod
    def nve_energy_spread(calculator, dt: float, steps: int = 400) -> float:
        """Spread (max - min) of the total energy along a velocity-Verlet
        trajectory on the learned surface, relative to the initial
        kinetic energy."""
        from repro.md.integrator import (
            VelocityVerlet,
            kinetic_energy,
            maxwell_boltzmann_velocities,
        )
        from repro.md.system import molten_salt_system

        system = molten_salt_system(4, 2, rng=5)
        velocities = maxwell_boltzmann_velocities(system.masses, 300.0, rng=7)
        ke0 = kinetic_energy(system.masses, velocities)
        e0, _ = calculator.energy_and_forces(
            system.positions, system.species, system.cell
        )
        totals = [e0 + ke0]

        def record(step, positions, v, energy, forces):
            totals.append(energy + kinetic_energy(system.masses, v))

        VelocityVerlet(calculator, dt=dt).run(
            system, velocities, steps, callback=record
        )
        return (max(totals) - min(totals)) / ke0

    def test_nve_conserves_energy(self, trained_model):
        """An independent oracle for the forces: NVE dynamics on the
        learned surface conserve its total energy, and the error falls
        as dt^2 — which a force that is not the energy's gradient
        cannot do (measured: 2.6e-8 at 0.5 fs, 6.1e-9 at 0.25 fs)."""
        calc = DeepPotCalculator(trained_model)
        coarse = self.nve_energy_spread(calc, dt=0.5)
        fine = self.nve_energy_spread(calc, dt=0.25)
        assert coarse <= 1e-7
        assert fine <= coarse / 3.0

    def test_nve_oracle_catches_an_inconsistent_force(self, trained_model):
        class OnePercentStrong(DeepPotCalculator):
            def energy_and_forces(self, positions, species, cell):
                energy, forces = super().energy_and_forces(
                    positions, species, cell
                )
                return energy, 1.01 * forces

        # measured 3.6e-4: three thousand times the bound above
        assert self.nve_energy_spread(
            OnePercentStrong(trained_model), dt=0.5
        ) > 1e-5

    def test_pairwise_interface_rejected(self, trained_model):
        calc = DeepPotCalculator(trained_model)
        with pytest.raises(NotImplementedError):
            calc.pair_energy_and_scalar_force(
                np.array([1.0]), np.array([0]), np.array([0])
            )


@pytest.fixture(scope="class")
def pool():
    with ProcessPoolBackend(workers=2) as backend:
        yield backend


class TestSteadyStateNSGA2:
    @pytest.fixture(autouse=True)
    def _pool(self, pool):
        self.pool = pool

    def _run(self, **over):
        kwargs = dict(
            problem=SurrogateDeepMDProblem(seed=0),
            init_ranges=DeepMDRepresentation.init_ranges,
            initial_std=DeepMDRepresentation.mutation_std,
            pop_size=16,
            max_evaluations=64,
            hard_bounds=DeepMDRepresentation.bounds,
            decoder=DeepMDRepresentation.decoder(),
            rng=0,
        )
        kwargs.update(over)
        return steady_state_nsga2(client=self.pool, **kwargs)

    @staticmethod
    def _evaluated(records):
        return [ind for rec in records for ind in rec.evaluated]

    def test_budget_respected(self):
        records = self._run()
        assert len(self._evaluated(records)) == 64
        assert [len(rec.evaluated) for rec in records] == [16] * 4

    def test_population_size_maintained(self):
        records = self._run()
        assert all(len(rec.population) == 16 for rec in records)

    def test_all_evaluated(self):
        records = self._run()
        assert all(ind.is_evaluated for ind in self._evaluated(records))

    def test_improves_over_initial(self):
        records = self._run(max_evaluations=200)
        initial = [
            i.fitness[1]
            for i in self._evaluated(records)[:16]
            if i.is_viable
        ]
        final = [
            i.fitness[1] for i in records[-1].population if i.is_viable
        ]
        assert np.median(final) < np.median(initial)

    def test_budget_below_population_rejected(self):
        with pytest.raises(ValueError):
            self._run(max_evaluations=4)

    def test_survives_worker_faults(self):
        plan = FaultPlan(
            [Fault("worker_death", at=3), Fault("worker_death", at=30)]
        )
        injector = plan.injector()
        with use_injector(injector), ProcessPoolBackend(workers=2) as pool:
            records = steady_state_nsga2(
                problem=SurrogateDeepMDProblem(seed=0),
                init_ranges=DeepMDRepresentation.init_ranges,
                initial_std=DeepMDRepresentation.mutation_std,
                pop_size=12,
                max_evaluations=48,
                client=pool,
                hard_bounds=DeepMDRepresentation.bounds,
                decoder=DeepMDRepresentation.decoder(),
                rng=0,
            )
        assert len(injector.fired("worker_death")) == 2
        assert len(self._evaluated(records)) == 48
        assert not any(
            "WorkerFailure" in ind.metadata.get("error", "")
            for ind in self._evaluated(records)
        )


class TestNASRepresentation:
    def test_eleven_genes(self):
        assert len(NAS_GENE_NAMES) == 11
        assert NAS_GENE_NAMES[:7] == DeepMDRepresentation.gene_names

    def test_decoder_integer_architecture_genes(self):
        decoder = NASRepresentation.decoder()
        genome = np.array(
            [1e-3, 1e-5, 8.0, 3.0, 2.2, 4.9, 0.3, 2.7, 16.9, 1.1, 32.5]
        )
        phenome = decoder.decode(genome)
        assert phenome["embedding_depth"] == 2
        assert phenome["embedding_width"] == 16
        assert phenome["fitting_depth"] == 1
        assert phenome["fitting_width"] == 32

    def test_decoder_clips_boundary_values(self):
        decoder = NASRepresentation.decoder()
        genome = np.zeros(11)
        genome[2], genome[3] = 8.0, 3.0  # valid radii
        genome[7] = 4.0  # embedding_depth at the top bound
        genome[8] = 33.0
        genome[9] = 0.5
        genome[10] = 8.0
        phenome = decoder.decode(genome)
        assert phenome["embedding_depth"] == 3
        assert phenome["embedding_width"] == 32
        assert phenome["fitting_depth"] == 1

    def test_architecture_shapes(self):
        phenome = {
            "embedding_depth": 3,
            "embedding_width": 8,
            "fitting_depth": 2,
            "fitting_width": 24,
        }
        arch = NASRepresentation.architecture_of(phenome)
        assert arch["embedding_widths"] == (8, 16, 32)
        assert arch["fitting_widths"] == (24, 24)

    def test_wrong_length_rejected(self):
        from repro.exceptions import DecodeError

        with pytest.raises(DecodeError):
            NASRepresentation.decoder().decode(np.zeros(7))


class TestNASSurrogate:
    def _phenome(self, **over):
        base = {
            "start_lr": 4e-3,
            "stop_lr": 1e-4,
            "rcut": 11.0,
            "rcut_smth": 2.2,
            "scale_by_worker": "none",
            "desc_activ_func": "tanh",
            "fitting_activ_func": "tanh",
            "embedding_depth": 2,
            "embedding_width": 12,
            "fitting_depth": 2,
            "fitting_width": 24,
        }
        base.update(over)
        return base

    def test_tiny_networks_underfit(self):
        prob = NASSurrogateProblem(seed=0)
        _, f_tiny = prob.mean_objectives(
            self._phenome(
                embedding_depth=1, embedding_width=4,
                fitting_depth=1, fitting_width=8,
            )
        )
        _, f_ok = prob.mean_objectives(self._phenome())
        assert f_tiny > f_ok

    def test_capacity_diminishing_returns(self):
        prob = NASSurrogateProblem(seed=0)
        _, f_mid = prob.mean_objectives(self._phenome())
        _, f_huge = prob.mean_objectives(
            self._phenome(
                embedding_depth=3, embedding_width=32,
                fitting_depth=3, fitting_width=64,
            )
        )
        # huge nets are not dramatically better (may be slightly worse)
        assert abs(f_huge - f_mid) < 0.01

    def test_runtime_grows_with_capacity(self):
        prob = NASSurrogateProblem(seed=0)
        _, meta_small = prob.evaluate_with_metadata(
            self._phenome(embedding_width=4, fitting_width=8)
        )
        _, meta_big = prob.evaluate_with_metadata(
            self._phenome(
                embedding_depth=3, embedding_width=32,
                fitting_depth=3, fitting_width=64,
            )
        )
        assert (
            meta_big["runtime_minutes"] > meta_small["runtime_minutes"]
        )

    def test_nas_driver_runs(self):
        records = run_nas_nsga2(pop_size=20, generations=2, rng=0)
        assert len(records) == 3
        viable = [i for i in records[-1].population if i.is_viable]
        assert viable
        # phenomes carry the architecture genes
        ph = viable[0].metadata["phenome"]
        assert "embedding_depth" in ph


class TestCampaignStore:
    @pytest.fixture(scope="class")
    def campaign(self):
        return Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed),
            CampaignConfig(
                n_runs=2, pop_size=12, generations=2, base_seed=7
            ),
        ).run()

    def test_roundtrip_structure(self, campaign, tmp_path):
        save_campaign(campaign, tmp_path / "camp")
        loaded = load_campaign(tmp_path / "camp")
        assert len(loaded.runs) == 2
        assert loaded.n_trainings == campaign.n_trainings
        assert loaded.config.pop_size == 12

    def test_roundtrip_fitness_and_metadata(self, campaign, tmp_path):
        save_campaign(campaign, tmp_path / "camp")
        loaded = load_campaign(tmp_path / "camp")
        orig = campaign.last_generation_individuals()
        back = loaded.last_generation_individuals()
        f1 = np.sort(np.array([i.fitness for i in orig]), axis=0)
        f2 = np.sort(np.array([i.fitness for i in back]), axis=0)
        assert np.allclose(f1, f2)
        assert back[0].metadata.get("phenome") is not None
        assert back[0].uuid == orig[0].uuid

    def test_loaded_campaign_supports_analysis(self, campaign, tmp_path):
        from repro.analysis import frontier_table, parallel_coordinates

        save_campaign(campaign, tmp_path / "camp")
        loaded = load_campaign(tmp_path / "camp")
        assert len(frontier_table(loaded)) >= 1
        assert len(parallel_coordinates(loaded)) > 0

    def test_csv_exports(self, campaign, tmp_path):
        export_level_plot_csv(campaign, tmp_path / "fig1.csv")
        export_frontier_csv(campaign, tmp_path / "fig2.csv")
        export_parallel_coordinates_csv(campaign, tmp_path / "fig3.csv")
        fig1 = (tmp_path / "fig1.csv").read_text().splitlines()
        assert fig1[0] == "generation,energy_loss,force_loss"
        assert len(fig1) > 10
        fig3 = (tmp_path / "fig3.csv").read_text().splitlines()
        assert "rcut" in fig3[0]
