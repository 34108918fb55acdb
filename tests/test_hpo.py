"""Tests for the paper's contribution layer: representation, surrogate
landscape, evaluator, driver, campaign, chemical selection, baselines."""

import numpy as np
import pytest

from repro.evo.individual import MAXINT, RobustIndividual
from repro.exceptions import TrainingDivergedError
from repro.hpo import (
    Campaign,
    CampaignConfig,
    DeepMDRepresentation,
    ENERGY_ACCURACY_EV_PER_ATOM,
    FORCE_ACCURACY_EV_PER_A,
    GENE_NAMES,
    NSGA2Settings,
    SurrogateDeepMDProblem,
    chemically_accurate,
    filter_chemically_accurate,
    grid_search,
    random_search,
    run_deepmd_nsga2,
    select_representatives,
    weighted_sum_ea,
)
from repro.hpo.representation import _CATEGORICAL_CHOICES


def _good_phenome(**over):
    phenome = {
        "start_lr": 4e-3,
        "stop_lr": 1e-4,
        "rcut": 11.0,
        "rcut_smth": 2.2,
        "scale_by_worker": "none",
        "desc_activ_func": "tanh",
        "fitting_activ_func": "tanh",
    }
    phenome.update(over)
    return phenome


class TestRepresentation:
    def test_seven_genes_in_paper_order(self):
        assert GENE_NAMES == (
            "start_lr",
            "stop_lr",
            "rcut",
            "rcut_smth",
            "scale_by_worker",
            "desc_activ_func",
            "fitting_activ_func",
        )

    def test_table1_ranges(self):
        rows = {r["hyperparameter"]: r for r in DeepMDRepresentation.table1()}
        assert rows["start_lr"]["initialization range"] == (3.51e-8, 0.01)
        assert rows["stop_lr"]["initialization range"] == (3.51e-8, 0.0001)
        assert rows["rcut"]["initialization range"] == (6.0, 12.0)
        assert rows["rcut_smth"]["initialization range"] == (2.0, 6.0)
        assert rows["scale_by_worker"]["initialization range"] == (0.0, 3.0)
        assert rows["desc_activ_func"]["initialization range"] == (0.0, 5.0)

    def test_table1_stds(self):
        rows = {r["hyperparameter"]: r for r in DeepMDRepresentation.table1()}
        assert rows["start_lr"]["mutation standard deviation"] == 0.001
        assert rows["stop_lr"]["mutation standard deviation"] == 0.0001
        assert rows["rcut"]["mutation standard deviation"] == 0.0625

    def test_decoder_produces_phenome_dict(self):
        decoder = DeepMDRepresentation.decoder()
        genome = np.array([1e-3, 1e-5, 8.0, 3.0, 2.2, 4.9, 0.3])
        phenome = decoder.decode(genome)
        assert phenome["start_lr"] == 1e-3
        assert phenome["scale_by_worker"] == "none"  # floor(2.2) % 3
        assert phenome["desc_activ_func"] == "tanh"  # floor(4.9) % 5
        assert phenome["fitting_activ_func"] == "relu"

    def test_encode_decode_roundtrip(self):
        phenome = _good_phenome()
        genome = DeepMDRepresentation.encode(phenome)
        decoded = DeepMDRepresentation.decoder().decode(genome)
        assert decoded == phenome

    def test_bounds_match_init_ranges(self):
        assert np.array_equal(
            DeepMDRepresentation.bounds, DeepMDRepresentation.init_ranges
        )

    def test_validate_phenome_flags_bad_radii(self):
        problems = DeepMDRepresentation.validate_phenome(
            _good_phenome(rcut=6.0, rcut_smth=6.0)
        )
        assert any("rcut_smth" in p for p in problems)

    def test_validate_phenome_ok(self):
        assert DeepMDRepresentation.validate_phenome(_good_phenome()) == []

    def test_categorical_choices_match_substrates(self):
        from repro.nn.activations import ACTIVATION_NAMES
        from repro.nn.lr_schedule import WORKER_SCALINGS

        assert _CATEGORICAL_CHOICES["scale_by_worker"] == WORKER_SCALINGS
        assert _CATEGORICAL_CHOICES["desc_activ_func"] == ACTIVATION_NAMES


class TestSurrogateLandscape:
    def _problem(self, **kwargs):
        return SurrogateDeepMDProblem(seed=0, **kwargs)

    def test_good_config_is_chemically_accurate_region(self):
        energy, force = self._problem().mean_objectives(_good_phenome())
        assert force < FORCE_ACCURACY_EV_PER_A
        assert energy < ENERGY_ACCURACY_EV_PER_ATOM

    def test_small_rcut_fails_force_accuracy(self):
        _, force = self._problem().mean_objectives(
            _good_phenome(rcut=6.5)
        )
        assert force > FORCE_ACCURACY_EV_PER_A

    def test_rcut_monotone_improves_force(self):
        prob = self._problem()
        forces = [
            prob.mean_objectives(_good_phenome(rcut=r))[1]
            for r in (6.5, 8.0, 10.0, 12.0)
        ]
        assert all(a > b for a, b in zip(forces, forces[1:]))

    def test_fitting_relu_penalized(self):
        prob = self._problem()
        _, f_relu = prob.mean_objectives(
            _good_phenome(fitting_activ_func="relu")
        )
        _, f_tanh = prob.mean_objectives(_good_phenome())
        assert f_relu > f_tanh + 0.02

    def test_desc_sigmoid_not_accurate(self):
        _, force = self._problem().mean_objectives(
            _good_phenome(desc_activ_func="sigmoid")
        )
        assert force > FORCE_ACCURACY_EV_PER_A

    def test_linear_scaling_hurts_at_good_start_lr(self):
        prob = self._problem()
        e_none, f_none = prob.mean_objectives(_good_phenome())
        e_lin, f_lin = prob.mean_objectives(
            _good_phenome(scale_by_worker="linear")
        )
        assert f_lin > f_none

    def test_linear_scaling_recoverable_with_small_start_lr(self):
        prob = self._problem()
        _, f = prob.mean_objectives(
            _good_phenome(start_lr=4e-3 / 6.0, scale_by_worker="linear")
        )
        assert f < FORCE_ACCURACY_EV_PER_A

    def test_tradeoff_direction(self):
        """Higher stop/start ratio -> force-led finish: better force,
        worse energy."""
        prob = self._problem()
        e_hi, f_hi = prob.mean_objectives(_good_phenome(stop_lr=1e-4))
        e_lo, f_lo = prob.mean_objectives(_good_phenome(stop_lr=1e-5))
        assert f_hi < f_lo
        assert e_hi > e_lo

    def test_invalid_radii_diverge(self):
        with pytest.raises(TrainingDivergedError):
            self._problem().mean_objectives(
                _good_phenome(rcut=6.0, rcut_smth=6.5)
            )

    def test_extreme_lr_diverges(self):
        with pytest.raises(TrainingDivergedError):
            self._problem().mean_objectives(
                _good_phenome(start_lr=0.05, scale_by_worker="linear")
            )

    def test_evaluation_deterministic_per_phenome(self):
        prob = self._problem()
        f1, _ = prob.evaluate_with_metadata(_good_phenome())
        f2, _ = prob.evaluate_with_metadata(_good_phenome())
        assert np.array_equal(f1, f2)

    def test_different_seed_changes_noise(self):
        f1 = SurrogateDeepMDProblem(seed=1).evaluate(_good_phenome())
        f2 = SurrogateDeepMDProblem(seed=2).evaluate(_good_phenome())
        assert not np.array_equal(f1, f2)

    def test_metadata_contains_runtime_and_phenome(self):
        _, meta = self._problem().evaluate_with_metadata(_good_phenome())
        assert "runtime_minutes" in meta
        assert meta["phenome"]["rcut"] == 11.0

    def test_runtime_grows_with_rcut(self):
        prob = self._problem()
        rts = []
        for rcut in (6.0, 12.0):
            _, meta = prob.evaluate_with_metadata(_good_phenome(rcut=rcut))
            rts.append(meta["runtime_minutes"])
        assert rts[1] > rts[0]

    def test_failure_attaches_short_runtime(self):
        prob = self._problem()
        ind = RobustIndividual(
            DeepMDRepresentation.encode(
                _good_phenome(start_lr=0.05, scale_by_worker="linear")
            ),
            decoder=DeepMDRepresentation.decoder(),
            problem=prob,
        )
        ind.evaluate()
        assert not ind.is_viable
        assert ind.metadata["runtime_minutes"] <= 4.0

    def test_failure_counter(self):
        prob = self._problem()
        RobustIndividual(
            DeepMDRepresentation.encode(
                _good_phenome(rcut=6.0, rcut_smth=5.9)
            ),
            decoder=DeepMDRepresentation.decoder(),
            problem=prob,
        )
        # rcut=6.0, rcut_smth=5.9 is valid; craft truly invalid one
        bad = _good_phenome()
        bad["rcut"] = 6.0
        bad["rcut_smth"] = 6.0  # equal -> undefined
        with pytest.raises(TrainingDivergedError):
            prob.mean_objectives(bad)


class TestDriverAndCampaign:
    def test_single_run_shape(self):
        records = run_deepmd_nsga2(
            SurrogateDeepMDProblem(seed=0),
            settings=NSGA2Settings(pop_size=20, generations=3),
            rng=0,
        )
        assert len(records) == 4
        assert all(len(r.population) == 20 for r in records)

    def test_campaign_runs_and_aggregates(self):
        config = CampaignConfig(
            n_runs=3, pop_size=20, generations=3, base_seed=1
        )
        result = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), config
        ).run()
        assert len(result.runs) == 3
        assert result.n_trainings == 3 * 4 * 20
        assert len(result.last_generation_individuals()) == 60

    def test_campaign_reproducible(self):
        config = CampaignConfig(
            n_runs=2, pop_size=10, generations=2, base_seed=5
        )

        def run():
            return Campaign(
                lambda seed: SurrogateDeepMDProblem(seed=seed), config
            ).run()

        f1 = np.sort(
            np.array(
                [i.fitness for i in run().last_generation_individuals()]
            ),
            axis=0,
        )
        f2 = np.sort(
            np.array(
                [i.fitness for i in run().last_generation_individuals()]
            ),
            axis=0,
        )
        assert np.allclose(f1, f2)

    def test_campaign_runs_are_independent(self):
        config = CampaignConfig(
            n_runs=2, pop_size=10, generations=1, base_seed=5
        )
        result = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), config
        ).run()
        g0 = result.runs[0][0].evaluated_fitness_matrix()
        g1 = result.runs[1][0].evaluated_fitness_matrix()
        assert not np.allclose(np.sort(g0, axis=0), np.sort(g1, axis=0))

    def test_optimization_improves_median_force(self):
        config = CampaignConfig(
            n_runs=2, pop_size=30, generations=4, base_seed=9
        )
        result = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), config
        ).run()
        first = [
            i.fitness[1]
            for i in result.generation_evaluated(0)
            if i.is_viable
        ]
        last = [
            i.fitness[1]
            for i in result.last_generation_individuals()
            if i.is_viable
        ]
        assert np.median(last) < np.median(first)

    def test_frontier_individuals_viable(self):
        config = CampaignConfig(
            n_runs=2, pop_size=20, generations=2, base_seed=3
        )
        result = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), config
        ).run()
        for ind in result.aggregate_pareto_front():
            assert ind.is_viable

    def test_failures_by_generation_length(self):
        config = CampaignConfig(
            n_runs=2, pop_size=15, generations=3, base_seed=3
        )
        result = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), config
        ).run()
        assert len(result.failures_by_generation()) == 4


class TestChemicalAccuracy:
    def _ind(self, energy, force, runtime=None):
        ind = RobustIndividual(np.zeros(7))
        ind.fitness = np.array([energy, force])
        if runtime is not None:
            ind.metadata["runtime_minutes"] = runtime
        return ind

    def test_thresholds_from_paper(self):
        assert ENERGY_ACCURACY_EV_PER_ATOM == 0.004
        assert FORCE_ACCURACY_EV_PER_A == 0.04

    def test_accurate_inside_both_thresholds(self):
        assert chemically_accurate(self._ind(0.001, 0.03))

    def test_inaccurate_when_force_exceeds(self):
        assert not chemically_accurate(self._ind(0.001, 0.05))

    def test_inaccurate_when_energy_exceeds(self):
        assert not chemically_accurate(self._ind(0.01, 0.03))

    def test_failed_never_accurate(self):
        assert not chemically_accurate(self._ind(MAXINT, MAXINT))

    def test_unevaluated_never_accurate(self):
        assert not chemically_accurate(RobustIndividual(np.zeros(7)))

    def test_filter(self):
        pop = [self._ind(0.001, 0.03), self._ind(0.01, 0.03)]
        assert filter_chemically_accurate(pop) == [pop[0]]

    def test_select_representatives(self):
        a = self._ind(0.003, 0.030, runtime=50.0)
        b = self._ind(0.001, 0.035, runtime=70.0)
        c = self._ind(0.002, 0.032, runtime=40.0)
        reps = select_representatives([a, b, c])
        assert reps["lowest_force"] is a
        assert reps["lowest_energy"] is b
        assert reps["lowest_runtime"] is c

    def test_select_when_no_accurate(self):
        reps = select_representatives([self._ind(0.1, 0.5)])
        assert all(v is None for v in reps.values())

    def test_select_without_runtime_metadata(self):
        reps = select_representatives([self._ind(0.001, 0.03)])
        assert reps["lowest_force"] is not None
        assert reps["lowest_runtime"] is None


class TestBaselines:
    def test_random_search_budget(self):
        result = random_search(
            SurrogateDeepMDProblem(seed=0), budget=50, rng=0
        )
        assert result.evaluations == 50
        assert len(result.evaluated) == 50

    def test_grid_search_full_factorial_small(self):
        result = grid_search(
            SurrogateDeepMDProblem(seed=0), points_per_gene=2
        )
        assert result.evaluations == 2**7

    def test_grid_search_budgeted(self):
        result = grid_search(
            SurrogateDeepMDProblem(seed=0),
            points_per_gene=10,
            budget=64,
            rng=0,
        )
        assert result.evaluations == 64
        assert len(result.evaluated) == 64

    def test_grid_nodes_lie_on_lattice(self):
        result = grid_search(
            SurrogateDeepMDProblem(seed=0),
            points_per_gene=3,
            budget=20,
            rng=1,
        )
        axis = np.linspace(6.0, 12.0, 3)  # rcut axis
        for ind in result.evaluated:
            assert np.any(np.isclose(ind.genome[2], axis))

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            grid_search(SurrogateDeepMDProblem(seed=0), points_per_gene=1)

    def test_weighted_sum_ea_runs(self):
        result = weighted_sum_ea(
            SurrogateDeepMDProblem(seed=0),
            pop_size=10,
            generations=2,
            rng=0,
        )
        assert result.evaluations == 30
        viable = [i for i in result.evaluated if i.is_viable]
        assert viable

    def test_weighted_sum_invalid_weight(self):
        with pytest.raises(ValueError):
            weighted_sum_ea(
                SurrogateDeepMDProblem(seed=0), weight_energy=1.5
            )

    def test_nsga2_beats_random_search_at_equal_budget(self):
        """The headline claim: the EA needs far fewer evaluations than
        undirected search to reach the accurate region."""
        budget_pop, gens = 20, 4
        records = run_deepmd_nsga2(
            SurrogateDeepMDProblem(seed=0),
            settings=NSGA2Settings(pop_size=budget_pop, generations=gens),
            rng=0,
        )
        ea_last = [i for i in records[-1].population if i.is_viable]
        rs = random_search(
            SurrogateDeepMDProblem(seed=0),
            budget=budget_pop * (gens + 1),
            rng=0,
        )
        rs_viable = [i for i in rs.evaluated if i.is_viable]
        ea_force = np.median([i.fitness[1] for i in ea_last])
        rs_force = np.median([i.fitness[1] for i in rs_viable])
        assert ea_force < rs_force
