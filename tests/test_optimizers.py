"""The optimizer zoo: PSO and surrogate drivers, objective selection,
and the hypervolume early stop.

Every driver behind ``repro-hpo run --mode ...`` honours one contract:
evaluations flow through the engine (dedup/cache/journal/MAXINT),
records are :class:`~repro.evo.algorithm.GenerationRecord` streams the
§3 analysis stack consumes unchanged, and a killed run resumes
bit-identically from the write-ahead journal.  These tests pin that
contract for the two new drivers, the ``--objectives`` third-objective
extension, and the ``HypervolumeStopper`` prefix-identity guarantee.
"""

import json

import numpy as np
import pytest

from repro.evo.individual import MAXINT
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.driver import (
    NSGA2Settings,
    run_deepmd_nsga2,
    run_deepmd_pso,
    run_deepmd_surrogate,
)
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.hpo.objectives import (
    BASE_OBJECTIVES,
    KNOWN_OBJECTIVES,
    RuntimeCostProblem,
    parse_objectives,
    reference_point,
    with_objectives,
)
from repro.store.journal import CampaignJournal, journal_path
from repro.store.resume import resume_campaign


def _genomes(records):
    return [
        [tuple(float(g) for g in ind.genome) for ind in rec.population]
        for rec in records
    ]


def _fitnesses(records):
    return [
        [tuple(float(f) for f in ind.fitness) for ind in rec.population]
        for rec in records
    ]


# ----------------------------------------------------------------------
# objective selection
# ----------------------------------------------------------------------
class TestParseObjectives:
    def test_default_is_the_paper_pair(self):
        assert parse_objectives(None) == BASE_OBJECTIVES
        assert parse_objectives("") == BASE_OBJECTIVES
        assert parse_objectives("loss") == BASE_OBJECTIVES

    def test_time_aliases_extend_with_runtime(self):
        for spec in ("loss,time", "loss,cost", "loss,runtime", "time"):
            assert parse_objectives(spec) == (
                "energy",
                "force",
                "runtime",
            )

    def test_sequence_input(self):
        assert parse_objectives(["energy", "force", "runtime"]) == (
            "energy",
            "force",
            "runtime",
        )

    def test_canonical_order_is_stable(self):
        assert parse_objectives("time,loss") == parse_objectives(
            "loss,time"
        )

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            parse_objectives("loss,accuracy")

    def test_reference_point_widths(self):
        assert len(reference_point(BASE_OBJECTIVES)) == 2
        assert len(reference_point(KNOWN_OBJECTIVES)) == 3


class TestRuntimeCostProblem:
    def test_base_selection_returns_problem_unchanged(self):
        problem = SurrogateDeepMDProblem(seed=3)
        assert with_objectives(problem, None) is problem
        assert with_objectives(problem, BASE_OBJECTIVES) is problem

    def test_third_objective_is_predicted_runtime(self):
        from repro.engine import call_problem
        from repro.hpc.runtime_model import TrainingRuntimeModel

        problem = with_objectives(
            SurrogateDeepMDProblem(seed=3), "loss,time"
        )
        assert problem.n_objectives == 3
        from repro.hpo.representation import DeepMDRepresentation

        inner = SurrogateDeepMDProblem(seed=3)
        decoder = DeepMDRepresentation.decoder()
        genome = np.array([1e-3, 5e-5, 7.0, 3.0, 1.0, 2.0, 2.0])
        phenome = decoder.decode(genome)
        phenome["rcut"] = 7.0
        fit3, meta = call_problem(problem, phenome)
        fit2, _ = call_problem(inner, phenome)
        assert np.allclose(fit3[:2], fit2)
        expected = TrainingRuntimeModel().mean_runtime_minutes(7.0)
        assert fit3[2] == pytest.approx(expected)
        assert meta["cost_minutes"] == pytest.approx(expected)

    def test_cost_is_deterministic_in_rcut(self):
        problem = RuntimeCostProblem(SurrogateDeepMDProblem(seed=3))
        a = problem.cost_minutes({"rcut": 9.0})
        b = problem.cost_minutes({"rcut": 9.0})
        assert a == b
        assert problem.cost_minutes({"rcut": 12.0}) > a

    def test_cache_fingerprint_differs_from_two_objective(self):
        inner = SurrogateDeepMDProblem(seed=3)
        wrapped = with_objectives(
            SurrogateDeepMDProblem(seed=3), "loss,time"
        )
        assert wrapped.cache_fingerprint() != inner.cache_fingerprint()


# ----------------------------------------------------------------------
# driver contracts
# ----------------------------------------------------------------------
def _settings(pop=6, gens=3):
    return NSGA2Settings(pop_size=pop, generations=gens)


class TestPSODriver:
    def test_budget_and_record_stream(self):
        records = run_deepmd_pso(
            SurrogateDeepMDProblem(seed=5), _settings(), rng=5
        )
        assert len(records) == 4
        assert [r.generation for r in records] == [0, 1, 2, 3]
        assert all(len(r.evaluated) == 6 for r in records)
        assert all(len(r.population) == 6 for r in records)
        assert all(
            ind.fitness is not None
            for r in records
            for ind in r.evaluated
        )

    def test_deterministic_given_seed(self):
        a = run_deepmd_pso(
            SurrogateDeepMDProblem(seed=5), _settings(), rng=5
        )
        b = run_deepmd_pso(
            SurrogateDeepMDProblem(seed=5), _settings(), rng=5
        )
        assert _genomes(a) == _genomes(b)
        assert _fitnesses(a) == _fitnesses(b)

    def test_population_is_elitist_nondominated_pool(self):
        records = run_deepmd_pso(
            SurrogateDeepMDProblem(seed=5), _settings(), rng=5
        )
        # the selected pool never regresses: final hypervolume >= gen-0
        from repro.mo.metrics import hypervolume

        def hv(rec):
            F = np.asarray(
                [
                    ind.fitness
                    for ind in rec.population
                    if ind.is_viable
                ]
            )
            return hypervolume(F, (0.02, 0.2))

        assert hv(records[-1]) >= hv(records[0]) - 1e-15

    def test_velocity_std_column(self):
        records = run_deepmd_pso(
            SurrogateDeepMDProblem(seed=5), _settings(), rng=5
        )
        assert np.all(records[0].std == 0.0)  # swarm starts at rest
        assert records[1].std.shape == records[0].std.shape


class TestSurrogateDriver:
    def test_budget_and_record_stream(self):
        records = run_deepmd_surrogate(
            SurrogateDeepMDProblem(seed=5), _settings(), rng=5
        )
        assert len(records) == 4
        assert all(len(r.evaluated) == 6 for r in records)

    def test_deterministic_given_seed(self):
        a = run_deepmd_surrogate(
            SurrogateDeepMDProblem(seed=5), _settings(), rng=5
        )
        b = run_deepmd_surrogate(
            SurrogateDeepMDProblem(seed=5), _settings(), rng=5
        )
        assert _genomes(a) == _genomes(b)
        assert _fitnesses(a) == _fitnesses(b)

    def test_rbf_surrogate_interpolates_training_points(self):
        from repro.evo.surrogate import RBFSurrogate

        rng = np.random.default_rng(0)
        X = rng.uniform(size=(20, 4))
        Y = np.column_stack(
            [X.sum(axis=1), (X**2).sum(axis=1)]
        )
        model = RBFSurrogate().fit(X, Y)
        assert np.allclose(model.predict(X), Y, atol=1e-4)

    def test_greedy_picks_spread_along_the_front(self):
        from repro.evo.surrogate import _greedy_ehvi_picks

        predicted = np.array(
            [[0.1, 0.9], [0.9, 0.1], [0.12, 0.88], [0.5, 0.5]]
        )
        base = np.array([[0.95, 0.95]])
        picks = _greedy_ehvi_picks(
            predicted, base, np.array([1.0, 1.0]), 3
        )
        # the near-duplicate of the first pick is chosen last
        assert picks[0] != 2 or picks[1] != 2
        assert set(picks) <= {0, 1, 2, 3}
        assert len(picks) == 3


# ----------------------------------------------------------------------
# journal + resume bit-identity for the new modes
# ----------------------------------------------------------------------
def _journaled(tmp_path, mode, name):
    cfg = CampaignConfig(
        n_runs=2, pop_size=6, generations=3, base_seed=11, mode=mode
    )
    d = tmp_path / name
    d.mkdir()
    journal = CampaignJournal(
        journal_path(d), problem_spec={"backend": "surrogate"}
    )
    base = Campaign(
        lambda seed: SurrogateDeepMDProblem(seed=seed),
        cfg,
        journal=journal,
    ).run()
    journal.close()
    return d, cfg, base


def _result_view(result):
    return [
        (_genomes(run), _fitnesses(run)) for run in result.runs
    ]


@pytest.mark.parametrize("mode", ["pso", "surrogate"])
class TestNewModeResume:
    def test_complete_journal_restores_verbatim(self, tmp_path, mode):
        d, _, base = _journaled(tmp_path, mode, "camp")
        restored = resume_campaign(d)
        assert _result_view(restored) == _result_view(base)

    def test_truncated_journal_resumes_bit_identically(
        self, tmp_path, mode
    ):
        d, _, base = _journaled(tmp_path, mode, "camp")
        raw = journal_path(d).read_text().splitlines()
        # cut after run 1's second generation record: run 0 complete,
        # run 1 interrupted mid-flight
        kept, run1_gens = [], 0
        for line in raw:
            kept.append(line)
            doc = json.loads(line)
            if doc.get("type") == "generation" and doc.get("run") == 1:
                run1_gens += 1
                if run1_gens == 2:
                    break
        d2 = tmp_path / "cut"
        d2.mkdir()
        journal_path(d2).write_text("\n".join(kept) + "\n")
        resumed = resume_campaign(
            d2,
            problem_factory=lambda seed: SurrogateDeepMDProblem(
                seed=seed
            ),
        )
        assert _result_view(resumed) == _result_view(base)

    def test_journal_records_carry_rng_state(self, tmp_path, mode):
        d, _, _ = _journaled(tmp_path, mode, "camp")
        docs = [
            json.loads(line)
            for line in journal_path(d).read_text().splitlines()
        ]
        gens = [doc for doc in docs if doc["type"] == "generation"]
        assert gens and all(doc.get("rng_state") for doc in gens)
        if mode == "pso":
            assert all(
                "velocities" in doc["driver_state"]
                and "pbest" in doc["driver_state"]
                for doc in gens
            )


class TestPSOResumeRequiresDriverState:
    def test_missing_driver_state_raises_store_error(self, tmp_path):
        from repro.exceptions import StoreError

        d, _, _ = _journaled(tmp_path, "pso", "camp")
        raw = journal_path(d).read_text().splitlines()
        kept = []
        for line in raw:
            doc = json.loads(line)
            if doc.get("type") == "generation":
                doc.pop("driver_state", None)
                kept.append(json.dumps(doc))
                if doc.get("run") == 0 and doc["generation"] == 1:
                    break
            else:
                kept.append(line)
        d2 = tmp_path / "stripped"
        d2.mkdir()
        journal_path(d2).write_text("\n".join(kept) + "\n")
        with pytest.raises(StoreError, match="driver_state"):
            resume_campaign(
                d2,
                problem_factory=lambda seed: SurrogateDeepMDProblem(
                    seed=seed
                ),
            )


# ----------------------------------------------------------------------
# hypervolume early stop: bit-identical prefix
# ----------------------------------------------------------------------
class TestStopperPrefixIdentity:
    def _run(self, mode, settings):
        runner = {
            "generational": run_deepmd_nsga2,
            "pso": run_deepmd_pso,
            "surrogate": run_deepmd_surrogate,
        }[mode]
        return runner(
            SurrogateDeepMDProblem(seed=9), settings, rng=9
        )

    @pytest.mark.parametrize(
        "mode", ["generational", "pso", "surrogate"]
    )
    def test_stopped_run_is_prefix_of_unstopped(self, mode):
        full = self._run(mode, NSGA2Settings(pop_size=8, generations=6))
        stopped = self._run(
            mode,
            NSGA2Settings(
                pop_size=8,
                generations=6,
                hv_stop_eps=0.5,  # aggressive: stop on <50% gain
                hv_stop_patience=1,
            ),
        )
        assert len(stopped) < len(full)
        k = len(stopped)
        assert _genomes(stopped) == _genomes(full[:k])
        assert _fitnesses(stopped) == _fitnesses(full[:k])

    def test_disabled_by_default(self):
        assert NSGA2Settings().stopper() is None
        assert (
            NSGA2Settings(hv_stop_eps=1e-3).stopper() is not None
        )

    def test_steady_state_stops_breeding_early(self):
        from repro.hpo.driver import run_deepmd_steady_state

        full = run_deepmd_steady_state(
            SurrogateDeepMDProblem(seed=9),
            NSGA2Settings(pop_size=8, generations=6),
            rng=9,
        )
        stopped = run_deepmd_steady_state(
            SurrogateDeepMDProblem(seed=9),
            NSGA2Settings(
                pop_size=8,
                generations=6,
                hv_stop_eps=0.9,
                hv_stop_patience=1,
            ),
            rng=9,
        )
        n_full = sum(len(r.evaluated) for r in full)
        n_stopped = sum(len(r.evaluated) for r in stopped)
        assert n_stopped < n_full


# ----------------------------------------------------------------------
# three-objective campaigns, end to end
# ----------------------------------------------------------------------
class TestThreeObjectiveCampaign:
    def _campaign(self, mode="generational"):
        cfg = CampaignConfig(
            n_runs=1,
            pop_size=8,
            generations=2,
            base_seed=17,
            mode=mode,
            objectives="loss,time",
        )
        return Campaign(
            lambda seed: with_objectives(
                SurrogateDeepMDProblem(seed=seed), cfg.objectives
            ),
            cfg,
        ).run()

    def test_config_normalizes_objectives(self):
        cfg = CampaignConfig(objectives="loss,time")
        assert cfg.objectives == ("energy", "force", "runtime")
        assert CampaignConfig().objectives == BASE_OBJECTIVES

    @pytest.mark.parametrize("mode", ["generational", "pso"])
    def test_three_wide_fitness_and_nonzero_hypervolume(self, mode):
        from repro.analysis.convergence import hypervolume_progress

        result = self._campaign(mode)
        F = np.asarray(
            [
                ind.fitness
                for ind in result.runs[0][-1].population
                if ind.is_viable
            ]
        )
        assert F.shape[1] == 3
        assert np.all(F[:, 2] > 0)
        hv = hypervolume_progress(result)
        assert np.all(np.isfinite(hv))
        assert hv[-1] > 0.0

    def test_failures_still_fill_all_objectives_with_maxint(self):
        from repro.evo.problem import Problem

        class Exploding(Problem):
            n_objectives = 2

            def evaluate(self, phenome):
                raise RuntimeError("boom")

        wrapped = with_objectives(Exploding(), "loss,time")
        from repro.evo.individual import RobustIndividual

        ind = RobustIndividual(np.zeros(2), problem=wrapped)
        ind.n_objectives = wrapped.n_objectives
        ind.evaluate()
        assert ind.fitness.shape == (3,)
        assert np.all(ind.fitness == MAXINT)

    @pytest.mark.parametrize(
        "mode, pop_size, generations",
        [
            pytest.param("generational", 50, 4, id="generational"),
            pytest.param("steady-state", 50, 4, id="steady-state"),
            pytest.param("pso", 50, 4, id="pso"),
            # the smallest surrogate campaign at this seed whose
            # offspring fail (its RBF refits dominate the cost)
            pytest.param("surrogate", 10, 1, id="surrogate"),
        ],
    )
    def test_failed_offspring_fail_three_wide(
        self, tmp_path, mode, pop_size, generations
    ):
        """Offspring are clones: a failed one used to get the class
        default's two MAXINTs in a three-wide population, and sorting
        the generation raised."""
        cfg = CampaignConfig(
            n_runs=1,
            pop_size=pop_size,
            generations=generations,
            base_seed=3,
            mode=mode,
            objectives="loss,time",
        )
        journal = CampaignJournal(
            journal_path(tmp_path), problem_spec={"backend": "surrogate"}
        )
        try:
            result = Campaign(
                lambda seed: with_objectives(
                    SurrogateDeepMDProblem(seed=seed), cfg.objectives
                ),
                cfg,
                journal=journal,
            ).run()
        finally:
            journal.close()
        evaluated = [ind for rec in result.runs[0] for ind in rec.evaluated]
        offspring = [
            ind for rec in result.runs[0][1:] for ind in rec.evaluated
        ]
        assert sum(not ind.is_viable for ind in offspring) > 0
        assert {ind.fitness.shape for ind in evaluated} == {(3,)}
        rows = []
        for line in journal_path(tmp_path).read_text().splitlines():
            doc = json.loads(line)
            if doc["type"] == "generation":
                for group in ("population", "evaluated"):
                    rows += doc[group]["fitness"]
            elif doc["type"] == "evaluation":
                rows.append(doc["fitness"])
        assert rows and {len(row) for row in rows} == {3}

    def test_mode_validation_covers_the_zoo(self):
        for mode in ("generational", "steady-state", "pso", "surrogate"):
            assert CampaignConfig(mode=mode).mode == mode
        with pytest.raises(ValueError, match="mode"):
            CampaignConfig(mode="annealing")


# ----------------------------------------------------------------------
# the campaign service accepts the new modes and objective selections
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def test_config_from_spec_accepts_new_modes(self):
        from repro.service.registry import campaign_config_from_spec

        cfg = campaign_config_from_spec(
            {"mode": "pso", "n_runs": 1, "pop_size": 4}
        )
        assert cfg.mode == "pso"

    def test_registry_threads_objectives_into_problem_spec(
        self, tmp_path
    ):
        from repro.service.registry import CampaignRegistry

        registry = CampaignRegistry(tmp_path)
        campaign = registry.create(
            {
                "name": "threeobj",
                "config": {
                    "mode": "surrogate",
                    "n_runs": 1,
                    "pop_size": 4,
                    "generations": 1,
                    "objectives": "loss,time",
                },
                "problem": {"backend": "surrogate"},
            }
        )
        assert campaign.problem_spec["objectives"] == [
            "energy",
            "force",
            "runtime",
        ]
