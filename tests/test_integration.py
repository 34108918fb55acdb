"""End-to-end integration tests across module boundaries.

These exercise the complete §2.2 workflow at miniature scale: MD data →
real DeepPot-SE trainings driven by the NSGA-II pipeline with robust
individuals and distributed evaluation — the paper's system, shrunk.
"""

import numpy as np
import pytest

from repro.distributed import LocalCluster, RandomFaults
from repro.evo.individual import MAXINT
from repro.evo.nsga2 import rank_ordinal_sort
from repro.hpo import (
    DeepMDProblem,
    DeepMDRepresentation,
    EvaluatorSettings,
    NSGA2Settings,
    SurrogateDeepMDProblem,
    run_deepmd_nsga2,
)
from repro.mo.metrics import hypervolume_2d, inverted_generational_distance
from repro.mo.testsuite import ZDT1, ZDT2


class TestNSGA2OnZDT:
    """Validate the optimizer itself against known analytic fronts
    before trusting it on the DeePMD landscape."""

    def _solve(self, problem, generations=120, pop=60, rng=1):
        from repro.evo.algorithm import generational_nsga2

        records = generational_nsga2(
            problem=problem,
            init_ranges=problem.bounds,
            initial_std=np.full(problem.n_variables, 0.15),
            pop_size=pop,
            generations=generations,
            hard_bounds=problem.bounds,
            anneal_factor=0.98,
            rng=rng,
        )
        F = np.array([ind.fitness for ind in records[-1].population])
        from repro.mo.dominance import non_dominated_mask

        return F[non_dominated_mask(F)]

    def test_zdt1_convergence(self):
        problem = ZDT1(n_variables=8)
        front = self._solve(problem)
        hv = hypervolume_2d(front, (1.1, 1.1))
        igd = inverted_generational_distance(
            front, problem.true_front()
        )
        assert hv > 0.80  # ideal ≈ 0.87 with this reference point
        assert igd < 0.05

    def test_zdt2_concave_front(self):
        problem = ZDT2(n_variables=8)
        front = self._solve(problem, generations=150, rng=3)
        igd = inverted_generational_distance(
            front, problem.true_front()
        )
        assert igd < 0.08


@pytest.fixture(scope="module")
def real_problem(small_dataset):
    settings = EvaluatorSettings(
        numb_steps=25,
        batch_size=2,
        disp_freq=25,
        embedding_widths=(4, 8),
        axis_neurons=2,
        fitting_widths=(8,),
        time_limit=120.0,
    )
    return DeepMDProblem(small_dataset, settings=settings)


class TestRealEvaluator:
    def test_good_phenome_trains(self, real_problem):
        phenome = {
            "start_lr": 3e-3,
            "stop_lr": 1e-4,
            "rcut": 4.5,
            "rcut_smth": 2.0,
            "scale_by_worker": "none",
            "desc_activ_func": "tanh",
            "fitting_activ_func": "tanh",
        }
        fitness, meta = real_problem.evaluate_with_metadata(phenome)
        assert fitness.shape == (2,)
        assert np.all(np.isfinite(fitness))
        assert meta["runtime_minutes"] > 0
        assert "workdir" in meta

    def test_invalid_radii_fail(self, real_problem):
        phenome = {
            "start_lr": 3e-3,
            "stop_lr": 1e-4,
            "rcut": 4.0,
            "rcut_smth": 4.5,  # > rcut: descriptor undefined
            "scale_by_worker": "none",
            "desc_activ_func": "tanh",
            "fitting_activ_func": "tanh",
        }
        with pytest.raises(Exception):
            real_problem.evaluate_with_metadata(phenome)

    def test_run_directories_named_by_uuid(self, real_problem):
        phenome = {
            "start_lr": 3e-3,
            "stop_lr": 1e-4,
            "rcut": 4.5,
            "rcut_smth": 2.0,
            "scale_by_worker": "sqrt",
            "desc_activ_func": "softplus",
            "fitting_activ_func": "sigmoid",
        }
        _, meta = real_problem.evaluate_with_metadata(
            phenome, uuid="fixed-uuid-1"
        )
        assert meta["workdir"].endswith("fixed-uuid-1")
        assert (real_problem.base_dir / "fixed-uuid-1").exists()

    def test_default_directory_lives_with_its_instance(self, small_dataset):
        """The default run directory goes with the problem that made it
        — without a ResourceWarning — and never with a pickled copy,
        such as a pool worker's."""
        import gc
        import pickle
        import warnings

        problem = DeepMDProblem(small_dataset)
        directory = problem.base_dir
        copy = pickle.loads(pickle.dumps(problem))
        assert copy.base_dir == directory
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            del copy
            gc.collect()
            assert directory.is_dir()
            del problem
            gc.collect()
        assert not directory.exists()

    @pytest.mark.slow
    def test_nsga2_over_real_trainer(self, small_dataset):
        """The full paper pipeline, miniaturized: a two-generation
        NSGA-II deployment over actual trainings."""
        settings = EvaluatorSettings(
            numb_steps=15,
            batch_size=2,
            disp_freq=15,
            embedding_widths=(4, 6),
            axis_neurons=2,
            fitting_widths=(6,),
            time_limit=300.0,
        )
        problem = DeepMDProblem(small_dataset, settings=settings)
        records = run_deepmd_nsga2(
            problem,
            settings=NSGA2Settings(pop_size=6, generations=2),
            rng=0,
        )
        assert len(records) == 3
        last = records[-1].population
        assert all(ind.is_evaluated for ind in last)
        # at least some trainings must have succeeded
        viable = [ind for ind in last if ind.is_viable]
        assert viable
        # and the evaluator must have produced sane RMSEs
        for ind in viable:
            assert 0.0 < ind.fitness[1] < 10.0


class TestSurrogateWithDistributedCluster:
    def test_campaign_over_cluster(self):
        problem = SurrogateDeepMDProblem(seed=0)
        with LocalCluster(n_workers=4) as cluster:
            records = run_deepmd_nsga2(
                problem,
                settings=NSGA2Settings(pop_size=24, generations=3),
                client=cluster.client(),
                rng=0,
            )
        assert len(records) == 4
        assert all(ind.is_evaluated for ind in records[-1].population)

    def test_campaign_survives_worker_faults(self):
        """Node failures mid-campaign must not lose evaluations —
        tasks are reassigned, mirroring the paper's Dask setup."""
        problem = SurrogateDeepMDProblem(seed=0)
        policy = RandomFaults(rate=0.05, max_failures=2, rng=7)
        with LocalCluster(
            n_workers=4, fault_policy=policy, max_retries=4
        ) as cluster:
            records = run_deepmd_nsga2(
                problem,
                settings=NSGA2Settings(pop_size=20, generations=3),
                client=cluster.client(),
                rng=0,
            )
        for rec in records:
            assert len(rec.evaluated) == 20
            assert all(ind.is_evaluated for ind in rec.evaluated)

    def test_exhausted_workers_become_maxint_not_crash(self):
        """When every node dies, surviving semantics: the affected
        individuals get MAXINT fitness and the EA keeps going."""
        problem = SurrogateDeepMDProblem(seed=0)
        policy = RandomFaults(rate=0.9, rng=1)  # kills workers fast
        with LocalCluster(
            n_workers=2, fault_policy=policy, max_retries=1
        ) as cluster:
            records = run_deepmd_nsga2(
                problem,
                settings=NSGA2Settings(pop_size=8, generations=1),
                client=cluster.client(),
                rng=0,
            )
        evaluated = records[-1].evaluated
        assert all(ind.fitness is not None for ind in evaluated)
        # the dead-cluster evaluations are MAXINT failures
        assert any(np.all(ind.fitness == MAXINT) for ind in evaluated)


class TestSortingRobustnessEndToEnd:
    def test_mixed_failures_sort_deterministically(self):
        """The paper's MAXINT-vs-NaN point: a population containing
        failures still yields a well-defined total preorder."""
        rng = np.random.default_rng(0)
        F = rng.uniform(0.0, 1.0, size=(30, 2))
        F[::7] = MAXINT
        r1 = rank_ordinal_sort(F)
        r2 = rank_ordinal_sort(F.copy())
        assert np.array_equal(r1, r2)
        assert r1[::7].min() > r1[1::7].max()

    def test_nan_failures_would_be_rejected(self):
        F = np.array([[0.1, 0.2], [np.nan, 0.3]])
        with pytest.raises(ValueError):
            rank_ordinal_sort(F)
