"""End-to-end integration tests across module boundaries.

These exercise the complete §2.2 workflow at miniature scale: MD data →
real DeepPot-SE trainings driven by the NSGA-II pipeline with robust
individuals and process-pool evaluation — the paper's system, shrunk.
"""

import numpy as np
import pytest

from repro.chaos import Fault, FaultPlan
from repro.engine import ProcessPoolBackend
from repro.evo.individual import MAXINT
from repro.evo.nsga2 import rank_ordinal_sort
from repro.injection import use_injector
from repro.hpo import (
    DeepMDProblem,
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
        from repro.evo.algorithm import NSGA2Driver, run_driver

        driver = NSGA2Driver(
            problem=problem,
            init_ranges=problem.bounds,
            pop_size=pop,
            hard_bounds=problem.bounds,
            rng=rng,
            initial_std=np.full(problem.n_variables, 0.15),
            anneal_factor=0.98,
        )
        records = run_driver(driver, generations)
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


def _evaluated(records):
    return [
        (tuple(ind.genome), ind.fitness.tobytes())
        for rec in records
        for ind in rec.evaluated
    ]


class TestSurrogateOnProcessPool:
    def _run(self, pop_size, generations, client=None):
        return run_deepmd_nsga2(
            SurrogateDeepMDProblem(seed=0),
            settings=NSGA2Settings(pop_size=pop_size, generations=generations),
            client=client,
            rng=0,
        )

    def test_campaign_over_pool(self):
        with ProcessPoolBackend(workers=2) as pool:
            records = self._run(24, 3, client=pool)
        assert len(records) == 4
        assert all(ind.is_evaluated for ind in records[-1].population)
        assert _evaluated(records) == _evaluated(self._run(24, 3))

    def test_campaign_survives_worker_faults(self):
        """Node failures mid-campaign must not lose evaluations —
        a dead worker's task is re-run, mirroring the paper's Dask
        setup, so the campaign equals the fault-free one."""
        plan = FaultPlan(
            [Fault("worker_death", at=5), Fault("worker_death", at=37)]
        )
        injector = plan.injector()
        with use_injector(injector), ProcessPoolBackend(workers=2) as pool:
            records = self._run(20, 3, client=pool)
        assert len(injector.fired("worker_death")) == 2
        for rec in records:
            assert len(rec.evaluated) == 20
            assert all(ind.is_evaluated for ind in rec.evaluated)
        assert _evaluated(records) == _evaluated(self._run(20, 3))

    def test_exhausted_retries_become_maxint_not_crash(self):
        """A task whose worker dies on every attempt gets MAXINT
        fitness and the EA keeps going."""
        # pool-0's own first three runs: the lowest-index idle worker
        # takes a requeued task, and a successor keeps pool-0's ordinals
        plan = FaultPlan(
            [Fault("worker_death", at=0, count=3, worker="pool-0")]
        )
        with use_injector(plan.injector()), ProcessPoolBackend(
            workers=2
        ) as pool:
            records = self._run(8, 1, client=pool)
        evaluated = records[-1].evaluated
        assert all(ind.fitness is not None for ind in evaluated)
        lost = [
            ind
            for rec in records
            for ind in rec.evaluated
            if "WorkerFailure" in ind.metadata.get("error", "")
        ]
        assert len(lost) == 1
        assert np.all(lost[0].fitness == MAXINT)


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


class TestRealCampaignPoolSmoke:
    """The ledger's ``real_campaign_pool`` campaign at its smoke size,
    twice over one pool: each run starts from an empty cache, so each
    must train all eight phenomes again.  A worker answering from a
    cache it kept from the first run would read fast and correct."""

    #: the ledger pins this EA seed (``POOL_CAMPAIGN_SEED``)
    SEED = 2023

    def _run(self, directory, dataset, pool):
        from repro.hpo import Campaign, CampaignConfig
        from repro.obs.trace import Tracer
        from repro.store import CachedProblem, EvaluationCache

        cache = EvaluationCache(directory / "cache")
        problem = CachedProblem(
            DeepMDProblem(
                dataset,
                base_dir=directory / "runs",
                settings=EvaluatorSettings(numb_steps=4, disp_freq=4),
            ),
            cache,
        )
        config = CampaignConfig(
            n_runs=1,
            pop_size=4,
            generations=1,
            base_seed=self.SEED,
            batch_evals=True,
        )
        tracer = Tracer()
        result = Campaign(
            lambda seed: problem, config, client=pool, tracer=tracer
        ).run()
        fresh = sum(
            span["tags"]["fresh"] for span in tracer.spans("ea.generation")
        )
        entries = len(list((directory / "cache").rglob("*.json")))
        front = sorted(
            (
                np.asarray(ind.genome, dtype=np.float64).tobytes(),
                np.asarray(ind.fitness, dtype=np.float64).tobytes(),
            )
            for ind in result.aggregate_pareto_front()
        )
        return fresh, entries, result.n_trainings, front

    def test_each_run_trains_every_phenome(self, tmp_path):
        from repro.md.dataset import generate_dataset

        dataset = generate_dataset(
            n_frames=8, equilibration_steps=80, sample_interval=4, rng=11
        )
        with ProcessPoolBackend(workers=2) as pool:
            first = self._run(tmp_path / "first", dataset, pool)
            second = self._run(tmp_path / "second", dataset, pool)
        assert first[:3] == (8, 8, 8)
        assert second == first
