"""Process-pool backend tests: protocol, equivalence, chaos, resume.

Spawn-started workers re-import every class a task references, so all
problems used here live at module level (or come from ``repro``
itself) — a locally-defined problem would fail to pickle, which is
itself covered by a test.

Worker startup is real interpreter startup (~1 s each), so the suite
keeps pools small (1–2 workers) and reuses one campaign per scenario.
"""

import gc
import os
import pickle
import signal
import time
import weakref

import numpy as np
import pytest

from repro.chaos import Fault, FaultPlan, InvariantChecker
from repro.engine import (
    EvaluationEngine,
    ProcessPoolBackend,
    as_backend,
)
from repro.engine.pool import DEATH_RETRIES
from repro.evo.individual import MAXINT, Individual, RobustIndividual
from repro.exceptions import TrainingTimeoutError, WorkerFailure
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.injection import use_injector
from repro.obs import CampaignStatus, Tracer, use_status, use_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import straggler_summary
from repro.store.cache import CachedProblem, EvaluationCache
from repro.store.journal import CampaignJournal, journal_path
from repro.store.resume import resume_campaign

CFG = CampaignConfig(n_runs=1, pop_size=6, generations=2, base_seed=11)


class SleepyProblem:
    """Picklable problem that sleeps long enough to trip a deadline."""

    n_objectives = 2

    def __init__(self, duration: float) -> None:
        self.duration = duration

    def evaluate(self, phenome):
        time.sleep(self.duration)
        return np.array([1.0, 2.0])


class Unrebuildable(Exception):
    """Pickles, but cannot be rebuilt: ``loads`` replays ``args`` (one
    formatted message) into a two-argument constructor."""

    def __init__(self, what: str, why: str) -> None:
        super().__init__(f"{what} because {why}")


class RaisesAtOne:
    """Fails the phenome whose first gene is 1 with ``exc_cls(*args)``."""

    n_objectives = 2

    def __init__(self, exc_cls: type, *args) -> None:
        self.exc_cls = exc_cls
        self.args = args

    def evaluate(self, phenome):
        if phenome[0] == 1.0:
            raise self.exc_cls(*self.args)
        return np.array([phenome[0], 2.0])


class PickleCountingProblem:
    """Counts, in the pickling process, how often it is pickled."""

    n_objectives = 2
    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__

    def evaluate(self, phenome):
        return np.array([phenome[0], 2.0])


def _surrogate_individuals(n, seed=0):
    from repro.evo.algorithm import random_initial_population
    from repro.hpo.representation import DeepMDRepresentation

    return random_initial_population(
        n,
        DeepMDRepresentation.init_ranges,
        SurrogateDeepMDProblem(seed=seed),
        decoder=DeepMDRepresentation.decoder(),
        rng=seed,
    )


def _evals(result):
    return sorted(
        (
            tuple(float(g) for g in ind.genome),
            tuple(float(f) for f in np.atleast_1d(ind.fitness)),
        )
        for run in result.runs
        for rec in run
        for ind in rec.evaluated
    )


def _fitness_bytes(result):
    return [
        ind.fitness.tobytes()
        for run in result.runs
        for rec in run
        for ind in rec.evaluated
    ]


def _front(result):
    return sorted(
        (tuple(ind.genome), tuple(ind.fitness))
        for ind in result.aggregate_pareto_front()
    )


class TestProtocol:
    def test_is_execution_backend(self):
        assert ProcessPoolBackend.is_execution_backend
        with ProcessPoolBackend(workers=1) as pool:
            # a pool instance passes through as_backend untouched, so
            # drivers accept it via the existing client= parameter
            assert as_backend(pool) is pool

    def test_unpicklable_submission_is_a_clear_typeerror(self):
        class Local:  # noqa: F841 - deliberately unpicklable
            n_objectives = 2

            def evaluate(self, phenome):
                return np.zeros(2)

        with ProcessPoolBackend(workers=1) as pool:
            with pytest.raises(TypeError, match="pickle"):
                pool.submit(Individual(np.zeros(2), problem=Local()))

    def test_close_is_idempotent_and_fails_inflight(self):
        pool = ProcessPoolBackend(workers=1)
        future = pool.submit(
            Individual(np.zeros(2), problem=SleepyProblem(30.0))
        )
        time.sleep(0.1)
        pool.close()
        pool.close()
        with pytest.raises(WorkerFailure):
            future.result(timeout=1.0)
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(Individual(np.zeros(2)))

    def test_problem_state_survives_pickling(self):
        """A pickled replica evaluates every phenome identically —
        including phenomes the landscape deterministically fails."""

        def outcome(problem, phenome):
            try:
                return tuple(np.asarray(problem.evaluate(phenome)))
            except Exception as exc:  # noqa: BLE001 - part of the landscape
                return repr(exc)

        problem = SurrogateDeepMDProblem(seed=3)
        clone = pickle.loads(pickle.dumps(problem))
        for ind in _surrogate_individuals(6, seed=5):
            phenome = ind.decode()
            assert outcome(problem, phenome) == outcome(clone, phenome)


class TestEngineIntegration:
    def test_pool_results_bit_identical_to_inline(self):
        inline = EvaluationEngine(metrics=MetricsRegistry())
        done_inline = inline.evaluate(_surrogate_individuals(8))
        with ProcessPoolBackend(workers=2) as pool:
            engine = EvaluationEngine(
                client=pool, metrics=MetricsRegistry()
            )
            done_pool = engine.evaluate(_surrogate_individuals(8))
        for a, b in zip(done_inline, done_pool):
            assert np.array_equal(a.fitness, b.fitness)
            assert a.metadata == b.metadata

    def test_deadline_overrun_becomes_maxint(self):
        with ProcessPoolBackend(workers=1, deadline=0.3) as pool:
            engine = EvaluationEngine(
                client=pool, metrics=MetricsRegistry()
            )
            done = engine.evaluate(
                [Individual(np.zeros(2), problem=SleepyProblem(30.0))]
            )
        (ind,) = done
        assert np.all(ind.fitness == MAXINT)
        assert "TrainingTimeoutError" in ind.metadata["error"]

    @pytest.mark.parametrize("chunk_size", [1, 3])
    @pytest.mark.parametrize(
        "raises, cause",
        [
            (
                (TrainingTimeoutError, 7300.0, 7200.0),
                "TrainingTimeoutError: training exceeded time limit: "
                "7300.0s > 7200.0s",
            ),
            (
                (Unrebuildable, "training", "chaos"),
                "EvaluationError: Unrebuildable: training because chaos",
            ),
        ],
        ids=["timeout", "unrebuildable"],
    )
    def test_worker_side_exception_survives_the_pipe(
        self, raises, cause, chunk_size
    ):
        """An exception raised inside a worker scores MAXINT at every
        dispatch granularity: it is rebuilt in the parent from its own
        constructor arguments, or shipped as its repr when it cannot
        be — never raised out of the parent's ``recv``."""
        problem = RaisesAtOne(*raises)
        individuals = [
            RobustIndividual(np.array([float(i), 0.0]), problem=problem)
            for i in range(3)
        ]
        with ProcessPoolBackend(workers=2) as pool:
            engine = EvaluationEngine(client=pool, metrics=MetricsRegistry())
            if chunk_size == 1:
                done = engine.evaluate(individuals)
            else:
                done = engine.evaluate_batch(individuals, chunk_size=3)
        assert [ind.is_viable for ind in done] == [True, False, True]
        assert np.all(done[1].fitness == MAXINT)
        assert done[1].metadata["failure_cause"] == cause
        assert engine.stats.failures == 1

    def test_scalar_submits_pickle_a_shared_problem_once(self):
        """Scalar ``submit`` is a chunk of one over the shared segment:
        the problem crosses ``pickle.dumps`` once, not once per task."""
        problem = PickleCountingProblem()
        PickleCountingProblem.pickles = 0
        with ProcessPoolBackend(workers=2) as pool:
            futures = [
                pool.submit(
                    Individual(np.array([float(i), 0.0]), problem=problem)
                )
                for i in range(20)
            ]
            slots = [future.result(timeout=60.0) for future in futures]
        assert PickleCountingProblem.pickles == 1
        assert [fitness[0] for fitness, _ in slots] == list(range(20))

    def test_deadline_error_surfaces_without_engine(self):
        """A deadline kill is the paper's timeout → MAXINT: the task
        fails on its one run and is not re-run like a death."""
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_tracer(tracer), ProcessPoolBackend(
            workers=1, deadline=0.3, metrics=registry
        ) as pool:
            future = pool.submit(
                Individual(np.zeros(2), problem=SleepyProblem(30.0))
            )
            with pytest.raises(TrainingTimeoutError):
                future.result(timeout=15.0)
        assert registry.counter("pool_tasks_dispatched_total").value == 1
        assert registry.counter("pool_deadline_kills_total").value == 1
        assert tracer.events("task.requeued") == []


class TestSegmentIdentity:
    """The shared-segment registry is keyed by ``id``: its entry must go
    when the problem does, or a collected problem's address is reused by
    the next one, which then runs on the dead problem's segment."""

    def test_registry_holds_a_problem_only_while_its_caller_does(self):
        with ProcessPoolBackend(workers=1) as pool:
            individuals = _surrogate_individuals(2, seed=3)
            problem = weakref.ref(individuals[0].problem)
            pool.submit_batch(individuals).result(timeout=60.0)
            assert len(pool._segments) == 1
            del individuals
            gc.collect()
            assert problem() is None
            assert pool._segments == {} and pool._segment_payloads == {}

    def test_fresh_problems_over_one_pool_match_inline(self):
        def fitnesses(seed, client):
            engine = EvaluationEngine(client=client, metrics=MetricsRegistry())
            done = engine.evaluate_batch(_surrogate_individuals(2, seed=seed))
            return [ind.fitness.tobytes() for ind in done]

        # nothing of one problem survives into the next iteration, so
        # its address is free for the next problem to take
        with ProcessPoolBackend(workers=2) as pool:
            pooled = [fitnesses(seed, pool) for seed in range(60)]
        assert pooled == [fitnesses(seed, None) for seed in range(60)]


class TestCampaignEquivalence:
    def test_generational_pool_front_matches_inline(self):
        factory = lambda seed: SurrogateDeepMDProblem(seed=seed)  # noqa: E731
        inline = Campaign(factory, CFG).run()
        with ProcessPoolBackend(workers=2) as pool:
            pooled = Campaign(factory, CFG, client=pool).run()
        assert _evals(inline) == _evals(pooled)
        assert _front(inline) == _front(pooled)


class TestPoolObservability:
    def test_worker_spans_cross_the_pipe(self):
        """Each pool evaluation produces a worker-side ``worker.task``
        span that the parent tracer ingests: fresh local span ids, no
        foreign parent links, and worker/task/pid tags joining it to
        the parent-side ``task.submit`` events."""
        tracer = Tracer()
        with use_tracer(tracer):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                engine.evaluate(_surrogate_individuals(4))
        spans = tracer.spans("worker.task")
        assert len(spans) == 4
        assert len({s["id"] for s in spans}) == 4
        submit_at = {
            e["tags"]["task"]: e["mono"]
            for e in tracer.events("task.submit")
        }
        for span in spans:
            assert span["parent"] is None
            assert span["tags"]["worker"] == "pool-0"
            assert span["tags"]["pid"] > 0
            task = span["tags"]["task"]
            assert task.startswith("pool-task-")
            # CLOCK_MONOTONIC is shared across processes on one host,
            # so queue waits (submit -> span start) are joinable
            assert span["mono"] >= submit_at[task]

    def test_pool_publishes_worker_liveness_and_gauges(self):
        status = CampaignStatus()
        registry = MetricsRegistry()
        with use_status(status):
            with ProcessPoolBackend(workers=1, metrics=registry) as pool:
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                engine.evaluate(_surrogate_individuals(3))
                worker = status.snapshot()["workers"]["pool-0"]
                assert worker["state"] == "idle"
                assert worker["tasks_dispatched"] == 3
                assert worker["respawns"] == 0
                assert worker["pid"] > 0
        # the wave drained: transition gauges settled back to zero
        assert registry.gauge("pool_queue_depth").value == 0
        assert registry.gauge("pool_busy_workers").value == 0
        assert (
            registry.counter("pool_tasks_dispatched_total").value == 3
        )


class TestPoolChaos:
    def test_worker_death_is_rerun_bit_identical_to_inline(self, tmp_path):
        """A worker SIGKILLed mid-evaluation costs its task one run: the
        task is re-run in the respawned process, every fitness equals
        the inline campaign's bit for bit, the invariants (with
        requeued-elsewhere) are clean, and a journal resume reproduces
        the run."""
        inline = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), CFG
        ).run()
        plan = FaultPlan([Fault(kind="worker_death", at=2)])
        injector = plan.injector()
        tracer = Tracer()
        cache = EvaluationCache(tmp_path / "cache")
        journal = CampaignJournal(
            journal_path(tmp_path), problem_spec={"backend": "surrogate"}
        )

        def factory(seed):
            return CachedProblem(SurrogateDeepMDProblem(seed=seed), cache)

        try:
            # one worker: dispatch order == submission order, so the
            # fault window (3rd dispatched task) is deterministic
            with use_injector(injector), use_tracer(tracer):
                with ProcessPoolBackend(
                    workers=1, metrics=MetricsRegistry()
                ) as pool:
                    result = Campaign(
                        factory, CFG, client=pool, journal=journal
                    ).run()
        finally:
            journal.close()

        assert [(f.kind, f.index) for f in injector.log] == [
            ("worker_death", 2)
        ]
        (requeued,) = tracer.events("task.requeued")
        assert requeued["tags"]["attempt"] == 1
        assert _fitness_bytes(result) == _fitness_bytes(inline)

        report = InvariantChecker(
            journal=journal_path(tmp_path),
            trace=tracer.records,
            cache_dir=tmp_path / "cache",
            injected=injector.log,
        ).check()
        assert report.ok, report.summary()
        assert report.checked["requeued_elsewhere"] == 1

        resumed = resume_campaign(tmp_path, cache=cache)
        assert _evals(resumed) == _evals(result)
        assert _front(resumed) == _front(result)

    def test_worker_death_respawn_is_traced_and_published(self):
        """A killed worker leaves a full audit trail: death, requeue
        and respawn events in the trace, the respawn counters bumped,
        and the /status worker entry carrying the respawn count."""
        plan = FaultPlan([Fault(kind="worker_death", at=1)])
        tracer = Tracer()
        status = CampaignStatus()
        registry = MetricsRegistry()
        with use_injector(plan.injector()), use_tracer(tracer), use_status(
            status
        ):
            with ProcessPoolBackend(workers=1, metrics=registry) as pool:
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(3))
        assert engine.stats.failures == 0
        assert [ind.fitness.tobytes() for ind in done] == [
            ind.fitness.tobytes()
            for ind in EvaluationEngine(metrics=MetricsRegistry()).evaluate(
                _surrogate_individuals(3)
            )
        ]
        (death,) = tracer.events("pool.worker_death")
        assert death["tags"]["worker"] == "pool-0"
        (requeued,) = tracer.events("task.requeued")
        assert requeued["tags"]["from_worker"] == "pool-0"
        (respawn,) = tracer.events("pool.worker_respawn")
        assert respawn["tags"]["respawns"] == 1
        assert registry.counter("pool_worker_deaths_total").value == 1
        assert registry.counter("pool_worker_respawns_total").value == 1
        assert registry.counter("pool_tasks_requeued_total").value == 1
        assert straggler_summary(tracer.records)["requeued"] == 1
        worker = status.snapshot()["workers"]["pool-0"]
        assert worker["respawns"] == 1

    def test_death_on_every_attempt_is_maxint_after_three(self):
        """A chunk whose worker dies on every run is re-run
        ``DEATH_RETRIES`` times, then fails with a WorkerFailure naming
        its attempts — MAXINT under the engine's policy."""
        assert DEATH_RETRIES == 2
        plan = FaultPlan([Fault(kind="worker_death", at=0, count=3)])
        injector = plan.injector()
        tracer = Tracer()
        with use_injector(injector), use_tracer(tracer):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                (ind,) = engine.evaluate(_surrogate_individuals(1))
                # the pool is whole again: the next chunk runs
                (after,) = engine.evaluate(_surrogate_individuals(1, seed=1))
        assert len(injector.fired("worker_death")) == 3
        assert len(tracer.events("pool.worker_death")) == 3
        assert [
            e["tags"]["attempt"] for e in tracer.events("task.requeued")
        ] == [1, 2]
        assert np.all(ind.fitness == MAXINT)
        assert "WorkerFailure" in ind.metadata["error"]
        assert "all 3 attempts" in ind.metadata["error"]
        assert engine.stats.failures == 1
        assert after.is_viable

    def test_worker_dead_while_idle_runs_the_next_chunk(self):
        """A worker that dies between chunks is replaced before the
        next chunk runs: the chunk is requeued unrun and lands its real
        fitness (it used to come back MAXINT, "died before dispatch")."""
        first, second = _surrogate_individuals(2)
        reference = EvaluationEngine(metrics=MetricsRegistry()).evaluate(
            _surrogate_individuals(2)
        )
        tracer = Tracer()
        with use_tracer(tracer), ProcessPoolBackend(
            workers=1, metrics=MetricsRegistry()
        ) as pool:
            engine = EvaluationEngine(client=pool, metrics=MetricsRegistry())
            engine.evaluate([first])
            os.kill(pool._workers["pool-0"].process.pid, signal.SIGKILL)
            time.sleep(0.5)
            engine.evaluate([second])
        assert second.fitness.tobytes() == reference[1].fitness.tobytes()
        assert engine.stats.failures == 0
        assert len(tracer.events("pool.worker_respawn")) == 1
        (requeued,) = tracer.events("task.requeued")
        assert requeued["tags"]["attempt"] == 0  # never ran: unspent

    def test_submit_delay_fires_and_changes_nothing(self):
        """submit_delay stalls the pool's submissions; the campaign's
        evaluations and front equal the inline reference."""
        factory = lambda seed: SurrogateDeepMDProblem(seed=seed)  # noqa: E731
        inline = Campaign(factory, CFG).run()
        plan = FaultPlan([Fault("submit_delay", at=1, count=2, seconds=0.02)])
        injector = plan.injector()
        with use_injector(injector):
            with ProcessPoolBackend(
                workers=2, metrics=MetricsRegistry()
            ) as pool:
                pooled = Campaign(factory, CFG, client=pool).run()
        assert len(injector.fired("submit_delay")) == 2
        assert _evals(pooled) == _evals(inline)
        assert _front(pooled) == _front(inline)

    def test_injected_delay_only_slows(self):
        """slow_worker faults change wall-clock, never results."""
        baseline = EvaluationEngine(metrics=MetricsRegistry()).evaluate(
            _surrogate_individuals(3)
        )
        plan = FaultPlan(
            [Fault(kind="slow_worker", at=0, count=2, seconds=0.05)]
        )
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(3))
        for a, b in zip(baseline, done):
            assert np.array_equal(a.fitness, b.fitness)
