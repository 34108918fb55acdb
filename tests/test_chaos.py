"""The deterministic chaos harness: fault-plan DSL, unified injector,
invariant checker, and the property-based equivalence suite.

The load-bearing property: for seeded fault plans drawn per driver —
generational on a process pool, steady-state inline, baselines on a
process pool — the surviving Pareto front of a
faulted campaign equals the fault-free campaign's front exactly
(modulo MAXINT individuals), and the InvariantChecker reports zero
violations on every journal the suite produces.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ALL_KINDS,
    RECOVERABLE_KINDS,
    SITES,
    STORE_KINDS,
    Fault,
    FaultPlan,
    InvariantChecker,
    verify_resume_equivalence,
)
from repro.engine import EvaluationEngine, ProcessPoolBackend
from repro.evo.individual import MAXINT, Individual
from repro.evo.problem import Problem
from repro.hpo.baselines import random_search
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.injection import get_injector, use_injector
from repro.mo.pareto import pareto_front
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.store.cache import CachedProblem, EvaluationCache
from repro.store.journal import (
    CampaignJournal,
    journal_path,
    read_journal,
)
from repro.store.resume import resume_campaign

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: small but real: 2 runs x (2+1) generations x 6 = 36 trainings
CFG = CampaignConfig(n_runs=2, pop_size=6, generations=2, base_seed=7)

GEN_PLAN_SEEDS = (101, 102, 103, 104, 105)
SS_PLAN_SEEDS = (201, 202, 203, 204, 205)
BASE_PLAN_SEEDS = (301, 302, 303, 304, 305)


class IdentityDecoder:
    def decode(self, genome):
        return genome


class Sum2:
    """Picklable, stateless: the pool ships it to worker processes."""

    n_objectives = 2

    def evaluate(self, phenome):
        x = float(np.sum(np.asarray(phenome, dtype=np.float64)))
        return np.array([x, x * 2.0])


class CountingProblem(Problem):
    n_objectives = 2

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def evaluate_with_metadata(self, phenome, uuid=None):
        with self._lock:
            self.calls += 1
        values = (
            list(phenome.values())
            if isinstance(phenome, dict)
            else phenome
        )
        x = float(np.sum(np.asarray(values, dtype=np.float64)))
        return np.array([x, x * 2.0]), {}


def _ind(genome, problem):
    ind = Individual(
        np.asarray(genome, dtype=np.float64),
        decoder=IdentityDecoder(),
        problem=problem,
    )
    ind.n_objectives = problem.n_objectives
    return ind


def _all_evaluated(result):
    return [
        ind for run in result.runs for rec in run for ind in rec.evaluated
    ]


def _evals(result):
    """Every completed evaluation as sorted (genome, fitness) tuples —
    the bit-level equivalence currency."""
    return sorted(
        (
            tuple(float(g) for g in ind.genome),
            tuple(float(f) for f in np.atleast_1d(ind.fitness)),
        )
        for ind in _all_evaluated(result)
    )


def _front_points(individuals):
    return [
        (
            tuple(float(g) for g in ind.genome),
            tuple(float(f) for f in ind.fitness),
        )
        for ind in pareto_front(individuals)
    ]


def _pool(tracer):
    """The pool the faulted campaigns run on (built inside the
    injector scope, so its dispatch-time hooks bind to the plan)."""
    return ProcessPoolBackend(
        workers=2, metrics=MetricsRegistry(), tracer=tracer
    )


def _campaign(directory, plan=None, mode="generational", pool=True):
    """One full campaign, optionally under a fault plan, leaving a
    journal, a cache, and an in-memory trace behind."""
    injector = None if plan is None else plan.injector()
    tracer = Tracer()
    cache = EvaluationCache(directory / "cache", fault_injector=injector)
    journal = CampaignJournal(
        journal_path(directory),
        problem_spec={"backend": "surrogate"},
        fault_injector=injector,
    )
    config = dataclasses.replace(CFG, mode=mode)

    def factory(seed):
        return CachedProblem(SurrogateDeepMDProblem(seed=seed), cache)

    try:
        with use_injector(injector):
            if pool:
                with _pool(tracer) as backend:
                    result = Campaign(
                        factory,
                        config,
                        client=backend,
                        tracer=tracer,
                        journal=journal,
                    ).run()
            else:
                result = Campaign(
                    factory, config, tracer=tracer, journal=journal
                ).run()
    finally:
        journal.close()
    return result, tracer, injector


def _assert_invariants(directory, tracer=None, injector=None, **kwargs):
    cache_dir = directory / "cache"
    checker = InvariantChecker(
        journal=journal_path(directory),
        trace=None if tracer is None else tracer.records,
        cache_dir=cache_dir if cache_dir.exists() else None,
        injected=() if injector is None else injector.log,
        **kwargs,
    )
    report = checker.check()
    assert report.ok, report.summary()
    # the pass must not be vacuous: the checker saw real data — unless
    # an injected tear chopped the journal before any evaluation record
    if read_journal(journal_path(directory)).n_torn == 0:
        assert report.checked.get("terminal_state", 0) > 0
    return report


def _gen_plan(seed):
    return FaultPlan.random(
        seed,
        kinds=RECOVERABLE_KINDS,
        n_faults=4,
        seconds=0.03,
        horizon={"journal_truncate": 10, "cache_corrupt": 20},
        max_per_kind={"worker_death": 2},
    )


def _ss_plan(seed):
    return FaultPlan.random(
        seed,
        kinds=STORE_KINDS,
        n_faults=4,
        horizon={"journal_truncate": 14, "cache_corrupt": 24},
    )


def _base_plan(seed):
    return FaultPlan.random(
        seed,
        kinds=("worker_death", "slow_worker", "submit_delay", "cache_corrupt"),
        n_faults=4,
        seconds=0.03,
        horizon=18,
        max_per_kind={"worker_death": 2},
    )


# ----------------------------------------------------------------------
# the FaultPlan DSL
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_every_kind_has_a_site(self):
        assert set(ALL_KINDS) == set(SITES)
        assert set(RECOVERABLE_KINDS) <= set(ALL_KINDS)
        assert set(STORE_KINDS) <= set(RECOVERABLE_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("cosmic_ray")

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Fault("worker_death", at=-1)
        with pytest.raises(ValueError):
            Fault("worker_death", count=0)
        with pytest.raises(ValueError, match="offset"):
            Fault("journal_truncate", offset=0)

    def test_window_covers_count(self):
        fault = Fault("worker_death", at=3, count=2)
        assert list(fault.window()) == [3, 4]
        assert fault.site == "worker.death"

    def test_save_load_roundtrip(self, tmp_path):
        plan = FaultPlan(
            [
                Fault("slow_worker", at=1, seconds=0.25, worker="w1"),
                Fault("journal_truncate", at=2, offset=17),
            ],
            seed=99,
        )
        path = plan.save(tmp_path / "plan.json")
        clone = FaultPlan.load(path)
        assert clone.to_doc() == plan.to_doc()
        assert clone.faults[0].worker == "w1"
        assert clone.seed == 99

    def test_random_respects_caps_and_kinds(self):
        plan = FaultPlan.random(
            0,
            kinds=("worker_death",),
            n_faults=10,
            max_per_kind={"worker_death": 2},
        )
        assert len(plan) == 2
        assert plan.kinds() == {"worker_death"}

    def test_random_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPlan.random(0, kinds=("bit_flip",))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_plans_deterministic_and_bounded(self, seed):
        plan = FaultPlan.random(seed, kinds=ALL_KINDS, n_faults=5, horizon=12)
        again = FaultPlan.random(
            seed, kinds=ALL_KINDS, n_faults=5, horizon=12
        )
        assert again.to_doc() == plan.to_doc()
        clone = FaultPlan.from_doc(json.loads(json.dumps(plan.to_doc())))
        assert clone.to_doc() == plan.to_doc()
        assert len(plan) <= 5
        for fault in plan:
            assert fault.kind in ALL_KINDS
            assert 0 <= fault.at < 12
            if fault.kind == "journal_truncate":
                assert fault.offset >= 1
            if fault.kind in ("slow_worker", "submit_delay"):
                assert 0.0 <= fault.seconds <= 0.05


# ----------------------------------------------------------------------
# the unified Injector
# ----------------------------------------------------------------------
class TestInjector:
    def test_window_fires_exactly_count_times(self):
        injector = FaultPlan(
            [Fault("worker_death", at=2, count=2)]
        ).injector()
        hits = [injector.should_fail("w", i) for i in range(5)]
        assert hits == [False, False, True, True, False]
        assert injector.counters()["worker.death"] == 5
        assert len(injector.fired("worker_death")) == 2

    def test_worker_scoped_fault_matches_own_task_index(self):
        injector = FaultPlan(
            [Fault("slow_worker", at=0, seconds=0.5, worker="w1")]
        ).injector()
        assert injector.worker_delay("w0", 0) == 0.0
        assert injector.worker_delay("w1", 0) == 0.5
        assert injector.worker_delay("w1", 1) == 0.0

    def test_submit_delay(self):
        injector = FaultPlan(
            [Fault("submit_delay", at=1, seconds=0.2)]
        ).injector()
        assert injector.submit_delay("task-0") == 0.0
        assert injector.submit_delay("task-1") == 0.2

    def test_evaluation_faults(self):
        injector = FaultPlan(
            [Fault("eval_exception", at=1), Fault("eval_timeout", at=2)]
        ).injector()
        assert injector.evaluation_fault() is None
        fault = injector.evaluation_fault()
        assert type(fault.exception).__name__ == "InjectedFaultError"
        assert not fault.timeout
        fault = injector.evaluation_fault()
        assert fault.exception is None and fault.timeout

    def test_journal_truncation_returns_max_offset(self):
        injector = FaultPlan(
            [Fault("journal_truncate", at=0, offset=17)]
        ).injector()
        assert injector.journal_truncation() == 17
        assert injector.journal_truncation() is None

    def test_corrupt_cache_entry_garbles_file(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_text(json.dumps({"key": "k", "fitness": [1.0]}))
        injector = FaultPlan([Fault("cache_corrupt", at=0)]).injector()
        assert injector.corrupt_cache_entry(target)
        with pytest.raises(json.JSONDecodeError):
            json.loads(target.read_text())
        assert not injector.corrupt_cache_entry(target)

    def test_reset_replays_the_plan(self):
        injector = FaultPlan([Fault("worker_death", at=1)]).injector()
        first = [injector.should_fail("w", i) for i in range(3)]
        injector.reset()
        assert injector.counters() == {}
        assert injector.log == []
        assert [injector.should_fail("w", i) for i in range(3)] == first

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_log_is_deterministic(self, seed):
        plan = FaultPlan.random(
            seed,
            kinds=("worker_death", "slow_worker", "submit_delay"),
            n_faults=4,
            horizon=8,
        )

        def drive(injector):
            for i in range(10):
                injector.should_fail(f"w{i % 2}", i)
                injector.worker_delay(f"w{i % 2}", i)
                injector.submit_delay(f"task-{i}")
            return [(f.kind, f.site, f.index) for f in injector.log]

        assert drive(plan.injector()) == drive(plan.injector())

    def test_use_injector_scopes_the_registry(self):
        injector = FaultPlan([]).injector()
        assert get_injector() is None
        with use_injector(injector):
            assert get_injector() is injector
        assert get_injector() is None


# ----------------------------------------------------------------------
# injection through the engine (incl. satellite: timeout enforcement
# under a slow-worker fault)
# ----------------------------------------------------------------------
class TestEngineInjection:
    def test_injected_exception_maps_to_maxint(self):
        problem = CountingProblem()
        plan = FaultPlan([Fault("eval_exception", at=1)])
        engine = EvaluationEngine(fault_injector=plan.injector())
        inds = [_ind([float(i), 1.0], problem) for i in range(3)]
        engine.evaluate(inds)
        assert problem.calls == 2  # the faulted dispatch never trains
        assert np.all(np.asarray(inds[1].fitness) == MAXINT)
        assert inds[1].metadata["failed"]
        assert "InjectedFaultError" in inds[1].metadata["failure_cause"]
        for ind in (inds[0], inds[2]):
            assert not ind.metadata.get("failed")
            assert not np.any(np.asarray(ind.fitness) == MAXINT)

    def test_forced_timeout_beats_eager_inline_backend(self):
        problem = CountingProblem()
        plan = FaultPlan([Fault("eval_timeout", at=0)])
        engine = EvaluationEngine(fault_injector=plan.injector())
        ind = _ind([1.0, 2.0], problem)
        engine.evaluate([ind])
        assert np.all(np.asarray(ind.fitness) == MAXINT)
        assert "TrainingTimeoutError" in ind.metadata["failure_cause"]
        assert engine.stats.timeouts == 1

    def test_slow_worker_trips_the_pool_deadline(self):
        plan = FaultPlan([Fault("slow_worker", at=2, seconds=0.6)])
        injector = plan.injector()
        with use_injector(injector):
            pool_metrics = MetricsRegistry()
            with ProcessPoolBackend(workers=2, metrics=pool_metrics) as pool:
                # dispatches 0 and 1 wait for both workers to start and
                # ship them the problem; the deadline times evaluations
                # only, from there on
                problem = Sum2()
                EvaluationEngine(client=pool, metrics=MetricsRegistry()).evaluate(
                    [_ind([0.0, 0.0], problem), _ind([0.0, 1.0], problem)]
                )
                pool.deadline = 0.3
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                (slow,) = engine.evaluate([_ind([1.0, 2.0], problem)])
                # the killed worker's successor takes this one: its boot
                # and its load of the problem (an import of this module)
                # are not the evaluation's time
                (fine,) = engine.evaluate([_ind([3.0, 4.0], problem)])
        assert np.all(np.asarray(slow.fitness) == MAXINT)
        assert "TrainingTimeoutError" in slow.metadata["failure_cause"]
        assert engine.stats.failures == 1
        assert pool_metrics.counter("pool_deadline_kills_total").value == 1
        assert not fine.metadata.get("failed")
        assert len(injector.fired("slow_worker")) == 1


# ----------------------------------------------------------------------
# injection through the store
# ----------------------------------------------------------------------
class TestStoreInjection:
    def test_corrupted_insert_recovers_by_retraining(self, tmp_path):
        plan = FaultPlan([Fault("cache_corrupt", at=0)])
        injector = plan.injector()
        cache = EvaluationCache(tmp_path / "cache", fault_injector=injector)
        problem = CountingProblem()
        cached = CachedProblem(problem, cache)
        first = _ind([1.0, 2.0], cached)
        first.evaluate()
        assert problem.calls == 1
        assert len(injector.fired("cache_corrupt")) == 1
        # the corrupted entry must be observable: the next evaluation
        # of the same genome misses and retrains to the same fitness
        second = _ind([1.0, 2.0], cached)
        second.evaluate()
        assert problem.calls == 2
        assert not second.metadata.get("cache_hit")
        assert np.allclose(first.fitness, second.fitness)
        assert cache.stats()["corrupt"] >= 1

    def test_journal_truncation_leaves_torn_tail(self, tmp_path):
        plan = FaultPlan([Fault("journal_truncate", at=1, offset=9)])
        injector = plan.injector()
        journal = CampaignJournal(
            journal_path(tmp_path),
            problem_spec={"backend": "surrogate"},
            fault_injector=injector,
        )
        journal.begin_campaign(CFG)
        journal.begin_run(0, 7)  # <- chopped 9 bytes after fsync
        journal.close()
        state = read_journal(journal_path(tmp_path))
        assert state.n_torn == 1
        assert state.config_doc is not None
        report = InvariantChecker(
            journal=journal_path(tmp_path), injected=injector.log
        ).check()
        assert report.ok, report.summary()
        # the same journal without the injector's confession is a bug
        bad = InvariantChecker(journal=journal_path(tmp_path)).check()
        assert any(
            v.invariant == "journal_untorn" for v in bad.violations
        )


# ----------------------------------------------------------------------
# the InvariantChecker catches real violations
# ----------------------------------------------------------------------
def _write_journal(path, docs):
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))


def _gen_doc(genomes, fitness, metadata, generation=0, n_failures=None):
    if n_failures is None:
        n_failures = sum(1 for m in metadata if m.get("failed"))
    group = {
        "genomes": genomes,
        "fitness": fitness,
        "uuids": [f"u{i}" for i in range(len(genomes))],
        "metadata": metadata,
    }
    return {
        "type": "generation",
        "run": 0,
        "generation": generation,
        "n_failures": n_failures,
        "population": group,
        "evaluated": group,
    }


def _journal_docs(*generation_docs):
    return [
        {
            "type": "campaign_begin",
            "schema_version": 2,
            "config": {"n_runs": 1},
            "problem_spec": {},
        },
        {"type": "run_begin", "run": 0, "seed": 1},
        *generation_docs,
        {"type": "run_end", "run": 0},
        {"type": "campaign_end"},
    ]


class TestInvariantCheckerNegative:
    def _violations(self, tmp_path, doc, **kwargs):
        path = tmp_path / "journal.jsonl"
        _write_journal(path, _journal_docs(doc))
        report = InvariantChecker(journal=path, **kwargs).check()
        return {v.invariant for v in report.violations}

    def test_maxint_without_failed_flag(self, tmp_path):
        doc = _gen_doc([[1.0, 2.0]], [[MAXINT, MAXINT]], [{}])
        assert "failed_iff_maxint" in self._violations(tmp_path, doc)

    def test_failed_without_maxint(self, tmp_path):
        doc = _gen_doc([[1.0, 2.0]], [[1.0, 2.0]], [{"failed": True}])
        assert "failed_iff_maxint" in self._violations(tmp_path, doc)

    def test_missing_fitness_is_not_terminal(self, tmp_path):
        doc = _gen_doc([[1.0, 2.0]], [None], [{}])
        assert "terminal_state" in self._violations(tmp_path, doc)

    def test_failure_count_mismatch(self, tmp_path):
        doc = _gen_doc([[1.0, 2.0]], [[1.0, 2.0]], [{}], n_failures=3)
        assert "failure_count_consistent" in self._violations(
            tmp_path, doc
        )

    def test_genome_trained_twice_in_one_batch(self, tmp_path):
        doc = _gen_doc(
            [[1.0, 2.0], [1.0, 2.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [{}, {}],
        )
        assert "trained_once_per_batch" in self._violations(
            tmp_path, doc
        )
        # dedup=False waives the promise
        assert "trained_once_per_batch" not in self._violations(
            tmp_path, doc, dedup=False
        )

    def test_failed_cache_entry_flagged(self, tmp_path):
        entry_dir = tmp_path / "cache" / "ab"
        entry_dir.mkdir(parents=True)
        (entry_dir / "abcd.json").write_text(
            json.dumps({"key": "abcd", "failed": True})
        )
        report = InvariantChecker(cache_dir=tmp_path / "cache").check()
        assert any(
            v.invariant == "failures_not_cached"
            for v in report.violations
        )
        tolerant = InvariantChecker(
            cache_dir=tmp_path / "cache", cache_failures=True
        ).check()
        assert tolerant.ok, tolerant.summary()

    def test_unexplained_cache_corruption_flagged(self, tmp_path):
        entry_dir = tmp_path / "cache" / "ab"
        entry_dir.mkdir(parents=True)
        (entry_dir / "abcd.json").write_text("not json {")
        report = InvariantChecker(cache_dir=tmp_path / "cache").check()
        assert any(
            v.invariant == "cache_entries_readable"
            for v in report.violations
        )
        confessed = InvariantChecker(
            cache_dir=tmp_path / "cache",
            injected=[Fault("cache_corrupt")],
        ).check()
        assert confessed.ok, confessed.summary()

    def test_an_empty_journal_is_explained_only_by_a_tear_at_append_0(
        self, tmp_path
    ):
        """A ``journal_truncate`` that fired at append 0 tears
        ``campaign_begin``, and every later record lands on the torn
        line: no record is readable, and that is expected.  Nothing
        else excuses an empty journal — not a tear at another append,
        not a scripted fault that never fired."""
        from repro.chaos import InjectedFault

        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "campaign_be{"type": "run_begin"}\n')

        def violations(injected):
            report = InvariantChecker(journal=path, injected=injected).check()
            return {v.invariant for v in report.violations}

        tear = Fault("journal_truncate", offset=30)
        assert violations([InjectedFault(tear, "journal.append", 0)]) == set()
        assert "journal_readable" in violations([])
        assert "journal_readable" in violations(
            [InjectedFault(tear, "journal.append", 3)]
        )
        assert "journal_readable" in violations([tear])

    def test_double_terminal_state_in_trace(self):
        trace = [
            {"type": "event", "name": "task.submit", "tags": {"task": "t0"}},
            {"type": "event", "name": "task.done", "tags": {"task": "t0"}},
            {"type": "event", "name": "task.done", "tags": {"task": "t0"}},
        ]
        report = InvariantChecker(trace=trace).check()
        assert any(
            v.invariant == "one_terminal_state" for v in report.violations
        )

    def test_every_submitted_task_needs_its_own_terminal_event(self):
        """Nothing drains tasks in bulk any more: a submission without a
        terminal event is a violation, whatever else the trace says."""
        trace = [
            {"type": "event", "name": "task.submit", "tags": {"task": "t0"}},
        ]
        report = InvariantChecker(trace=trace).check()
        assert any(
            v.invariant == "one_terminal_state" for v in report.violations
        )
        bulk = trace + [
            {
                "type": "event",
                "name": "task.stranded",
                "tags": {"count": 1},
            }
        ]
        report = InvariantChecker(trace=bulk).check()
        assert any(
            v.invariant == "one_terminal_state" for v in report.violations
        )
        done = trace + [
            {"type": "event", "name": "task.done", "tags": {"task": "t0"}}
        ]
        assert InvariantChecker(trace=done).check().ok

    def test_requeued_task_must_complete_elsewhere(self):
        """Elsewhere means another process: a respawned successor keeps
        its worker name, so only the pids tell a re-run in a fresh
        process from one in the process the task was requeued off."""

        def trace(final_worker, final_pid):
            return [
                {
                    "type": "event",
                    "name": "task.submit",
                    "tags": {"task": "t0"},
                },
                {
                    "type": "event",
                    "name": "task.requeued",
                    "tags": {
                        "task": "t0",
                        "from_worker": "w0",
                        "from_pid": 101,
                        "attempt": 1,
                    },
                },
                {
                    "type": "event",
                    "name": "task.done",
                    "tags": {"task": "t0"},
                },
                {
                    "type": "span",
                    "name": "worker.task",
                    "tags": {"task": "t0", "worker": "w0", "pid": 101},
                },
                {
                    "type": "span",
                    "name": "worker.task",
                    "tags": {
                        "task": "t0",
                        "worker": final_worker,
                        "pid": final_pid,
                        "attempt": 1,
                    },
                },
            ]

        for good in (trace("w1", 102), trace("w0", 103)):
            report = InvariantChecker(trace=good).check()
            assert report.ok, report.summary()
            assert report.checked["requeued_elsewhere"] == 1
        # a re-run in the dead process is a violation, whatever the
        # name the trace gives its worker
        for bad in (trace("w0", 101), trace("w1", 101)):
            report = InvariantChecker(trace=bad).check()
            assert any(
                v.invariant == "requeued_elsewhere"
                for v in report.violations
            )

    def test_requeued_task_must_reach_terminal_state(self):
        trace = [
            {"type": "event", "name": "task.submit", "tags": {"task": "t0"}},
            {
                "type": "event",
                "name": "task.requeued",
                "tags": {"task": "t0", "from_worker": "w0"},
            },
        ]
        report = InvariantChecker(trace=trace).check()
        assert any(
            v.invariant == "requeued_completes" for v in report.violations
        )


# ----------------------------------------------------------------------
# the equivalence property, per driver
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def generational_reference(tmp_path_factory):
    directory = tmp_path_factory.mktemp("gen-ref")
    result, tracer, _ = _campaign(directory)
    return {
        "dir": directory,
        "tracer": tracer,
        "evals": _evals(result),
        "front": _front_points(_all_evaluated(result)),
    }


@pytest.fixture(scope="module")
def steady_reference(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ss-ref")
    result, tracer, _ = _campaign(
        directory, mode="steady-state", pool=False
    )
    return {
        "dir": directory,
        "evals": _evals(result),
        "front": _front_points(_all_evaluated(result)),
    }


class TestGenerationalEquivalence:
    def test_reference_journal_is_invariant_clean(
        self, generational_reference
    ):
        _assert_invariants(
            generational_reference["dir"],
            tracer=generational_reference["tracer"],
        )

    @pytest.mark.parametrize("plan_seed", GEN_PLAN_SEEDS)
    def test_faulted_campaign_matches_reference(
        self, tmp_path, generational_reference, plan_seed
    ):
        plan = _gen_plan(plan_seed)
        result, tracer, injector = _campaign(tmp_path, plan=plan)
        assert _evals(result) == generational_reference["evals"]
        assert (
            _front_points(_all_evaluated(result))
            == generational_reference["front"]
        )
        _assert_invariants(tmp_path, tracer=tracer, injector=injector)


class TestSteadyStateEquivalence:
    def test_reference_journal_is_invariant_clean(self, steady_reference):
        _assert_invariants(steady_reference["dir"])

    @pytest.mark.parametrize("plan_seed", SS_PLAN_SEEDS)
    def test_faulted_campaign_matches_reference(
        self, tmp_path, steady_reference, plan_seed
    ):
        plan = _ss_plan(plan_seed)
        result, _, injector = _campaign(
            tmp_path, plan=plan, mode="steady-state", pool=False
        )
        assert _evals(result) == steady_reference["evals"]
        assert (
            _front_points(_all_evaluated(result))
            == steady_reference["front"]
        )
        _assert_invariants(tmp_path, injector=injector)


def _baseline_search(directory, plan=None):
    """random_search over a process pool, each evaluation journaled."""
    injector = None if plan is None else plan.injector()
    tracer = Tracer()
    cache = EvaluationCache(directory / "cache", fault_injector=injector)
    journal = CampaignJournal(
        journal_path(directory),
        problem_spec={"backend": "surrogate"},
        fault_injector=injector,
    )
    problem = CachedProblem(SurrogateDeepMDProblem(seed=7), cache)
    try:
        with use_injector(injector):
            with _pool(tracer) as backend:
                journal.begin_campaign(
                    CampaignConfig(n_runs=1, pop_size=6, generations=2)
                )
                journal.begin_run(0, 7)
                engine = EvaluationEngine(
                    client=backend,
                    tracer=tracer,
                    fault_injector=injector,
                )
                result = random_search(problem, budget=18, rng=7, engine=engine)
                for individual in result.evaluated:
                    journal.append_evaluation(individual)
                journal.end_run(0)
                journal.end_campaign()
    finally:
        journal.close()
    return result, tracer, injector


@pytest.fixture(scope="module")
def baseline_reference(tmp_path_factory):
    directory = tmp_path_factory.mktemp("base-ref")
    result, _, _ = _baseline_search(directory)
    evals = sorted(
        (
            tuple(float(g) for g in ind.genome),
            tuple(float(f) for f in ind.fitness),
        )
        for ind in result.evaluated
    )
    return {
        "dir": directory,
        "evals": evals,
        "front": _front_points(result.evaluated),
    }


class TestBaselineEquivalence:
    def test_reference_journal_is_invariant_clean(self, baseline_reference):
        _assert_invariants(baseline_reference["dir"])

    @pytest.mark.parametrize("plan_seed", BASE_PLAN_SEEDS)
    def test_faulted_search_matches_reference(
        self, tmp_path, baseline_reference, plan_seed
    ):
        plan = _base_plan(plan_seed)
        result, tracer, injector = _baseline_search(tmp_path, plan=plan)
        evals = sorted(
            (
                tuple(float(g) for g in ind.genome),
                tuple(float(f) for f in ind.fitness),
            )
            for ind in result.evaluated
        )
        assert evals == baseline_reference["evals"]
        assert (
            _front_points(result.evaluated)
            == baseline_reference["front"]
        )
        _assert_invariants(tmp_path, tracer=tracer, injector=injector)


# ----------------------------------------------------------------------
# MAXINT-modulo equivalence: injected failures shrink the front by
# exactly the faulted individuals, nothing else
# ----------------------------------------------------------------------
class TestMaxintModulo:
    def test_front_equals_reference_minus_failed(self, tmp_path):
        config = CampaignConfig(
            n_runs=1, pop_size=6, generations=2, base_seed=7
        )
        reference = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), config
        ).run()
        # 18 dispatches per run; ordinals 12..17 are the final
        # generation, so breeding is already done when these fire
        plan = FaultPlan(
            [Fault("eval_exception", at=13), Fault("eval_exception", at=16)]
        )
        injector = plan.injector()
        journal = CampaignJournal(
            journal_path(tmp_path), problem_spec={"backend": "surrogate"}
        )
        try:
            with use_injector(injector):
                chaotic = Campaign(
                    lambda seed: SurrogateDeepMDProblem(seed=seed),
                    config,
                    journal=journal,
                ).run()
        finally:
            journal.close()
        # the surrogate also fails naturally (unstable-lr band) — those
        # failures are deterministic and identical in both runs; only
        # the injected ones may differ
        failed = [
            ind
            for ind in _all_evaluated(chaotic)
            if "InjectedFaultError"
            in ind.metadata.get("failure_cause", "")
        ]
        assert len(failed) == 2
        failed_keys = set()
        for ind in failed:
            assert ind.metadata["failed"]
            assert np.all(np.asarray(ind.fitness) == MAXINT)
            failed_keys.add(tuple(float(g) for g in ind.genome))
        # every non-faulted evaluation is bit-identical to the reference
        ref_evals = _evals(reference)
        assert [e for e in _evals(chaotic) if e[0] not in failed_keys] == [
            e for e in ref_evals if e[0] not in failed_keys
        ]
        # ...and the surviving front is the reference front modulo the
        # MAXINT individuals
        ref_minus_failed = [
            ind
            for ind in _all_evaluated(reference)
            if tuple(float(g) for g in ind.genome) not in failed_keys
        ]
        assert _front_points(_all_evaluated(chaotic)) == _front_points(
            ref_minus_failed
        )
        report = InvariantChecker(
            journal=journal_path(tmp_path), injected=injector.log
        ).check()
        assert report.ok, report.summary()


# ----------------------------------------------------------------------
# kill / resume under faults
# ----------------------------------------------------------------------
class _Kill(Exception):
    pass


class TestResumeUnderFaults:
    def test_resume_is_bit_identical_to_uninterrupted_run(self, tmp_path):
        base = tmp_path / "base"
        chaos_dir = tmp_path / "chaos"
        journal_a = CampaignJournal(
            journal_path(base), problem_spec={"backend": "surrogate"}
        )
        try:
            reference = Campaign(
                lambda seed: SurrogateDeepMDProblem(seed=seed),
                CFG,
                journal=journal_a,
            ).run()
        finally:
            journal_a.close()

        # phase 1: run under cache-corruption faults, die after run 0
        # committed generation 1
        plan1 = FaultPlan(
            [Fault("cache_corrupt", at=1), Fault("cache_corrupt", at=5)]
        )
        inj1 = plan1.injector()
        cache1 = EvaluationCache(
            chaos_dir / "cache", fault_injector=inj1
        )
        journal_b = CampaignJournal(
            journal_path(chaos_dir),
            problem_spec={"backend": "surrogate"},
            fault_injector=inj1,
        )

        def killer(run_index, rec):
            if run_index == 0 and rec.generation == 1:
                raise _Kill()

        try:
            with use_injector(inj1):
                with pytest.raises(_Kill):
                    Campaign(
                        lambda seed: CachedProblem(
                            SurrogateDeepMDProblem(seed=seed), cache1
                        ),
                        CFG,
                        journal=journal_b,
                    ).run(callback=killer)
        finally:
            journal_b.close()

        # phase 2: resume under a different fault plan
        plan2 = FaultPlan([Fault("cache_corrupt", at=0)])
        inj2 = plan2.injector()
        cache2 = EvaluationCache(
            chaos_dir / "cache", fault_injector=inj2
        )
        with use_injector(inj2):
            resumed = resume_campaign(chaos_dir, cache=cache2)

        assert verify_resume_equivalence(reference, resumed) == []
        assert _evals(resumed) == _evals(reference)
        assert _front_points(_all_evaluated(resumed)) == _front_points(
            _all_evaluated(reference)
        )
        report = InvariantChecker(
            journal=journal_path(chaos_dir),
            cache_dir=chaos_dir / "cache",
            injected=[*inj1.log, *inj2.log],
        ).check()
        assert report.ok, report.summary()

    def test_resume_after_injected_torn_tail(self, tmp_path):
        base = tmp_path / "base"
        torn = tmp_path / "torn"
        journal_a = CampaignJournal(
            journal_path(base), problem_spec={"backend": "surrogate"}
        )
        try:
            reference = Campaign(
                lambda seed: SurrogateDeepMDProblem(seed=seed),
                CFG,
                journal=journal_a,
            ).run()
        finally:
            journal_a.close()

        # append ordinal 9 is run 1's final generation record: the
        # campaign "finishes" but its journal tail is torn mid-file
        plan = FaultPlan([Fault("journal_truncate", at=9, offset=30)])
        injector = plan.injector()
        journal_b = CampaignJournal(
            journal_path(torn),
            problem_spec={"backend": "surrogate"},
            fault_injector=injector,
        )
        try:
            with use_injector(injector):
                Campaign(
                    lambda seed: SurrogateDeepMDProblem(seed=seed),
                    CFG,
                    journal=journal_b,
                ).run()
        finally:
            journal_b.close()
        assert read_journal(journal_path(torn)).n_torn >= 1
        assert len(injector.fired("journal_truncate")) == 1

        with pytest.warns(UserWarning, match="torn"):
            resumed = resume_campaign(torn)
        assert _evals(resumed) == _evals(reference)
        assert _front_points(_all_evaluated(resumed)) == _front_points(
            _all_evaluated(reference)
        )


# ----------------------------------------------------------------------
# the CLI: chaos-seeded kill → resume, end to end
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestCliChaos:
    def _run_cli(self, args, cwd):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.hpo.cli", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_chaos_kill_resume_matches_clean_campaign(self, tmp_path):
        common = [
            "campaign",
            "--runs", "2",
            "--pop-size", "6",
            "--generations", "3",
            "--seed", "7",
        ]
        base = self._run_cli(common + ["--save", "base"], cwd=tmp_path)
        assert base.returncode == 0, base.stderr
        killed = self._run_cli(
            common
            + [
                "--save", "killed",
                "--chaos-seed", "11",
                "--kill-after-evals", "20",
            ],
            cwd=tmp_path,
        )
        assert killed.returncode == 137, killed.stderr
        assert (tmp_path / "killed" / "chaos_plan_11.json").exists()
        resumed = self._run_cli(
            ["resume", "killed", "--chaos-seed", "12"], cwd=tmp_path
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "chaos invariants: OK" in resumed.stdout
        assert (tmp_path / "killed" / "chaos_plan_12.json").exists()

        from repro.io import load_campaign

        a = load_campaign(tmp_path / "base")
        b = load_campaign(tmp_path / "killed")
        front_a = _front_points(a.last_generation_individuals())
        front_b = _front_points(b.last_generation_individuals())
        assert front_a == front_b
