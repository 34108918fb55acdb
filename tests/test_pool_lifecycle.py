"""Process-pool lifecycle: futures, ordering, shutdown, revocation, and
the one worker-death policy.

A worker that dies mid-chunk is respawned under its name and the chunk
goes back to the front of the queue with its attempt counter bumped;
a chunk that has lost ``DEATH_RETRIES`` runs fails with
:class:`WorkerFailure` on the next death.  Revocations spend the same
budget.  An exception raised *inside* a worker is the chunk's outcome
and is never re-run.

The problems live in :mod:`tests.pool_problems`, which a pool
worker imports cheaply.  Pools are 1–2 workers.
"""

import gc
import os
import threading
import time
import weakref

import numpy as np
import pytest

from repro.chaos import Fault, FaultPlan
from repro.engine import ProcessPoolBackend
from repro.engine.pool import DEATH_RETRIES
from repro.evo.individual import Individual
from repro.exceptions import TrainingTimeoutError, WorkerFailure, WorkerRevoked
from repro.injection import FaultInjector, use_injector
from repro.obs import Tracer, use_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import straggler_summary, worker_utilization
from tests.pool_problems import Echo, Picky, Scratch, Sleepy, WorkerHostile


ECHO = Echo()


def _echo(n, start=0, problem=ECHO):
    return [
        Individual(np.array([float(start + i), 0.0]), problem=problem)
        for i in range(n)
    ]


def _sleepy(seconds):
    return [Individual(np.zeros(2), problem=Sleepy(seconds))]


def _firsts(slots):
    return [float(fitness[0]) for fitness, _ in slots]


def _count(registry, name):
    return registry.counter(name).value


@pytest.fixture
def pool2():
    """A healthy 2-worker pool and its registry.  Per test: the suite
    reaps every pool worker a test leaves running."""
    registry = MetricsRegistry()
    with ProcessPoolBackend(workers=2, metrics=registry) as pool:
        yield pool, registry


class TestConstruction:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="at least one"):
            ProcessPoolBackend(workers=workers)

    def test_default_size_is_the_core_count_and_at_least_two(self):
        with ProcessPoolBackend(metrics=MetricsRegistry()) as pool:
            assert pool.n_workers == max(2, os.cpu_count() or 1)


class TestProcessFuture:
    def test_done_is_false_until_the_worker_replies(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            future = pool.submit_batch(_sleepy(0.3))
            assert not future.done()
            (slot,) = future.result(timeout=30.0)
            assert future.done()
        assert list(slot[0]) == [1.0, 2.0]

    def test_resolved_reads_without_draining(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            future = pool.submit_batch(_echo(1))
            drains = []
            drain = pool._drain
            pool._drain = lambda: (drains.append(1), drain())
            time.sleep(0.2)
            assert not future.resolved and not drains
            future.result(timeout=30.0)
            assert future.resolved and drains

    def test_result_timeout_leaves_the_task_running(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            future = pool.submit_batch(_sleepy(0.5))
            with pytest.raises(TimeoutError, match="unresolved"):
                future.result(timeout=0.05)
            (slot,) = future.result(timeout=30.0)
        assert list(slot[0]) == [1.0, 2.0]

    def test_cancel_removes_a_queued_task(self):
        registry = MetricsRegistry()
        with ProcessPoolBackend(workers=1, metrics=registry) as pool:
            busy = pool.submit_batch(_sleepy(0.3))
            queued = pool.submit_batch(_echo(1))
            assert pool.queue_depth() == 1
            queued.cancel()
            assert pool.queue_depth() == 0
            with pytest.raises(WorkerFailure, match="cancelled"):
                queued.result(timeout=1.0)
            busy.result(timeout=30.0)
            after = pool.submit_batch(_echo(1, start=5))
            assert _firsts(after.result(timeout=30.0)) == [5.0]
        # the cancelled task never reached a worker
        assert _count(registry, "pool_tasks_dispatched_total") == 2

    def test_cancel_after_resolution_keeps_the_result(self, pool2):
        pool, _ = pool2
        future = pool.submit_batch(_echo(2))
        slots = future.result(timeout=30.0)
        future.cancel()
        assert _firsts(future.result(timeout=1.0)) == _firsts(slots)

    def test_late_reply_of_a_cancelled_running_task_is_discarded(self):
        tracer = Tracer()
        with use_tracer(tracer), ProcessPoolBackend(
            workers=1, metrics=MetricsRegistry()
        ) as pool:
            running = pool.submit_batch(_sleepy(0.3))
            running.cancel()
            with pytest.raises(WorkerFailure, match="cancelled"):
                running.result(timeout=1.0)
            # queued behind the cancelled task: it runs once the late
            # reply frees the worker
            nxt = pool.submit_batch(_echo(1, start=3))
            assert _firsts(nxt.result(timeout=30.0)) == [3.0]
        assert [e["tags"]["task"] for e in tracer.events("task.abandoned")] == [
            "pool-task-0"
        ]
        assert [e["tags"]["task"] for e in tracer.events("task.done")] == [
            "pool-task-1"
        ]


class TestHealthyPool:
    def test_chunk_slots_come_back_in_submission_order(self, pool2):
        pool, _ = pool2
        slots = pool.submit_batch(_echo(7)).result(timeout=30.0)
        assert _firsts(slots) == [float(i) for i in range(7)]

    def test_many_chunks_each_resolve_to_their_own_slots(self, pool2):
        pool, _ = pool2
        futures = [pool.submit_batch(_echo(3, start=3 * k)) for k in range(10)]
        # collected newest first: no future waits on the order of others
        for k in reversed(range(10)):
            assert _firsts(futures[k].result(timeout=30.0)) == [
                float(3 * k + i) for i in range(3)
            ]

    @pytest.mark.parametrize("n, chunk", [(1, 1), (2, 1), (5, 3), (8, 4)])
    def test_chunk_hint_spreads_a_batch_over_both_workers(
        self, pool2, n, chunk
    ):
        pool, _ = pool2
        assert pool.batch_chunk_hint(n) == chunk

    def test_counters_count_dispatches_and_cache_hits(self, pool2):
        pool, registry = pool2
        for k in range(3):
            pool.submit_batch(_echo(2, start=k)).result(timeout=30.0)
        for ind in _echo(2):
            pool.on_cache_hit(ind)
        assert _count(registry, "pool_tasks_dispatched_total") == 3
        assert _count(registry, "pool_cache_hits_total") == 2
        assert _count(registry, "pool_worker_deaths_total") == 0
        assert registry.gauge("pool_queue_depth").value == 0
        assert registry.gauge("pool_busy_workers").value == 0

    def test_scalar_submit_resolves_to_its_one_slot(self, pool2):
        pool, _ = pool2
        (ind,) = _echo(1, start=4)
        fitness, metadata = pool.submit(ind).result(timeout=30.0)
        assert list(fitness) == [4.0, 2.0]
        assert isinstance(metadata, dict)

    def test_scalar_submit_raises_the_slots_exception(self, pool2):
        pool, _ = pool2
        (ind,) = _echo(1, start=1, problem=Picky())
        with pytest.raises(ValueError, match="bad hyperparameters"):
            pool.submit(ind).result(timeout=30.0)

    def test_revoking_an_unknown_worker_is_a_no_op(self, pool2):
        pool, _ = pool2
        assert pool.revoke_worker("pool-99") is None
        assert pool.n_workers == 2


class TestShutdown:
    def test_closed_pool_rejects_submissions(self):
        pool = ProcessPoolBackend(workers=1, metrics=MetricsRegistry())
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit_batch(_echo(1))

    def test_closed_pool_rejects_scaling(self):
        pool = ProcessPoolBackend(workers=1, metrics=MetricsRegistry())
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.scale_to(2)

    def test_close_fails_queued_and_running_work_instead_of_stranding(self):
        pool = ProcessPoolBackend(workers=1, metrics=MetricsRegistry())
        # short: close() waits for the running task before it stops
        running = pool.submit_batch(_sleepy(1.0))
        queued = pool.submit_batch(_echo(1))
        pool.close()
        with pytest.raises(WorkerFailure, match="closed before dispatch"):
            queued.result(timeout=1.0)
        with pytest.raises(WorkerFailure, match="closed mid-task"):
            running.result(timeout=1.0)

    def test_revoking_on_a_closed_pool_is_a_no_op(self):
        pool = ProcessPoolBackend(workers=1, metrics=MetricsRegistry())
        pool.close()
        assert pool.revoke_worker() is None

    def test_leaving_the_with_block_stops_every_worker(self):
        with ProcessPoolBackend(workers=2, metrics=MetricsRegistry()) as pool:
            processes = [h.process for h in pool._workers.values()]
        assert pool.closed
        assert not any(p.is_alive() for p in processes)


class TestCapacity:
    def test_queue_depth_and_idle_workers_track_the_backlog(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            assert (pool.queue_depth(), pool.idle_workers()) == (0, 1)
            futures = [pool.submit_batch(_sleepy(0.2))] + [
                pool.submit_batch(_echo(1)) for _ in range(2)
            ]
            assert (pool.queue_depth(), pool.idle_workers()) == (2, 0)
            for future in futures:
                future.result(timeout=30.0)
            assert (pool.queue_depth(), pool.idle_workers()) == (0, 1)

    def test_scaling_down_waits_for_a_busy_worker(self):
        with ProcessPoolBackend(workers=2, metrics=MetricsRegistry()) as pool:
            busy = pool.submit_batch(_sleepy(0.3))
            assert pool.scale_to(1) == 1  # the idle worker goes
            assert pool.scale_to(0) == 1  # the busy one finishes first
            busy.result(timeout=30.0)
            assert pool.scale_to(0) == 0
            with pytest.raises(WorkerRevoked, match="no surviving worker"):
                pool.submit_batch(_echo(1)).result(timeout=1.0)

    def test_submitting_after_every_worker_is_revoked_fails_fast(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            assert pool.revoke_worker() == "pool-0"
            assert pool.n_workers == 0
            future = pool.submit_batch(_echo(1))
            assert future.done()
            with pytest.raises(WorkerRevoked):
                future.result(timeout=1.0)

    def test_revoking_the_last_worker_fails_its_task_and_the_backlog(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            running = pool.submit_batch(_sleepy(30.0))
            queued = pool.submit_batch(_echo(1))
            pool.revoke_worker()
            for future in (running, queued):
                with pytest.raises(WorkerRevoked, match="no surviving"):
                    future.result(timeout=1.0)

    def test_a_pool_emptied_by_revocation_serves_again_once_scaled_up(self):
        tracer = Tracer()
        with use_tracer(tracer), ProcessPoolBackend(
            workers=1, metrics=MetricsRegistry()
        ) as pool:
            pool.revoke_worker()
            assert pool.scale_to(1) == 1
            slots = pool.submit_batch(_echo(2)).result(timeout=30.0)
        assert _firsts(slots) == [0.0, 1.0]
        # the revoked name stays dead: the successor is a fresh index
        assert [e["tags"]["worker"] for e in tracer.events("pool.scale_up")] == [
            "pool-1"
        ]


class TestSegmentLifetime:
    """A pool holds a problem's shared segment only while its caller
    holds the problem, or while a queued or running task needs it: a
    service that runs campaign after campaign on one pool would keep
    every finished problem, and its run directories, otherwise."""

    def test_a_collected_problem_leaves_the_pool_and_its_workers(self, pool2):
        pool, _ = pool2
        problems = [Scratch(offset=100.0 * k) for k in range(3)]
        watched = [weakref.ref(p) for p in problems]
        directories = [p.directory for p in problems]
        for k, problem in enumerate(problems):
            futures = [
                pool.submit_batch(_echo(2, start=2 * i, problem=problem))
                for i in range(2)
            ]
            for i, future in enumerate(futures):
                assert _firsts(future.result(timeout=30.0)) == [
                    100.0 * k + 2 * i,
                    100.0 * k + 2 * i + 1,
                ]
        assert len(pool._segments) == len(pool._segment_payloads) == 3
        assert len(set().union(*(h.segments for h in pool._workers.values()))) == 3
        del problem, problems
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]
        assert not any(map(os.path.exists, directories))
        assert pool._segments == {} and pool._segment_payloads == {}
        pool._drain()  # idle workers are told to drop them
        assert [h.segments for h in pool._workers.values()] == [set(), set()]
        # a new problem gets a new key and a fresh shipment
        problem = Echo(offset=7.0)
        future = pool.submit_batch(_echo(2, problem=problem))
        assert _firsts(future.result(timeout=30.0)) == [7.0, 8.0]
        (key,) = pool._segment_payloads
        assert key.startswith("seg3-")

    def test_a_queued_or_running_task_keeps_its_segments(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            running = pool.submit_batch(_sleepy(0.3))
            queued = pool.submit_batch(_echo(2, problem=Echo(offset=5.0)))
            gc.collect()
            assert len(pool._segments) == 2
            assert _firsts(running.result(timeout=30.0)) == [1.0]
            assert _firsts(queued.result(timeout=30.0)) == [5.0, 6.0]
            gc.collect()
            assert pool._segments == {}

    def test_a_rerun_reships_a_segment_its_caller_dropped(self):
        plan = FaultPlan([Fault("worker_death", at=0)])
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                future = pool.submit_batch(_echo(2, problem=Echo(offset=9.0)))
                gc.collect()
                assert _firsts(future.result(timeout=60.0)) == [9.0, 10.0]

    def test_close_clears_the_registry(self):
        problem = Echo()
        pool = ProcessPoolBackend(workers=1, metrics=MetricsRegistry())
        pool.submit_batch(_echo(1, problem=problem)).result(timeout=30.0)
        pool.close()
        assert pool._segments == {} and pool._segment_payloads == {}


class TestDeathPolicy:
    @pytest.mark.parametrize("chunk", [1, 4])
    @pytest.mark.parametrize("deaths", [1, 2, 3])
    def test_a_chunk_is_rerun_until_it_has_lost_the_budget(
        self, deaths, chunk
    ):
        """Each death respawns the worker and requeues the whole chunk
        with its attempt bumped; the death past ``DEATH_RETRIES`` fails
        the chunk with a WorkerFailure naming its attempts."""
        plan = FaultPlan([Fault("worker_death", at=0, count=deaths)])
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_injector(plan.injector()), use_tracer(tracer):
            with ProcessPoolBackend(workers=1, metrics=registry) as pool:
                future = pool.submit_batch(_echo(chunk))
                if deaths <= DEATH_RETRIES:
                    slots = future.result(timeout=60.0)
                else:
                    with pytest.raises(
                        WorkerFailure, match=f"all {deaths} attempts"
                    ):
                        future.result(timeout=60.0)
        requeues = min(deaths, DEATH_RETRIES)
        requeued = tracer.events("task.requeued")
        assert [e["tags"]["attempt"] for e in requeued] == list(
            range(1, requeues + 1)
        )
        assert _count(registry, "pool_worker_deaths_total") == deaths
        assert _count(registry, "pool_worker_respawns_total") == deaths
        assert _count(registry, "pool_tasks_requeued_total") == requeues
        summary = straggler_summary(tracer.records)
        assert summary["pool_worker_deaths"] == deaths
        assert summary["requeued"] == requeues
        spans = tracer.spans("worker.task")
        if deaths > DEATH_RETRIES:
            assert spans == []
            return
        assert _firsts(slots) == [float(i) for i in range(chunk)]
        (span,) = spans
        assert span["tags"]["attempt"] == deaths
        # the successful run is in a process none of the deaths took
        assert span["tags"]["pid"] not in {
            e["tags"]["from_pid"] for e in requeued
        }

    def test_a_requeued_chunk_runs_before_later_chunks(self):
        plan = FaultPlan([Fault("worker_death", at=0)])
        tracer = Tracer()
        with use_injector(plan.injector()), use_tracer(tracer):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                futures = [
                    pool.submit_batch(_echo(1, start=k)) for k in range(3)
                ]
                for k, future in enumerate(futures):
                    assert _firsts(future.result(timeout=60.0)) == [float(k)]
        spans = sorted(tracer.spans("worker.task"), key=lambda s: s["mono"])
        assert [s["tags"]["task"] for s in spans] == [
            "pool-task-0",
            "pool-task-1",
            "pool-task-2",
        ]

    def test_one_death_leaves_the_other_chunks_alone(self):
        plan = FaultPlan([Fault("worker_death", at=1)])
        tracer = Tracer()
        with use_injector(plan.injector()), use_tracer(tracer):
            with ProcessPoolBackend(
                workers=2, metrics=MetricsRegistry()
            ) as pool:
                futures = [
                    pool.submit_batch(_echo(2, start=2 * k)) for k in range(4)
                ]
                for k, future in enumerate(futures):
                    assert _firsts(future.result(timeout=60.0)) == [
                        float(2 * k),
                        float(2 * k + 1),
                    ]
        (requeued,) = tracer.events("task.requeued")
        assert requeued["tags"]["from_worker"] == "pool-1"
        assert requeued["tags"]["task"] == "pool-task-1"
        reruns = [
            s["tags"]["task"]
            for s in tracer.spans("worker.task")
            if s["tags"].get("attempt")
        ]
        assert reruns == ["pool-task-1"]

    def test_a_rerun_reships_every_segment_of_a_mixed_chunk(self):
        """A chunk over two problems needs both shared segments; the
        respawned worker holds none until they are sent again."""
        plan = FaultPlan([Fault("worker_death", at=0)])
        individuals = _echo(2) + _echo(2, problem=Echo(offset=100.0))
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                slots = pool.submit_batch(individuals).result(timeout=60.0)
        assert _firsts(slots) == [0.0, 1.0, 100.0, 101.0]

    @pytest.mark.parametrize("deaths, survives", [(1, True), (2, False)])
    def test_a_revocation_spends_one_run_of_the_budget(
        self, deaths, survives
    ):
        plan = FaultPlan(
            [
                Fault("revoke_worker", at=0),
                Fault("worker_death", at=1, count=deaths),
            ]
        )
        tracer = Tracer()
        with use_injector(plan.injector()), use_tracer(tracer):
            with ProcessPoolBackend(
                workers=2, metrics=MetricsRegistry()
            ) as pool:
                future = pool.submit_batch(_echo(1, start=7))
                if survives:
                    assert _firsts(future.result(timeout=60.0)) == [7.0]
                else:
                    with pytest.raises(WorkerFailure, match="all 3 attempts"):
                        future.result(timeout=60.0)
                # the revoked worker is retired, the dead one replaced
                assert pool.n_workers == 1
        assert [e["tags"]["attempt"] for e in tracer.events("task.requeued")] == [
            1,
            2,
        ]
        assert len(tracer.events("pool.worker_revoked")) == 1
        assert len(tracer.events("pool.worker_death")) == deaths

    def test_a_cancelled_task_is_not_rerun_after_its_worker_dies(self):
        plan = FaultPlan(
            [
                Fault("slow_worker", at=0, seconds=0.3),
                Fault("worker_death", at=0),
            ]
        )
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_injector(plan.injector()), use_tracer(tracer):
            with ProcessPoolBackend(workers=1, metrics=registry) as pool:
                doomed = pool.submit_batch(_echo(1))
                doomed.cancel()
                nxt = pool.submit_batch(_echo(1, start=9))
                assert _firsts(nxt.result(timeout=60.0)) == [9.0]
        assert len(tracer.events("pool.worker_death")) == 1
        assert len(tracer.events("pool.worker_respawn")) == 1
        assert tracer.events("task.requeued") == []
        assert _count(registry, "pool_tasks_requeued_total") == 0

    def test_a_workers_task_ordinal_survives_its_respawns(self):
        """Worker-scoped faults match the worker's own task index, which
        keeps counting across respawns: faults at ordinals 1 and 2 kill
        the second chunk's first run and its rerun, and the third run
        (ordinal 3) lands."""
        plan = FaultPlan([Fault("worker_death", worker="pool-0", at=1, count=2)])
        injector = plan.injector()
        with use_injector(injector):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                first = pool.submit_batch(_echo(1)).result(timeout=60.0)
                second = pool.submit_batch(_echo(1, start=1)).result(
                    timeout=60.0
                )
        assert _firsts(first + second) == [0.0, 1.0]
        assert [f.detail["task_index"] for f in injector.fired()] == [1, 2]

    def test_the_death_policy_does_not_depend_on_tracing(self):
        plan = FaultPlan([Fault("worker_death", at=0)])
        registry = MetricsRegistry()
        with use_injector(plan.injector()):
            with ProcessPoolBackend(workers=1, metrics=registry) as pool:
                assert not pool.tracer.enabled
                slots = pool.submit_batch(_echo(3)).result(timeout=60.0)
        assert _firsts(slots) == [0.0, 1.0, 2.0]
        assert _count(registry, "pool_worker_deaths_total") == 1
        assert _count(registry, "pool_tasks_requeued_total") == 1
        assert _count(registry, "pool_worker_respawns_total") == 1

    def test_a_deadline_kill_spares_the_other_workers_chunk(self):
        registry = MetricsRegistry()
        with ProcessPoolBackend(workers=2, metrics=registry) as pool:
            # both workers up and holding the problem first
            for future in [pool.submit_batch(_echo(1)) for _ in range(2)]:
                future.result(timeout=60.0)
            pool.deadline = 1.0
            stuck = pool.submit_batch(_sleepy(30.0))
            quick = pool.submit_batch(_echo(1, start=6))
            assert _firsts(quick.result(timeout=30.0)) == [6.0]
            with pytest.raises(TrainingTimeoutError):
                stuck.result(timeout=30.0)
        assert _count(registry, "pool_deadline_kills_total") == 1
        assert _count(registry, "pool_worker_respawns_total") == 1
        assert _count(registry, "pool_tasks_requeued_total") == 0


class TestTimeline:
    def test_each_chunk_runs_between_its_submit_and_done(self):
        tracer = Tracer()
        with use_tracer(tracer), ProcessPoolBackend(
            workers=2, metrics=MetricsRegistry()
        ) as pool:
            for future in [pool.submit_batch(_echo(2)) for _ in range(6)]:
                future.result(timeout=60.0)
        submit = {e["tags"]["task"]: e["mono"] for e in tracer.events("task.submit")}
        done = {e["tags"]["task"]: e["mono"] for e in tracer.events("task.done")}
        spans = tracer.spans("worker.task")
        assert len(spans) == len(submit) == len(done) == 6
        for span in spans:
            task = span["tags"]["task"]
            assert submit[task] <= span["mono"]
            assert span["mono"] + span["dur"] <= done[task]

    def test_a_chunk_that_raises_in_its_worker_is_an_error_not_a_death(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), ProcessPoolBackend(
            workers=1, metrics=registry
        ) as pool:
            hostile = [WorkerHostile(np.zeros(2), problem=ECHO)]
            with pytest.raises(RuntimeError, match="rebuilt in a worker"):
                pool.submit_batch(hostile).result(timeout=60.0)
            pool.submit_batch(_echo(1)).result(timeout=60.0)
        (err,) = tracer.events("task.err")
        assert err["tags"]["task"] == "pool-task-0"
        failed, healthy = sorted(
            tracer.spans("worker.task"), key=lambda s: s["mono"]
        )
        assert failed["status"] == "err"
        assert failed["tags"]["error"] == "RuntimeError"
        # the worker lived on and ran the next chunk itself
        assert healthy["tags"]["pid"] == failed["tags"]["pid"]
        assert tracer.events("task.requeued") == []
        assert _count(registry, "pool_worker_deaths_total") == 0

    def test_a_respawned_worker_reports_under_its_name(self):
        plan = FaultPlan([Fault("worker_death", at=1)])
        tracer = Tracer()
        with use_injector(plan.injector()), use_tracer(tracer):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                for future in [pool.submit_batch(_echo(1)) for _ in range(3)]:
                    future.result(timeout=60.0)
        (row,) = worker_utilization(tracer.records)
        assert (row["worker"], row["tasks"], row["errors"]) == ("pool-0", 3, 0)
        assert len({s["tags"]["pid"] for s in tracer.spans("worker.task")}) == 2


class TestInjectorSharing:
    def test_a_shared_window_fires_exactly_count_times_across_threads(self):
        """Pool workers, the engine and the store consult one injector;
        the ordinal draw, window test and log append are one critical
        section."""
        injector = FaultPlan([Fault("worker_death", at=0, count=50)]).injector()
        barrier = threading.Barrier(8)
        hits = []

        def hammer(name):
            barrier.wait()
            hits.append(sum(injector.should_fail(name, i) for i in range(100)))

        threads = [
            threading.Thread(target=hammer, args=(f"pool-{i}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(hits) == 50
        assert injector.counters() == {"worker.death": 800}
        assert sorted(f.index for f in injector.fired()) == list(range(50))

    def test_the_base_injector_reports_no_fault_anywhere(self, tmp_path):
        injector = FaultInjector()
        assert not injector.should_fail("pool-0", 0)
        assert not injector.should_revoke("pool-0", 0)
        assert injector.worker_delay("pool-0", 0) == 0.0
        assert injector.submit_delay("pool-task-0") == 0.0
        assert injector.evaluation_fault() is None
        assert not injector.corrupt_cache_entry(tmp_path / "entry.json")
        assert injector.journal_truncation() is None
