"""The fleet policy: preemption survival, speculation, autoscale.

The fleet is a policy of :class:`ProcessPoolBackend`, applied inside
its ``_drain`` (DESIGN.md §9).  Four layers, cheapest first:

* pool-level revocation (the ``revoke_worker`` chaos kind): the worker
  is removed without respawn, its in-flight task requeued to a
  survivor and re-executed under the same task id — the
  ``requeued_elsewhere`` trace invariant holds;
* the policy on a real pool: a straggler's copy on an idle worker,
  first reply wins and the second is discarded, autoscale hysteresis
  between the pool's initial size and ``max_workers``, and the
  in-process last resort once revocation takes the last worker;
* ``ElasticBackend``, the thin name that applies the policy to a pool
  its caller holds;
* full campaigns: a ``--backend fleet`` run under a seeded preemption
  storm, or with a speculated straggler, is bit-identical to inline
  (sorted (genome, fitness) pairs, the Pareto front, the journal),
  including across a kill → resume mid-storm.

The problems used with real pools come from ``repro`` itself or from
:mod:`tests.pool_problems`, which a pool worker imports cheaply.
"""

import argparse
import contextlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import (
    Fault,
    FaultPlan,
    InvariantChecker,
    verify_resume_equivalence,
)
from repro.engine import (
    ElasticBackend,
    EvaluationEngine,
    InlineBackend,
    ProcessPoolBackend,
)
from repro.engine import policy as policy_module
from repro.engine.policy import MIN_HISTORY, SUSTAIN_TICKS, Tag
from repro.evo.individual import MAXINT, Individual
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.injection import use_injector
from repro.obs import Tracer, use_tracer
from repro.obs.metrics import MetricsRegistry
from tests.pool_problems import Echo, HostileTo, Sleepy

SRC = str(Path(__file__).resolve().parent.parent / "src")

CFG = CampaignConfig(n_runs=1, pop_size=6, generations=2, base_seed=11)

_SLEEPY = Sleepy(0.05)


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


def _echo(n, start=0):
    return [
        Individual(np.array([float(start + i), 0.0]), problem=Echo())
        for i in range(n)
    ]


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


def _front(result):
    return sorted(
        (tuple(ind.genome), tuple(ind.fitness))
        for ind in result.aggregate_pareto_front()
    )


def _drain(engine):
    """Collect every submitted candidate as it resolves."""
    done = []
    while True:
        got = engine.wait_any(timeout=60)
        if not got:
            break
        done.extend(got)
    return done


def _count(registry, name):
    return registry.counter(name).value


# ----------------------------------------------------------------------
# pool-level revocation (the chaos kind)
# ----------------------------------------------------------------------
class TestPoolRevocation:
    def test_revoked_task_requeued_on_survivor(self):
        """Revoking a worker mid-task shrinks the pool (no respawn) and
        re-executes its task on a survivor — every result viable, and
        the requeued-elsewhere trace invariant holds."""
        plan = FaultPlan(
            [Fault(kind="revoke_worker", at=0, worker="pool-0")]
        )
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_injector(plan.injector()) as injector, use_tracer(tracer):
            with ProcessPoolBackend(workers=2, metrics=registry) as pool:
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(5))
                survivors = pool.n_workers
        assert all(ind.is_viable for ind in done)
        assert survivors == 1
        assert registry.counter("pool_workers_revoked_total").value == 1
        assert registry.counter("pool_tasks_requeued_total").value == 1
        (revoked,) = tracer.events("pool.worker_revoked")
        assert revoked["tags"]["worker"] == "pool-0"
        (requeued,) = tracer.events("task.requeued")
        assert requeued["tags"]["from_worker"] == "pool-0"
        assert requeued["tags"]["attempt"] == 1
        report = InvariantChecker(
            trace=tracer.records, injected=injector.log
        ).check()
        assert report.ok, report.summary()
        assert report.checked.get("requeued_elsewhere", 0) >= 1

    def test_last_worker_revoked_fails_with_worker_revoked(self):
        """Without the fleet policy there is no last resort: the task
        fails with WorkerRevoked, which the engine maps to MAXINT."""
        plan = FaultPlan([Fault(kind="revoke_worker", at=1)])
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(3))
                survivors = pool.n_workers
        assert survivors == 0
        failed = [ind for ind in done if not ind.is_viable]
        assert failed and all(
            np.all(ind.fitness == MAXINT) for ind in failed
        )

    def test_scale_up_and_down(self):
        """scale_to grows with fresh worker names (indices are never
        reused — the requeued-elsewhere invariant keys on names) and
        retires idle workers on shrink."""
        tracer = Tracer()
        with use_tracer(tracer):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                assert pool.scale_to(3) == 3
                names = [h.name for h in pool._workers.values()]
                assert names == ["pool-0", "pool-1", "pool-2"]
                assert pool.scale_to(1) == 1
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(3))
                # grow again: new workers get fresh indices
                pool.scale_to(2)
                regrown = [h.name for h in pool._workers.values()]
        assert all(ind.is_viable for ind in done)
        assert len(regrown) == 2 and "pool-3" in regrown
        assert tracer.events("pool.scale_up")
        assert tracer.events("pool.scale_down")

    def test_revoke_worker_api_without_chaos(self):
        """Operational revocation (no injector): the explicit API
        drains exactly like the chaos kind."""
        with ProcessPoolBackend(
            workers=2, metrics=MetricsRegistry()
        ) as pool:
            engine = EvaluationEngine(
                client=pool, metrics=MetricsRegistry()
            )
            for ind in _surrogate_individuals(4):
                engine.submit(ind)
            name = pool.revoke_worker()
            done = _drain(engine)
        assert name in ("pool-0", "pool-1")
        assert len(done) == 4
        assert all(ind.is_viable for ind in done)


# ----------------------------------------------------------------------
# the policy's switches
# ----------------------------------------------------------------------
class TestPolicy:
    def test_a_plain_pool_has_no_policy(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            assert pool._policy.fleet is None
            assert pool.fleet_snapshot() == {}

    def test_the_snapshot_carries_what_the_monitor_reads(self):
        with ProcessPoolBackend(
            workers=1,
            max_workers=3,
            speculate=True,
            metrics=MetricsRegistry(),
        ) as pool:
            snap = pool.fleet_snapshot()
        assert snap["workers"] == 1
        assert (snap["min_workers"], snap["max_workers"]) == (1, 3)
        assert snap["speculate"] is True
        for key in (
            "in_flight",
            "queue_depth",
            "requeued",
            "speculations",
            "speculative_wins",
            "duplicates_discarded",
            "scale_ups",
            "scale_downs",
        ):
            assert snap[key] == 0, key
        json.dumps(snap, allow_nan=False)

    def test_the_cli_builds_the_fleet_from_its_bounds(self, tmp_path):
        """``--backend fleet`` autoscales within its own bounds; ``serve``
        has no slot budget to cut them to."""
        args = argparse.Namespace(
            backend="fleet",
            pool_workers=1,
            pool_deadline=None,
            max_workers=8,
            speculate=False,
        )
        from repro.hpo.cli import _execution_backend, main

        with contextlib.ExitStack() as stack:
            pool = _execution_backend(stack, args)
            snap = pool.fleet_snapshot()
        assert pool.closed
        assert (snap["min_workers"], snap["max_workers"]) == (1, 8)
        with pytest.raises(SystemExit):
            main(["serve", str(tmp_path), "--slots", "2"])


# ----------------------------------------------------------------------
# speculation
# ----------------------------------------------------------------------
def _warm(pool):
    """Boot pool-0 with one chunk, whose reply stays out of the
    straggler mean, then give the pool the replies it learns the mean
    from.  pool-0 runs them all (the lowest idle index takes the
    queue), so its next dispatch is ordinal ``WARMED``."""
    pool.submit(_echo(1, start=99)[0]).result(timeout=30)
    for ind in _echo(MIN_HISTORY, start=100):
        pool.submit(ind).result(timeout=30)


WARMED = 1 + MIN_HISTORY


class TestSpeculation:
    def test_a_straggler_is_copied_to_an_idle_worker(self):
        """pool-0's next chunk sleeps: its copy runs on idle pool-1,
        wins, and the straggler's late reply is a discarded
        duplicate."""
        registry = MetricsRegistry()
        tracer = Tracer()
        plan = FaultPlan(
            [
                Fault(
                    "slow_worker", at=WARMED, worker="pool-0", seconds=0.4
                )
            ]
        )
        with use_injector(plan.injector()), use_tracer(tracer):
            with ProcessPoolBackend(
                workers=2, speculate=True, metrics=registry
            ) as pool:
                _warm(pool)
                (ind,) = _echo(1, start=7)
                t0 = time.monotonic()
                slot = pool.submit(ind).result(timeout=30)
                won_in = time.monotonic() - t0
                while not _count(registry, "fleet_duplicate_results_total"):
                    assert time.monotonic() - t0 < 30
                    pool._drain()
                    time.sleep(0.01)
                snap = pool.fleet_snapshot()
        assert slot[0].tolist() == [7.0, 2.0]
        assert won_in < 0.4
        assert (snap["speculations"], snap["speculative_wins"]) == (1, 1)
        assert snap["duplicates_discarded"] == 1
        assert snap["requeued"] == 0
        (spec,) = tracer.events("fleet.speculate")
        assert spec["tags"]["worker"] == "pool-1"
        # the copy's span comes from pool-1's process
        (span,) = [
            s
            for s in tracer.spans("worker.task")
            if s["tags"]["task"] == spec["tags"]["task"]
            and s["tags"]["worker"] == "pool-1"
        ]
        assert span["tags"]["pid"] != os.getpid()

    def test_duplicate_result_discarded(self):
        """The primary wins: the copy on pool-1 straggles longer, and
        its late reply is a discarded duplicate, not a win."""
        registry = MetricsRegistry()
        plan = FaultPlan(
            [
                Fault(
                    "slow_worker", at=WARMED, worker="pool-0", seconds=0.3
                ),
                Fault("slow_worker", at=0, worker="pool-1", seconds=0.7),
            ]
        )
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=2, speculate=True, metrics=registry
            ) as pool:
                _warm(pool)
                (ind,) = _echo(1, start=4)
                t0 = time.monotonic()
                slot = pool.submit(ind).result(timeout=30)
                while not _count(registry, "fleet_duplicate_results_total"):
                    assert time.monotonic() - t0 < 30
                    pool._drain()
                    time.sleep(0.01)
                snap = pool.fleet_snapshot()
        assert slot[0].tolist() == [4.0, 2.0]
        assert (snap["speculations"], snap["speculative_wins"]) == (1, 0)
        assert snap["duplicates_discarded"] == 1
        assert snap["in_flight"] == 0

    def test_engine_fresh_count_unchanged_by_speculation(self):
        """A speculative duplicate must not inflate EngineStats: the
        engine sees one future per chunk, so fresh == population size
        whether or not a copy won."""
        registry = MetricsRegistry()
        plan = FaultPlan(
            [
                Fault(
                    "slow_worker", at=WARMED, worker="pool-0", seconds=0.6
                )
            ]
        )
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=2, speculate=True, metrics=registry
            ) as pool:
                _warm(pool)
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(5))
        inline = EvaluationEngine(metrics=MetricsRegistry()).evaluate(
            _surrogate_individuals(5)
        )
        assert _count(registry, "fleet_speculations_total") >= 1
        assert engine.stats.fresh == 5
        assert engine.stats.completed == 5
        assert [ind.fitness.tolist() for ind in done] == [
            ind.fitness.tolist() for ind in inline
        ]

    def test_failed_speculation_never_outranks_primary(self):
        """The copy on pool-1 fails the whole chunk while the straggling
        original still runs: its reply is dropped, the chunk is not
        copied again, and the original's result resolves it."""
        registry = MetricsRegistry()
        plan = FaultPlan(
            [
                Fault(
                    "slow_worker", at=WARMED, worker="pool-0", seconds=0.4
                )
            ]
        )
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=2, speculate=True, metrics=registry
            ) as pool:
                _warm(pool)
                ind = Individual(
                    np.array([6.0, 0.0]), problem=HostileTo("pool-1")
                )
                slot = pool.submit(ind).result(timeout=30)
                snap = pool.fleet_snapshot()
                copies = dict(pool._policy.fleet.copies)
        assert slot[0].tolist() == [6.0, 2.0]
        assert (snap["speculations"], snap["speculative_wins"]) == (1, 0)
        assert snap["requeued"] == 0
        assert copies == {}

    def test_a_workers_first_reply_stays_out_of_the_mean(self):
        """A fresh process's first reply pays its boot and segment
        unpickling: it feeds no straggler mean, and neither does a
        respawned successor's."""
        plan = FaultPlan([Fault("worker_death", at=WARMED, worker="pool-0")])
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=1, speculate=True, metrics=MetricsRegistry()
            ) as pool:
                _warm(pool)
                warmed = len(pool._policy.fleet.window)
                # pool-0 dies on it; its successor's reply is a first
                pool.submit(_echo(1)[0]).result(timeout=30)
                respawned = len(pool._policy.fleet.window)
                pool.submit(_echo(1)[0]).result(timeout=30)
                settled = len(pool._policy.fleet.window)
        assert (warmed, respawned, settled) == (
            MIN_HISTORY,
            MIN_HISTORY,
            MIN_HISTORY + 1,
        )

    def test_no_copy_before_the_pool_has_history(self):
        plan = FaultPlan([Fault("slow_worker", at=0, seconds=0.15)])
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=2, speculate=True, metrics=MetricsRegistry()
            ) as pool:
                pool.submit(_echo(1)[0]).result(timeout=30)
                snap = pool.fleet_snapshot()
        assert snap["speculations"] == 0

    def test_a_lost_copy_is_neither_a_requeue_nor_a_lost_attempt(self):
        """The copy's worker dies; the straggling original still runs,
        so nothing is requeued and the chunk resolves from it (or from
        a later copy)."""
        registry = MetricsRegistry()
        plan = FaultPlan(
            [
                Fault(
                    "slow_worker", at=WARMED, worker="pool-0", seconds=0.4
                ),
                Fault("worker_death", at=0, worker="pool-1"),
            ]
        )
        with use_injector(plan.injector()):
            with ProcessPoolBackend(
                workers=2, speculate=True, metrics=registry
            ) as pool:
                _warm(pool)
                (ind,) = _echo(1, start=5)
                slot = pool.submit(ind).result(timeout=30)
        assert slot[0].tolist() == [5.0, 2.0]
        assert _count(registry, "fleet_speculations_total") >= 1
        assert _count(registry, "pool_worker_deaths_total") >= 1
        assert _count(registry, "pool_tasks_requeued_total") == 0

    def test_close_kills_a_running_loser_at_once(self):
        """A speculation loser still running at close is killed, not
        waited for."""
        plan = FaultPlan(
            [
                Fault(
                    "slow_worker", at=WARMED, worker="pool-0", seconds=30
                )
            ]
        )
        with use_injector(plan.injector()):
            pool = ProcessPoolBackend(
                workers=2, speculate=True, metrics=MetricsRegistry()
            )
            _warm(pool)
            pool.submit(_echo(1)[0]).result(timeout=30)
            t0 = time.monotonic()
            pool.close()
        assert time.monotonic() - t0 < 1.0


# ----------------------------------------------------------------------
# autoscale
# ----------------------------------------------------------------------
def _tick(pool, times):
    for _ in range(times):
        pool._apply(pool._policy.autoscale(time.monotonic()))


class TestAutoscale:
    def test_sustained_pressure_scales_up_to_the_ceiling(self):
        registry = MetricsRegistry()
        with ProcessPoolBackend(
            workers=1, max_workers=3, metrics=registry
        ) as pool:
            engine = EvaluationEngine(client=pool, metrics=MetricsRegistry())
            for ind in _surrogate_individuals(8):
                engine.submit(ind)
            # a single pressure observation must not rescale
            _tick(pool, SUSTAIN_TICKS - 1)
            assert pool.n_workers == 1
            _tick(pool, 1)
            grown = pool.n_workers
            done = _drain(engine)
        assert grown == 3
        assert all(ind.is_viable for ind in done)
        assert _count(registry, "fleet_scale_up_total") == 1

    def test_sustained_idle_scales_down_to_the_floor(self):
        registry = MetricsRegistry()
        with ProcessPoolBackend(
            workers=1, max_workers=3, metrics=registry
        ) as pool:
            pool.scale_to(3)
            _tick(pool, 4 * SUSTAIN_TICKS)
            shrunk = pool.n_workers
        assert shrunk == 1  # the pool's initial size is the floor
        assert _count(registry, "fleet_scale_down_total") == 2

    def test_the_ceiling_bounds_growth(self):
        with ProcessPoolBackend(
            workers=1, max_workers=2, metrics=MetricsRegistry()
        ) as pool:
            engine = EvaluationEngine(client=pool, metrics=MetricsRegistry())
            for ind in _surrogate_individuals(8):
                engine.submit(ind)
            _tick(pool, 2 * SUSTAIN_TICKS)
            capped = pool.n_workers
            done = _drain(engine)
        assert capped == 2
        assert all(ind.is_viable for ind in done)

    def test_the_drain_ticks_on_its_own(self, monkeypatch):
        """Polling alone autoscales: a backlog the pool cannot clear
        within a few ticks grows it."""
        monkeypatch.setattr(policy_module, "AUTOSCALE_INTERVAL", 0.02)
        with ProcessPoolBackend(
            workers=1, max_workers=2, metrics=MetricsRegistry()
        ) as pool:
            futures = [
                pool.submit_batch([Individual(np.zeros(2), problem=_SLEEPY)])
                for _ in range(4)
            ]
            for future in futures:
                future.result(timeout=60)
            grown = pool.n_workers
        assert grown == 2


    def test_n_workers_tracks_live_capacity(self):
        """Revocation and rescale move the live size the snapshot
        reports."""
        with ProcessPoolBackend(
            workers=2, max_workers=3, metrics=MetricsRegistry()
        ) as pool:
            sizes = [(pool.n_workers, pool.fleet_snapshot()["workers"])]
            pool.revoke_worker("pool-0")
            sizes.append((pool.n_workers, pool.fleet_snapshot()["workers"]))
            pool.scale_to(3)
            sizes.append((pool.n_workers, pool.fleet_snapshot()["workers"]))
        assert sizes == [(2, 2), (1, 1), (3, 3)]

    def test_a_service_backlog_grows_the_pool(self, monkeypatch):
        """The service hands every evaluation to the pool at once, so
        the backlog the policy grows on — up to the tenant's quota —
        forms in the pool's queue."""
        monkeypatch.setattr(policy_module, "AUTOSCALE_INTERVAL", 0.02)
        with ProcessPoolBackend(
            workers=1, max_workers=3, metrics=MetricsRegistry()
        ) as pool:
            tag = Tag("default", "c0", 1.0, 0, 8)
            futures = [
                pool.submit_batch(
                    [Individual(np.zeros(2), problem=_SLEEPY)], tag=tag
                )
                for _ in range(8)
            ]
            t0 = time.monotonic()
            while not all(f.done() for f in futures):
                assert time.monotonic() - t0 < 60
                time.sleep(0.002)
            snap = pool.fleet_snapshot()
            books = pool.share_snapshot()["default"]
        assert snap["scale_ups"] >= 1
        assert books["dispatched"] == 8 and books["peak_in_flight"] <= 3
        assert all(f.result()[0][0].tolist() == [1.0, 2.0] for f in futures)


# ----------------------------------------------------------------------
# the last resort
# ----------------------------------------------------------------------
class TestLastResort:
    def test_total_pool_loss_runs_the_backlog_in_process(self):
        """Revoking every worker hands queued and in-flight chunks to
        the driver process: every candidate is scored, none MAXINT,
        and the takeover is one trace event."""
        plan = FaultPlan(
            [
                Fault(kind="revoke_worker", at=0, worker="pool-0"),
                Fault(kind="revoke_worker", at=0, worker="pool-1"),
            ]
        )
        tracer = Tracer()
        with use_injector(plan.injector()) as injector, use_tracer(tracer):
            with ProcessPoolBackend(
                workers=2, max_workers=2, metrics=MetricsRegistry()
            ) as pool:
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(6))
                survivors = pool.n_workers
                snap = pool.fleet_snapshot()
        inline = EvaluationEngine(metrics=MetricsRegistry()).evaluate(
            _surrogate_individuals(6)
        )
        assert survivors == 0
        assert [ind.fitness.tolist() for ind in done] == [
            ind.fitness.tolist() for ind in inline
        ]
        assert snap["requeued"] >= 1
        (event,) = tracer.events("fleet.last_resort")
        assert event["tags"]["worker"] in ("pool-0", "pool-1")
        report = InvariantChecker(
            trace=tracer.records, injected=injector.log
        ).check()
        assert report.ok, report.summary()

    def test_a_submission_after_the_loss_runs_in_process(self):
        with ProcessPoolBackend(
            workers=1, max_workers=1, metrics=MetricsRegistry()
        ) as pool:
            pool.revoke_worker()
            slot = pool.submit(_echo(1, start=3)[0]).result(timeout=30)
        assert slot[0].tolist() == [3.0, 2.0]


# ----------------------------------------------------------------------
# ElasticBackend: the thin name
# ----------------------------------------------------------------------
class TestElasticBackend:
    def test_it_takes_a_pool_and_at_most_an_inline_member(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            for members in ([], [InlineBackend()], [pool, pool],
                            [pool, InlineBackend(), InlineBackend()]):
                with pytest.raises(ValueError):
                    ElasticBackend(members)

    def test_it_applies_the_policy_for_its_block_only(self):
        with ProcessPoolBackend(workers=1, metrics=MetricsRegistry()) as pool:
            with ElasticBackend(
                [pool, InlineBackend()], min_workers=1, max_workers=2
            ) as fleet:
                snap = fleet.fleet_snapshot()
                assert pool._policy.fleet is not None
                engine = EvaluationEngine(
                    client=fleet, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(3))
            assert pool._policy.fleet is None  # the old (absent) policy is back
            assert not pool.closed  # the caller's pool stays open
        assert (snap["min_workers"], snap["max_workers"]) == (1, 2)
        assert all(ind.is_viable for ind in done)


# ----------------------------------------------------------------------
# campaign equivalence under preemption storms and speculation
# ----------------------------------------------------------------------
class TestFleetCampaignEquivalence:
    def test_fleet_front_matches_inline_under_revocation_storm(self):
        """A fleet campaign under a seeded preemption storm produces
        exactly the evaluations and front of the inline campaign —
        revocations move work, never change it — with zero invariant
        violations and the storm visible in the trace."""
        inline = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), CFG
        ).run()
        plan = FaultPlan.random(
            42,
            kinds=("revoke_worker",),
            n_faults=2,
            horizon=8,
        )
        assert plan.kinds() == {"revoke_worker"}
        tracer = Tracer()
        with use_injector(plan.injector()) as injector, use_tracer(tracer):
            with ProcessPoolBackend(
                workers=2, max_workers=2, metrics=MetricsRegistry()
            ) as pool:
                stormed = Campaign(
                    lambda seed: SurrogateDeepMDProblem(seed=seed),
                    CFG,
                    client=pool,
                ).run()
        assert injector.fired("revoke_worker"), "storm must have fired"
        assert tracer.events("pool.worker_revoked")
        assert _evals(stormed) == _evals(inline)
        assert _front(stormed) == _front(inline)
        report = InvariantChecker(
            trace=tracer.records, injected=injector.log
        ).check()
        assert report.ok, report.summary()

    def test_fleet_survives_total_pool_loss(self):
        """Revoking every pool worker hands the campaign to the last
        resort: it completes with exactly the inline evaluations and
        front, and zero invariant violations."""
        inline = Campaign(
            lambda seed: SurrogateDeepMDProblem(seed=seed), CFG
        ).run()
        plan = FaultPlan(
            [
                Fault(kind="revoke_worker", at=0, worker="pool-0"),
                Fault(kind="revoke_worker", at=0, worker="pool-1"),
            ]
        )
        tracer = Tracer()
        with use_injector(plan.injector()) as injector, use_tracer(tracer):
            with ProcessPoolBackend(
                workers=2, max_workers=2, metrics=MetricsRegistry()
            ) as pool:
                survived = Campaign(
                    lambda seed: SurrogateDeepMDProblem(seed=seed),
                    CFG,
                    client=pool,
                ).run()
                survivors = pool.n_workers
        assert survivors == 0
        assert tracer.events("fleet.last_resort")
        assert _evals(survived) == _evals(inline)
        assert _front(survived) == _front(inline)
        report = InvariantChecker(
            trace=tracer.records, injected=injector.log
        ).check()
        assert report.ok, report.summary()


#: journal keys whose values differ between any two runs
VOLATILE = re.compile(
    r'"(ts|uuid|uuids|dedup_of)": (\[[^\]]*\]|"[^"]*"|[^,}]+)'
)


def test_a_speculated_straggler_runs_on_a_pool_worker(
    tmp_path, monkeypatch, capsys
):
    """``--backend fleet --speculate`` with one injected straggler: its
    copy runs in a pool worker's process, never the driver's, and the
    journal and front are the inline run's."""
    from repro.hpo import cli
    from repro.io import load_campaign
    from repro.obs.trace import read_trace

    common = [
        "campaign", "--runs", "1", "--pop-size", "8",
        "--generations", "2", "--seed", "7",
    ]
    assert cli.main([*common, "--save", str(tmp_path / "inline")]) == 0
    plan = FaultPlan(
        [Fault("slow_worker", at=4, worker="pool-0", seconds=1.0)]
    )
    monkeypatch.setattr(
        cli, "_chaos_injector", lambda args, directory=None: plan.injector()
    )
    trace = tmp_path / "fleet.jsonl"
    assert cli.main([
        *common, "--save", str(tmp_path / "fleet"), "--trace", str(trace),
        "--backend", "fleet", "--pool-workers", "2", "--speculate",
    ]) == 0
    capsys.readouterr()
    records = read_trace(trace)
    events = [r for r in records if r.get("type") == "event"]
    (slow,) = [e for e in events if e["name"] == "worker.slow"]
    task = slow["tags"]["task"]
    (spec,) = [
        e for e in events
        if e["name"] == "fleet.speculate" and e["tags"]["task"] == task
    ]
    worker = spec["tags"]["worker"]
    (span,) = [
        r for r in records
        if r.get("type") == "span" and r["name"] == "worker.task"
        and r["tags"]["task"] == task and r["tags"]["worker"] == worker
    ]
    assert worker.startswith("pool-")
    assert span["tags"]["pid"] != os.getpid()
    journals = [
        VOLATILE.sub("", (tmp_path / d / "journal.jsonl").read_text())
        for d in ("inline", "fleet")
    ]
    assert journals[0] == journals[1]
    inline, fleet = (load_campaign(tmp_path / d) for d in ("inline", "fleet"))
    assert verify_resume_equivalence(inline, fleet) == []


# ----------------------------------------------------------------------
# kill → resume mid-storm, end to end through the CLI
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestFleetKillResume:
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

    def test_fleet_kill_resume_matches_inline(self, tmp_path):
        common = [
            "campaign",
            "--runs", "1",
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
                "--backend", "fleet",
                "--pool-workers", "2",
                "--chaos-revoke", "1,3",
                "--kill-after-evals", "12",
            ],
            cwd=tmp_path,
        )
        assert killed.returncode == 137, killed.stderr
        assert (tmp_path / "killed" / "chaos_plan_revoke.json").exists()
        resumed = self._run_cli(
            [
                "resume", "killed",
                "--backend", "fleet",
                "--pool-workers", "2",
                "--chaos-revoke", "1",
            ],
            cwd=tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr

        from repro.io import load_campaign

        a = load_campaign(tmp_path / "base")
        b = load_campaign(tmp_path / "killed")

        def points(c):
            from repro.mo.pareto import pareto_front

            return sorted(
                (
                    tuple(float(g) for g in ind.genome),
                    tuple(float(f) for f in ind.fitness),
                )
                for ind in pareto_front(c.last_generation_individuals())
            )

        assert points(a) == points(b)
