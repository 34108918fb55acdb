"""Elastic fleet tests: preemption survival, speculation, autoscale.

Three layers, cheapest first:

* pool-level revocation (the ``revoke_worker`` chaos kind): the worker
  is removed without respawn, its in-flight task requeued to a
  survivor and re-executed under the same task id — the
  ``requeued_elsewhere`` trace invariant holds;
* fleet-level behaviour on fast in-process fake members: routing,
  member-to-member requeue, speculation from ``straggler_summary``
  telemetry, duplicate discard, autoscale hysteresis;
* full campaigns: a ``--backend fleet`` run under a seeded preemption
  storm is bit-identical to inline (the suite's equivalence currency:
  sorted (genome, fitness) pairs plus the Pareto front), including
  across a kill → resume mid-storm.

Spawn-started pool workers re-import referenced classes, so problems
used with real pools come from ``repro`` itself.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import Fault, FaultPlan, InvariantChecker
from repro.engine import (
    ElasticBackend,
    EvaluationEngine,
    InlineBackend,
    ProcessPoolBackend,
)
from repro.engine.fleet import FleetFuture
from repro.evo.individual import MAXINT
from repro.exceptions import WorkerRevoked
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.injection import use_injector
from repro.obs import Tracer, use_tracer
from repro.obs.metrics import MetricsRegistry

SRC = str(Path(__file__).resolve().parent.parent / "src")

CFG = CampaignConfig(n_runs=1, pop_size=6, generations=2, base_seed=11)


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


# ----------------------------------------------------------------------
# fast in-process fakes (no interpreter startup)
# ----------------------------------------------------------------------
class FakeFuture:
    def __init__(self):
        self._resolved = False
        self._result = None
        self._exc = None
        self.cancelled = False

    def resolve(self, result=None, exc=None):
        self._resolved = True
        self._result = result
        self._exc = exc

    def done(self):
        return self._resolved

    def result(self, timeout=None):
        if self._exc is not None:
            raise self._exc
        return self._result

    def cancel(self):
        self.cancelled = True


class FakeMember:
    """A member backend the test resolves by hand."""

    is_execution_backend = True

    def __init__(self, n_workers=2):
        self.n_workers = n_workers
        self.submitted = []

    def submit_batch(self, individuals):
        future = FakeFuture()
        self.submitted.append((list(individuals), future))
        return future

    def on_cache_hit(self, individual):
        pass


def _fake_fleet(n_members=2, **kwargs):
    members = [FakeMember() for _ in range(n_members)]
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("autoscale_interval", None)
    return ElasticBackend(members, **kwargs), members


# ----------------------------------------------------------------------
# pool-level revocation (the new chaos kind)
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
        """With no survivor the pool cannot requeue: the task fails
        with WorkerRevoked, which the engine maps to MAXINT."""
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
                names = [h.name for h in pool._workers]
                assert names == ["pool-0", "pool-1", "pool-2"]
                assert pool.scale_to(1) == 1
                engine = EvaluationEngine(
                    client=pool, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(3))
                # grow again: new workers get fresh indices
                pool.scale_to(2)
                regrown = [h.name for h in pool._workers]
        assert all(ind.is_viable for ind in done)
        assert len(regrown) == 2 and "pool-3" in regrown
        assert tracer.events("pool.scale_up")
        assert tracer.events("pool.scale_down")

    def test_revoke_worker_api_without_chaos(self):
        """Operational revocation (no injector): the explicit API used
        by the fleet walkthrough drains exactly like the chaos kind."""
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
# fleet routing & requeue (fake members)
# ----------------------------------------------------------------------
class TestFleetRouting:
    def test_least_loaded_routing(self):
        fleet, (a, b) = _fake_fleet()
        fleet.submit("x1")
        fleet.submit("x2")
        assert len(a.submitted) == 1 and len(b.submitted) == 1

    def test_inline_member_is_reserve(self):
        fleet = ElasticBackend(
            [FakeMember(), InlineBackend()],
            metrics=MetricsRegistry(),
            autoscale_interval=None,
        )
        assert [m.reserve for m in fleet.members] == [False, True]
        # reserve capacity is rescue-only: not counted
        assert fleet.capacity() == 2

    def test_revoked_task_requeued_to_other_member(self):
        fleet, (a, b) = _fake_fleet()
        future = fleet.submit("x")
        a.submitted[0][1].resolve(exc=WorkerRevoked("w", "revoked"))
        assert not future.done()  # pump requeued instead of failing
        assert len(b.submitted) == 1
        b.submitted[0][1].resolve(result=[((1.0,), {})])
        assert future.result(timeout=1) == ((1.0,), {})
        snap = fleet.fleet_snapshot()
        assert snap["requeued"] == 1

    def test_requeue_exhaustion_surfaces_worker_revoked(self):
        fleet, (a,) = _fake_fleet(n_members=1)
        future = fleet.submit("x")
        a.submitted[0][1].resolve(exc=WorkerRevoked("w", "revoked"))
        with pytest.raises(WorkerRevoked):
            future.result(timeout=1)

    def test_non_revocation_failure_is_not_requeued(self):
        """Ordinary worker crashes keep pool-alone semantics: the
        engine's MAXINT policy, not a silent retry."""
        fleet, (a, b) = _fake_fleet()
        future = fleet.submit("x")
        a.submitted[0][1].resolve(exc=RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            future.result(timeout=1)
        assert len(b.submitted) == 0

    def test_batch_requeue_carries_whole_chunk(self):
        fleet, (a, b) = _fake_fleet()
        future = fleet.submit_batch(["x1", "x2"])
        assert isinstance(future, FleetFuture)
        a.submitted[0][1].resolve(exc=WorkerRevoked("w", "revoked"))
        future.done()
        assert b.submitted and b.submitted[0][0] == ["x1", "x2"]

    def test_closed_fleet_rejects_submissions(self):
        fleet, _ = _fake_fleet()
        fleet.close()
        with pytest.raises(RuntimeError):
            fleet.submit("x")


# ----------------------------------------------------------------------
# speculation
# ----------------------------------------------------------------------
class TestSpeculation:
    def test_threshold_comes_from_straggler_summary(self):
        """With worker.task spans in the trace, the straggler threshold
        is straggler_factor × the telemetry's mean task duration."""
        tracer = Tracer()
        for i in range(4):
            tracer.ingest(
                {
                    "type": "span",
                    "name": "worker.task",
                    "mono": float(i),
                    "dur": 0.1,
                    "tags": {"task": f"t{i}", "worker": "pool-0"},
                }
            )
        fleet, _ = _fake_fleet(
            speculate=True,
            tracer=tracer,
            straggler_factor=3.0,
            min_speculate_s=0.0,
        )
        threshold = fleet.speculation_threshold()
        assert threshold == pytest.approx(0.3, rel=1e-6)

    def test_no_history_no_speculation(self):
        fleet, (a, b) = _fake_fleet(
            speculate=True, min_speculate_s=0.0, straggler_factor=0.0
        )
        fleet.submit("x")
        fleet._pump()
        assert fleet.speculation_threshold() is None
        assert len(a.submitted) + len(b.submitted) == 1

    def _speculating_fleet(self):
        """A fleet whose next unresolved task speculates immediately."""
        fleet, members = _fake_fleet(
            speculate=True,
            min_history=1,
            straggler_factor=0.0,
            min_speculate_s=0.0,
        )
        warm = fleet.submit("warm")
        members[0].submitted[0][1].resolve(result=[((0.0,), {})])
        assert warm.result(timeout=1) == ((0.0,), {})
        return fleet, members

    def test_straggler_speculated_and_spec_win_counted(self):
        fleet, (a, b) = self._speculating_fleet()
        future = fleet.submit("slow")  # ties route to a (member-0)
        fleet._pump()  # past threshold -> speculate on b
        assert len(a.submitted) == 2 and len(b.submitted) == 1
        assert (
            fleet._c_spec.value == 1
        ), "speculation must be counted when dispatched"
        b.submitted[0][1].resolve(result=[((2.0,), {})])
        assert future.result(timeout=1) == ((2.0,), {})
        assert fleet._c_spec_wins.value == 1
        # the loser (the straggling primary) was cancelled
        assert a.submitted[1][1].cancelled
        snap = fleet.fleet_snapshot()
        assert snap["speculative_wins"] == 1

    def test_duplicate_result_discarded(self):
        fleet, (a, b) = self._speculating_fleet()
        future = fleet.submit("slow")
        fleet._pump()
        # primary wins; the speculative copy later completes anyway
        a.submitted[1][1].resolve(result=[((1.0,), {})])
        assert future.result(timeout=1) == ((1.0,), {})
        assert fleet._c_spec_wins.value == 0
        b.submitted[0][1].resolve(result=[((1.0,), {})])
        fleet._pump()
        assert fleet._c_duplicates.value == 1
        assert sum(m.inflight for m in fleet.members) == 0

    def test_failed_speculation_never_outranks_primary(self):
        fleet, (a, b) = self._speculating_fleet()
        future = fleet.submit("slow")
        fleet._pump()
        b.submitted[0][1].resolve(exc=RuntimeError("spec died"))
        fleet._pump()
        assert not future.done()
        a.submitted[1][1].resolve(result=[((1.0,), {})])
        assert future.result(timeout=1) == ((1.0,), {})

    def test_engine_fresh_count_unchanged_by_speculation(self):
        """A speculative duplicate must not inflate EngineStats: the
        engine sees one future per uuid, so fresh == population size
        whether or not speculation fired."""
        tracer = Tracer()
        with use_tracer(tracer):
            with ProcessPoolBackend(
                workers=1, metrics=MetricsRegistry()
            ) as pool:
                fleet = ElasticBackend(
                    [pool, InlineBackend()],
                    speculate=True,
                    min_history=1,
                    straggler_factor=0.0,
                    min_speculate_s=0.0,
                    autoscale_interval=None,
                    metrics=MetricsRegistry(),
                )
                engine = EvaluationEngine(
                    client=fleet, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(5))
        assert all(ind.is_viable for ind in done)
        assert engine.stats.fresh == 5
        assert engine.stats.completed == 5
        # pool tasks beat the warm inline threshold rarely; whatever
        # speculation happened, wins + primaries == 5 resolutions
        snap = fleet.fleet_snapshot()
        assert snap["in_flight"] == 0


# ----------------------------------------------------------------------
# autoscale
# ----------------------------------------------------------------------
class TestAutoscale:
    def test_sustained_pressure_scales_up_to_max(self):
        with ProcessPoolBackend(
            workers=1, metrics=MetricsRegistry()
        ) as pool:
            fleet = ElasticBackend(
                [pool],
                min_workers=1,
                max_workers=3,
                autoscale_interval=None,
                sustain_ticks=2,
                metrics=MetricsRegistry(),
            )
            engine = EvaluationEngine(
                client=fleet, metrics=MetricsRegistry()
            )
            for ind in _surrogate_individuals(8):
                engine.submit(ind)
            # a single pressure observation must not rescale
            fleet.autoscale_tick()
            assert pool.n_workers == 1
            fleet.autoscale_tick()
            grown = pool.n_workers
            done = _drain(engine)
        assert grown > 1 and grown <= 3
        assert all(ind.is_viable for ind in done)
        assert fleet._c_scale_up.value >= 1

    def test_sustained_idle_scales_down_to_min(self):
        with ProcessPoolBackend(
            workers=3, metrics=MetricsRegistry()
        ) as pool:
            fleet = ElasticBackend(
                [pool],
                min_workers=1,
                max_workers=3,
                autoscale_interval=None,
                sustain_ticks=1,
                metrics=MetricsRegistry(),
            )
            for _ in range(4):
                fleet.autoscale_tick()
            shrunk = pool.n_workers
        assert shrunk == 1
        assert fleet._c_scale_down.value >= 1

    def test_slots_cap_bounds_growth(self):
        with ProcessPoolBackend(
            workers=1, metrics=MetricsRegistry()
        ) as pool:
            fleet = ElasticBackend(
                [pool],
                min_workers=1,
                max_workers=8,
                slots_cap=2,
                autoscale_interval=None,
                sustain_ticks=1,
                metrics=MetricsRegistry(),
            )
            engine = EvaluationEngine(
                client=fleet, metrics=MetricsRegistry()
            )
            for ind in _surrogate_individuals(8):
                engine.submit(ind)
            fleet.autoscale_tick()
            capped = pool.n_workers
            done = _drain(engine)
        assert capped <= 2
        assert all(ind.is_viable for ind in done)

    def test_n_workers_tracks_live_capacity(self):
        fleet, (a, b) = _fake_fleet()
        assert fleet.n_workers == 4
        a.n_workers = 0
        assert fleet.n_workers == 2


# ----------------------------------------------------------------------
# campaign equivalence under preemption storms
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
        # revoke-only plan: every revocation is recoverable by the
        # fleet, so results must be bit-identical (a worker_death is
        # recoverable too, but within the pool: it is re-run there)
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
                workers=2, metrics=MetricsRegistry()
            ) as pool:
                fleet = ElasticBackend(
                    [pool, InlineBackend()],
                    autoscale_interval=None,
                    metrics=MetricsRegistry(),
                )
                stormed = Campaign(
                    lambda seed: SurrogateDeepMDProblem(seed=seed),
                    CFG,
                    client=fleet,
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
        """Revoking every pool worker reroutes to the inline reserve:
        the campaign still completes with zero MAXINT scores."""
        plan = FaultPlan(
            [
                Fault(kind="revoke_worker", at=0, worker="pool-0"),
                Fault(kind="revoke_worker", at=0, worker="pool-1"),
            ]
        )
        tracer = Tracer()
        with use_injector(plan.injector()), use_tracer(tracer):
            with ProcessPoolBackend(
                workers=2, metrics=MetricsRegistry()
            ) as pool:
                fleet = ElasticBackend(
                    [pool, InlineBackend()],
                    autoscale_interval=None,
                    metrics=MetricsRegistry(),
                )
                engine = EvaluationEngine(
                    client=fleet, metrics=MetricsRegistry()
                )
                done = engine.evaluate(_surrogate_individuals(6))
                survivors = pool.n_workers
        assert survivors == 0
        assert all(ind.is_viable for ind in done)
        assert fleet.fleet_snapshot()["requeued"] >= 1


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
