"""The multi-tenant campaign service.

Three layers under test, mirroring the package:

* the :class:`FairShareScheduler` driven deterministically by hand
  (no dispatcher thread) against a manually-resolved fake backend —
  quotas, stride weights, strict priority, round-robin, failure paths;
* the in-process :class:`CampaignService` over real surrogate
  campaigns — fronts bit-identical to solo runs, cross-campaign cache
  sharing with exactly-once execution, cancel / graceful-shutdown /
  restart-recovery lifecycles;
* the HTTP plane (:class:`CampaignServer` + :class:`ServiceClient`).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.chaos import InvariantChecker
from repro.exceptions import CampaignCancelled, ServiceError, ServiceShutdown
from repro.hpo.campaign import Campaign, CampaignConfig
from repro.hpo.landscape import SurrogateDeepMDProblem
from repro.obs import MetricsRegistry, get_registry
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RESUMABLE_STATES,
    RUNNING,
    TERMINAL_STATES,
    CampaignRegistry,
    CampaignServer,
    CampaignService,
    FairShareScheduler,
    ServiceClient,
    Tenant,
    tenant_from_spec,
    worker_capacity,
)
from repro.service.service import _front_doc
from repro.store.journal import journal_path, read_journal


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
class ManualFuture:
    """A backend future the test resolves by hand."""

    def __init__(self, tag):
        self.tag = tag
        self._done = False
        self._result = None
        self._exception = None

    def done(self):
        return self._done

    def result(self, timeout=None):
        if self._exception is not None:
            raise self._exception
        return self._result

    def finish(self, result="ok"):
        self._result = result
        self._done = True

    def fail(self, exc):
        self._exception = exc
        self._done = True


class ManualBackend:
    """Records submissions; nothing completes until the test says so."""

    is_execution_backend = True

    def __init__(self):
        self.futures = []
        self.submitted = []
        self.cache_hits = 0

    def submit(self, individual):
        future = ManualFuture(individual)
        self.futures.append(future)
        self.submitted.append(individual)
        return future

    def on_cache_hit(self, individual):
        self.cache_hits += 1


def _scheduler(backend=None, **kwargs):
    """An unstarted scheduler over a fresh metrics registry, so tests
    drive tick() deterministically without thread interleaving."""
    backend = backend if backend is not None else ManualBackend()
    kwargs.setdefault("metrics", MetricsRegistry())
    return FairShareScheduler(backend, **kwargs), backend


def _spec(name, seed=5, tenant=None, pop=8, gens=2, runs=1, **extra):
    return {
        "name": name,
        "tenant": tenant,
        "config": {
            "n_runs": runs,
            "pop_size": pop,
            "generations": gens,
            "base_seed": seed,
        },
        "problem": {"backend": "surrogate"},
        **extra,
    }


def _solo_front(seed=5, pop=8, gens=2, runs=1):
    result = Campaign(
        lambda s: SurrogateDeepMDProblem(seed=s),
        config=CampaignConfig(
            n_runs=runs, pop_size=pop, generations=gens, base_seed=seed
        ),
    ).run()
    return _front_doc(result)["front"]


def _wait_for(predicate, timeout=60.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def _wait_generation(campaign, minimum=1, timeout=60.0):
    """Block until the campaign has journaled ``minimum`` generations —
    the clean window for cancel/shutdown-while-running tests."""
    _wait_for(
        lambda: campaign.status is not None
        and (campaign.status.snapshot().get("generation") or 0) >= minimum,
        timeout=timeout,
        message=f"campaign {campaign.id} to reach generation {minimum}",
    )


# a campaign big enough that cancel/shutdown lands mid-flight
LONG = {"pop": 30, "gens": 6, "runs": 2}


# ----------------------------------------------------------------------
# tenancy
# ----------------------------------------------------------------------
class TestTenancy:
    def test_defaults(self):
        tenant = tenant_from_spec(None)
        assert tenant == Tenant()
        assert tenant.name == "default"
        assert tenant.weight == 1.0
        assert tenant.max_in_flight == 4
        assert tenant.priority == 0

    def test_bare_name_and_doc_roundtrip(self):
        tenant = tenant_from_spec("alice")
        assert tenant.name == "alice"
        assert tenant_from_spec(tenant.as_doc()) == tenant

    def test_full_object(self):
        tenant = tenant_from_spec(
            {"name": "bob", "weight": 2.5, "max_in_flight": 7, "priority": 1}
        )
        assert (tenant.weight, tenant.max_in_flight, tenant.priority) == (
            2.5,
            7,
            1,
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"weight": 0},
            {"weight": -1.0},
            {"max_in_flight": 0},
            {"name": ""},
            {"quota": 3},  # unknown key must be loud
            {"weight": "heavy"},
            42,
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ServiceError):
            tenant_from_spec(bad)

    def test_worker_capacity_probes(self):
        class Pool:
            n_workers = 3

        assert worker_capacity(Pool()) == 3
        assert worker_capacity(object(), default=6) == 6


# ----------------------------------------------------------------------
# fair-share scheduler, driven by hand
# ----------------------------------------------------------------------
class TestFairShareScheduler:
    def test_fleet_cap_then_backfill(self):
        scheduler, backend = _scheduler(total_slots=4)
        queue = scheduler.register("c1", Tenant(max_in_flight=16))
        futures = [queue.submit(f"t{i}") for i in range(10)]
        assert scheduler.tick() == 4
        assert len(backend.submitted) == 4
        assert scheduler.tick() == 0  # fleet full, nothing moves
        backend.futures[0].finish("r0")
        backend.futures[1].finish("r1")
        assert scheduler.tick() == 2  # two drained -> two dispatched
        assert len(backend.submitted) == 6
        assert futures[0].done() and futures[0].result(0) == "r0"
        assert not futures[5].done()

    def test_tenant_quota_never_exceeded(self):
        scheduler, backend = _scheduler(total_slots=8)
        queue = scheduler.register("c1", Tenant(name="t", max_in_flight=2))
        [queue.submit(i) for i in range(6)]
        scheduler.tick()
        assert len(backend.submitted) == 2
        for future in backend.futures[:2]:
            future.finish()
        scheduler.tick()
        assert len(backend.submitted) == 4
        snap = scheduler.snapshot()
        assert snap["tenants"]["t"]["peak_in_flight"] == 2

    def test_stride_weights_are_proportional(self):
        scheduler, backend = _scheduler(total_slots=1)
        alice = scheduler.register("a", Tenant(name="alice", weight=2.0))
        bob = scheduler.register("b", Tenant(name="bob", weight=1.0))
        [alice.submit(f"a{i}") for i in range(10)]
        [bob.submit(f"b{i}") for i in range(10)]
        for _ in range(9):
            scheduler.tick()
            backend.futures[-1].finish()
        # stride scheduling: exactly 2:1 over any window, not just in
        # expectation — and deterministically interleaved, not bursty
        first_nine = [tag[0] for tag in backend.submitted[:9]]
        assert first_nine == list("abaabaaba")

    def test_strict_priority_preempts_weights(self):
        scheduler, backend = _scheduler(total_slots=1)
        urgent = scheduler.register(
            "u", Tenant(name="urgent", weight=1.0, priority=0)
        )
        batch = scheduler.register(
            "b", Tenant(name="batch", weight=100.0, priority=1)
        )
        [batch.submit(f"b{i}") for i in range(3)]
        [urgent.submit(f"u{i}") for i in range(3)]
        for _ in range(6):
            scheduler.tick()
            backend.futures[-1].finish()
        # all priority-0 work dispatched before any priority-1, no
        # matter the weights or arrival order
        assert backend.submitted == ["u0", "u1", "u2", "b0", "b1", "b2"]

    def test_round_robin_among_tenants_campaigns(self):
        scheduler, backend = _scheduler(total_slots=4)
        tenant = Tenant(name="t", max_in_flight=8)
        q1 = scheduler.register("c1", tenant)
        q2 = scheduler.register("c2", tenant)
        [q1.submit(f"c1-{i}") for i in range(2)]
        [q2.submit(f"c2-{i}") for i in range(2)]
        scheduler.tick()
        assert backend.submitted == ["c1-0", "c2-0", "c1-1", "c2-1"]

    def test_unregister_fails_pending_and_closes_queue(self):
        scheduler, _ = _scheduler(total_slots=1)
        queue = scheduler.register("c1", Tenant())
        kept = queue.submit("runs")
        scheduler.tick()
        stranded = queue.submit("stranded")
        scheduler.unregister(queue)
        with pytest.raises(ServiceError, match="unregistered"):
            stranded.result(timeout=1)
        with pytest.raises(ServiceError, match="closed"):
            queue.submit("late")
        assert not kept.done()  # in-flight work keeps draining

    def test_backend_submit_exception_resolves_future(self):
        class ExplodingBackend(ManualBackend):
            def submit(self, individual):
                raise RuntimeError("fleet on fire")

        scheduler, _ = _scheduler(ExplodingBackend())
        queue = scheduler.register("c1", Tenant())
        future = queue.submit("x")
        scheduler.tick()
        with pytest.raises(RuntimeError, match="fleet on fire"):
            future.result(timeout=1)
        snap = scheduler.snapshot()
        assert snap["in_flight"] == 0
        assert snap["tenants"]["default"]["in_flight"] == 0

    def test_backend_future_exception_propagates(self):
        scheduler, backend = _scheduler()
        queue = scheduler.register("c1", Tenant())
        future = queue.submit("x")
        scheduler.tick()
        backend.futures[0].fail(ValueError("bad phenome"))
        scheduler.tick()
        with pytest.raises(ValueError, match="bad phenome"):
            future.result(timeout=1)

    def test_validate_tenant_rejects_conflicting_knobs(self):
        scheduler, _ = _scheduler()
        scheduler.register("c1", Tenant(name="alice", weight=2.0))
        # identical spec is idempotent
        scheduler.validate_tenant(Tenant(name="alice", weight=2.0))
        scheduler.register("c2", Tenant(name="alice", weight=2.0))
        with pytest.raises(ServiceError, match="conflicting"):
            scheduler.validate_tenant(Tenant(name="alice"))
        with pytest.raises(ServiceError, match="conflicting"):
            scheduler.register("c3", Tenant(name="alice", weight=3.0))

    def test_total_slots_defaults_to_backend_workers(self):
        class Pool(ManualBackend):
            n_workers = 3

        scheduler, _ = _scheduler(Pool())
        assert scheduler.total_slots == 3
        with pytest.raises(ServiceError, match="total_slots"):
            _scheduler(total_slots=0)

    def test_stopped_scheduler_rejects_work(self):
        scheduler, _ = _scheduler()
        queue = scheduler.register("c1", Tenant())
        scheduler.stop(drain=False)
        with pytest.raises(ServiceError):
            queue.submit("x")
        with pytest.raises(ServiceError, match="stopped"):
            scheduler.register("c2", Tenant(name="late"))

    def test_started_scheduler_drains_on_stop(self):
        class InstantBackend(ManualBackend):
            def submit(self, individual):
                future = ManualFuture(individual)
                future.finish(f"done-{individual}")
                self.submitted.append(individual)
                return future

        scheduler, backend = _scheduler(InstantBackend())
        scheduler.start()
        queue = scheduler.register("c1", Tenant())
        futures = [queue.submit(i) for i in range(8)]
        assert scheduler.wait_idle(timeout=10)
        scheduler.stop(drain=True, timeout=10)
        assert [f.result(0) for f in futures] == [
            f"done-{i}" for i in range(8)
        ]
        assert len(backend.submitted) == 8

    def test_snapshot_and_labeled_metrics(self):
        registry = MetricsRegistry()
        scheduler, _ = _scheduler(metrics=registry, total_slots=2)
        queue = scheduler.register("c1", Tenant(name="alice"))
        [queue.submit(i) for i in range(3)]
        scheduler.tick()
        snap = scheduler.snapshot()
        assert snap["total_slots"] == 2
        assert snap["in_flight"] == 2
        assert snap["queues"]["c1"] == {
            "tenant": "alice",
            "pending": 1,
            "in_flight": 2,
            "submitted": 3,
            "completed": 0,
            "cache_hits": 0,
        }
        series = registry.snapshot()
        assert series['service_queue_depth{campaign_id="c1"}'] == 1
        assert series['service_campaign_in_flight{campaign_id="c1"}'] == 2
        assert series['service_tenant_in_flight{tenant="alice"}'] == 2

    def test_cache_hit_accounting_forwards_to_backend(self):
        scheduler, backend = _scheduler()
        queue = scheduler.register("c1", Tenant())
        queue.on_cache_hit(None)
        queue.on_cache_hit(None)
        assert queue.stats()["cache_hits"] == 2
        assert backend.cache_hits == 2


# ----------------------------------------------------------------------
# durable registry
# ----------------------------------------------------------------------
class TestCampaignRegistry:
    def test_create_persists_and_reloads(self, tmp_path):
        registry = CampaignRegistry(tmp_path)
        campaign = registry.create(
            _spec("exp", tenant={"name": "alice", "weight": 2.0})
        )
        assert campaign.state == QUEUED
        assert (campaign.directory / "spec.json").exists()
        reloaded = CampaignRegistry(tmp_path).load_persisted()
        assert len(reloaded) == 1
        twin = reloaded[0]
        assert twin.id == campaign.id
        assert twin.tenant == campaign.tenant
        assert twin.config == campaign.config
        assert twin.problem_spec == {"backend": "surrogate"}

    @pytest.mark.parametrize(
        "bad",
        [
            "not an object",
            {"bogus": 1},
            {"config": {"generation": 3}},  # typo'd field, not silent
            {"config": {"mode": "chaotic"}},
            {"problem": "surrogate"},
        ],
    )
    def test_create_rejects_malformed_submissions(self, tmp_path, bad):
        with pytest.raises(ServiceError):
            CampaignRegistry(tmp_path).create(bad)

    def test_duplicate_id_rejected(self, tmp_path):
        registry = CampaignRegistry(tmp_path)
        registry.create(_spec("a", id="dup"))
        with pytest.raises(ServiceError, match="dup"):
            registry.create(_spec("b", id="dup"))

    def test_first_terminal_state_wins(self, tmp_path):
        registry = CampaignRegistry(tmp_path)
        campaign = registry.create(_spec("a"))
        registry.set_state(campaign, CANCELLED)
        registry.set_state(campaign, DONE)  # racing transition: ignored
        assert campaign.state == CANCELLED
        state = json.loads(
            (campaign.directory / "state.json").read_text()
        )
        assert state["state"] == CANCELLED

    def test_state_partitions_are_disjoint(self):
        assert not (RESUMABLE_STATES & TERMINAL_STATES)
        assert QUEUED in RESUMABLE_STATES
        assert INTERRUPTED in RESUMABLE_STATES
        assert DONE in TERMINAL_STATES


# ----------------------------------------------------------------------
# the in-process service over real surrogate campaigns
# ----------------------------------------------------------------------
class TestCampaignService:
    def test_concurrent_campaigns_bit_identical_to_solo(self, tmp_path):
        svc = CampaignService(tmp_path)
        try:
            a = svc.submit(
                _spec(
                    "a",
                    tenant={"name": "alice", "weight": 2.0, "max_in_flight": 3},
                )
            )
            b = svc.submit(
                _spec("b", tenant={"name": "bob", "max_in_flight": 2})
            )
            assert svc.wait(timeout=120)
            assert (a.state, b.state) == (DONE, DONE)
            solo = _solo_front()
            assert svc.front(a.id)["front"] == solo
            assert svc.front(b.id)["front"] == solo
            tenants = svc.scheduler.snapshot()["tenants"]
            assert 1 <= tenants["alice"]["peak_in_flight"] <= 3
            assert 1 <= tenants["bob"]["peak_in_flight"] <= 2
        finally:
            svc.shutdown(timeout=30)

    def test_cross_campaign_cache_runs_each_phenome_once(self, tmp_path):
        counts: Counter = Counter()
        lock = threading.Lock()

        def counting_builder(problem_spec):
            def factory(seed):
                problem = SurrogateDeepMDProblem(seed=seed)
                inner = problem.evaluate

                def counted(phenome):
                    with lock:
                        counts[json.dumps(phenome, sort_keys=True)] += 1
                    return inner(phenome)

                problem.evaluate = counted
                return problem

            return factory

        svc = CampaignService(
            tmp_path, problem_factory_builder=counting_builder
        )
        try:
            a = svc.submit(_spec("first", tenant="alice"))
            assert svc.wait(timeout=120)
            assert a.state == DONE
            executed = sum(counts.values())
            assert executed == len(counts)  # each unique phenome: once
            hits_before = svc.cache.stats()["hits"]

            b = svc.submit(_spec("second", tenant="bob"))
            assert svc.wait(timeout=120)
            assert b.state == DONE
            # the identical resubmission executed NOTHING new: every
            # evaluation was served from alice's cached work
            assert sum(counts.values()) == executed
            assert svc.cache.stats()["hits"] > hits_before
            assert svc.front(b.id)["front"] == svc.front(a.id)["front"]
            # acceptance: >= 90% cache-hit on an identical resubmission
            assert b.status.snapshot()["cache_hit_rate"] >= 0.9
        finally:
            svc.shutdown(timeout=30)

    def test_cancel_running_campaign(self, tmp_path):
        svc = CampaignService(tmp_path)
        try:
            campaign = svc.submit(_spec("long", **LONG))
            _wait_generation(campaign)
            svc.cancel(campaign.id)
            assert svc.wait(timeout=60)
            assert campaign.state == CANCELLED
            assert svc.front(campaign.id)["state"] == CANCELLED
        finally:
            svc.shutdown(timeout=30)

    def test_cancel_steady_state_campaign_at_its_first_window(
        self, tmp_path
    ):
        """A steady-state run commits a record every ``pop_size``
        completions, so a cancel requested during its first evaluation
        lands at its first window, not at the end of the run."""
        pop = 20

        def factory_for(spec):
            def factory(seed):
                problem = SurrogateDeepMDProblem(seed=seed)
                evaluate = problem.evaluate_batch_with_metadata

                def cancel_then_evaluate(phenomes, uuids=None):
                    for campaign in svc.list():
                        campaign.cancel_event.set()
                    return evaluate(phenomes, uuids)

                problem.evaluate_batch_with_metadata = cancel_then_evaluate
                return problem

            return factory

        svc = CampaignService(
            tmp_path, problem_factory_builder=factory_for
        )
        try:
            spec = _spec("steady", pop=pop, gens=6, runs=2)
            spec["config"]["mode"] = "steady-state"
            campaign = svc.submit(spec)
            assert svc.wait(timeout=60)
            assert campaign.state == CANCELLED
            state = read_journal(journal_path(campaign.directory))
            assert sorted(state.runs) == [0]
            assert 0 < len(state.runs[0].evaluations) <= 2 * pop
            assert sorted(state.runs[0].generations) == [0]
        finally:
            svc.shutdown(timeout=30)

    def test_cancel_queued_campaign_never_runs(self, tmp_path):
        svc = CampaignService(tmp_path, max_active=1)
        try:
            first = svc.submit(_spec("long", **LONG))
            _wait_for(
                lambda: first.state == RUNNING,
                timeout=30,
                message="first campaign to occupy the only slot",
            )
            queued = svc.submit(_spec("queued", **LONG))
            svc.cancel(queued.id)
            _wait_for(
                lambda: queued.state == CANCELLED,
                timeout=30,
                message="queued campaign to cancel",
            )
            assert queued.status is None  # never acquired a slot
            svc.cancel(first.id)
            assert svc.wait(timeout=60)
        finally:
            svc.shutdown(timeout=30)

    def test_shutdown_interrupts_then_recovery_is_bit_identical(
        self, tmp_path
    ):
        seed = 7
        svc = CampaignService(tmp_path)
        campaign = svc.submit(_spec("interruptible", seed=seed, **LONG))
        _wait_generation(campaign)
        svc.shutdown(timeout=60)
        assert campaign.state == INTERRUPTED
        journal = journal_path(campaign.directory)
        assert journal.exists()
        report = InvariantChecker(
            journal=journal, cache_dir=tmp_path / "cache"
        ).check()
        assert report.ok, report.summary()

        revived = CampaignService(tmp_path)
        try:
            recovered = revived.recover()
            assert [c.id for c in recovered] == [campaign.id]
            assert revived.wait(timeout=180)
            resumed = revived.get(campaign.id)
            assert resumed.state == DONE
            assert revived.front(campaign.id)["front"] == _solo_front(
                seed=seed, **LONG
            )
        finally:
            revived.shutdown(timeout=30)

    def test_three_entry_points_write_one_journal(self, tmp_path):
        """``repro-hpo run --save``, a submitted service campaign and a
        service campaign recovered from ``queued`` write the same
        journal (minus wall-clock and identity keys) and front."""
        from repro.hpo.cli import main as hpo_main
        from repro.io import load_campaign

        def records(directory):
            def strip(doc):
                if isinstance(doc, dict):
                    return {
                        k: strip(v)
                        for k, v in doc.items()
                        if k not in ("ts", "uuid", "uuids", "dedup_of")
                    }
                if isinstance(doc, list):
                    return [strip(v) for v in doc]
                return doc

            lines = journal_path(directory).read_text().splitlines()
            return [strip(json.loads(line)) for line in lines]

        shape = dict(seed=7, pop=10, gens=3, runs=2)
        solo = tmp_path / "solo"
        assert hpo_main(
            [
                "run", "--runs", "2", "--pop-size", "10",
                "--generations", "3", "--seed", "7", "--save", str(solo),
            ]
        ) == 0
        expected = records(solo)
        types = [r["type"] for r in expected]
        assert types[0] == "campaign_begin"
        assert types.count("campaign_begin") == 1
        solo_front = _front_doc(load_campaign(solo))["front"]

        svc = CampaignService(tmp_path / "submitted")
        try:
            submitted = svc.submit(_spec("submitted", **shape))
            assert svc.wait(timeout=120)
            assert submitted.state == DONE
            assert records(submitted.directory) == expected
            assert svc.front(submitted.id)["front"] == solo_front
        finally:
            svc.shutdown(timeout=30)

        root = tmp_path / "recovered"
        svc = CampaignService(root, max_active=1)
        svc._slots.acquire()  # hold the only slot: the campaign waits
        queued = svc.submit(_spec("queued", **shape))
        svc.shutdown(timeout=30)
        assert queued.state == QUEUED
        assert not journal_path(queued.directory).exists()
        revived = CampaignService(root)
        try:
            assert [c.id for c in revived.recover()] == [queued.id]
            assert revived.wait(timeout=120)
            assert revived.get(queued.id).state == DONE
            assert records(queued.directory) == expected
            assert revived.front(queued.id)["front"] == solo_front
        finally:
            revived.shutdown(timeout=30)

    def test_conflicting_tenant_rejected_at_submit(self, tmp_path):
        svc = CampaignService(tmp_path)
        try:
            svc.submit(_spec("a", tenant={"name": "t", "weight": 2.0}))
            with pytest.raises(ServiceError, match="conflicting"):
                svc.submit(_spec("b", tenant="t"))
            assert len(svc.list()) == 1  # rejected before registration
            assert svc.wait(timeout=120)
        finally:
            svc.shutdown(timeout=30)

    def test_snapshot_is_the_multi_campaign_status_body(self, tmp_path):
        svc = CampaignService(tmp_path, max_active=2)
        try:
            campaign = svc.submit(_spec("snap", tenant="alice"))
            assert svc.wait(timeout=120)
            snap = svc.snapshot()
            assert snap["state"] == "serving"
            service = snap["service"]
            rows = {c["id"]: c for c in service["campaigns"]}
            assert rows[campaign.id]["state"] == DONE
            assert rows[campaign.id]["tenant"] == "alice"
            assert rows[campaign.id]["front_size"] > 0
            assert service["scheduler"]["total_slots"] >= 1
            assert service["cache"]["entries"] > 0
            assert service["max_active"] == 2
            prom = get_registry().to_prometheus()
            assert f'service_queue_depth{{campaign_id="{campaign.id}"}}' in prom
        finally:
            svc.shutdown(timeout=30)
        assert svc.snapshot()["state"] == "shutting-down"
        with pytest.raises(ServiceError, match="shutting down"):
            svc.submit(_spec("late"))

    def test_failed_campaign_isolates_and_reports(self, tmp_path):
        def broken_builder(problem_spec):
            raise RuntimeError("no such problem backend")

        svc = CampaignService(
            tmp_path, problem_factory_builder=broken_builder
        )
        try:
            bad = svc.submit(_spec("bad"))
            _wait_for(
                lambda: bad.state in TERMINAL_STATES,
                timeout=30,
                message="broken campaign to fail",
            )
            assert bad.state == FAILED
            assert "no such problem backend" in bad.error
        finally:
            svc.shutdown(timeout=30)


# ----------------------------------------------------------------------
# the HTTP plane
# ----------------------------------------------------------------------
class TestCampaignServerHTTP:
    def _serve(self, tmp_path, **kwargs):
        svc = CampaignService(tmp_path, **kwargs)
        server = CampaignServer(svc, port=0).start()
        return svc, server, ServiceClient(server.url, timeout=10)

    def _poll_done(self, client, campaign_id, timeout=120.0):
        _wait_for(
            lambda: client.campaign(campaign_id)["state"]
            in TERMINAL_STATES | {INTERRUPTED},
            timeout=timeout,
            message=f"campaign {campaign_id} over HTTP",
        )
        return client.campaign(campaign_id)

    def test_submit_poll_front_roundtrip(self, tmp_path):
        svc, server, client = self._serve(tmp_path)
        try:
            a = client.submit(_spec("a", tenant="alice"))
            b = client.submit(_spec("b", tenant="bob"))  # identical work
            assert self._poll_done(client, a["id"])["state"] == DONE
            assert self._poll_done(client, b["id"])["state"] == DONE

            fronts = [client.front(c["id"])["front"] for c in (a, b)]
            assert fronts[0] and fronts[0] == fronts[1] == _solo_front()

            rows = {c["id"]: c for c in client.campaigns()}
            assert rows.keys() == {a["id"], b["id"]}
            assert all(row["state"] == DONE for row in rows.values())

            status = client.status()
            per_campaign = {
                c["id"]: c for c in status["service"]["campaigns"]
            }
            assert per_campaign[a["id"]]["tenant"] == "alice"
            assert per_campaign[b["id"]]["tenant"] == "bob"
            # identical campaigns share the cache across tenants
            assert status["service"]["cache"]["hits"] > 0

            prom = client.metrics()
            assert "service_dispatched_total" in prom
            assert f'campaign_hypervolume{{campaign_id="{a["id"]}"}}' in prom
        finally:
            server.close()
            svc.shutdown(timeout=30)

    def test_cancel_over_http(self, tmp_path):
        svc, server, client = self._serve(tmp_path)
        try:
            doc = client.submit(_spec("long", **LONG))
            client.cancel(doc["id"])
            assert self._poll_done(client, doc["id"])["state"] == CANCELLED
        finally:
            server.close()
            svc.shutdown(timeout=30)

    def test_http_error_mapping(self, tmp_path):
        svc, server, client = self._serve(tmp_path)
        try:
            with pytest.raises(ServiceError, match="404"):
                client.campaign("nope")
            with pytest.raises(ServiceError, match="404"):
                client.cancel("nope")
            with pytest.raises(ServiceError, match="400"):
                client.submit({"bogus": 1})
            with pytest.raises(ServiceError, match="400"):
                client.submit(_spec("bad", config_override=True))
            # raw non-JSON body -> 400, not a stack trace
            request = urllib.request.Request(
                f"{server.url}/campaigns",
                data=b"not json",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400
            err.value.close()  # the error owns the response's socket
            status, body = 0, ""
            with urllib.request.urlopen(
                f"{server.url}/healthz", timeout=10
            ) as resp:
                status, body = resp.status, resp.read().decode()
            assert status == 200 and body
            assert svc.list() == []  # nothing bad was admitted
        finally:
            server.close()
            svc.shutdown(timeout=30)

    def test_client_unreachable_raises_service_error(self):
        client = ServiceClient("127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.campaigns()


# ----------------------------------------------------------------------
# exception taxonomy
# ----------------------------------------------------------------------
class TestServiceExceptions:
    def test_hierarchy(self):
        from repro.exceptions import ReproError

        assert issubclass(ServiceError, ReproError)
        assert issubclass(CampaignCancelled, ServiceError)
        assert issubclass(ServiceShutdown, ServiceError)
