"""The multi-tenant campaign service.

Two layers under test, mirroring the package (a lane's tagged
hand-off is tested with the inline wave, ``tests/test_inline_wave.py``,
and the order the tags buy is the pool policy's, ``tests/test_policy.py``):

* the in-process :class:`CampaignService` over real surrogate
  campaigns, all stepped on its one owner thread — journals
  bit-identical to solo runs, cross-campaign cache sharing with
  exactly-once execution, cancel / graceful-shutdown /
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
from repro.engine import InlineBackend
from repro.engine.policy import Tag
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
)
from repro.service.service import _front_doc
from repro.store.journal import journal_path, read_journal


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
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


def _journal_records(directory):
    """The journal's records minus wall-clock and identity keys, as
    ``tools/same_bits.py`` compares them."""

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


# ----------------------------------------------------------------------
# a campaign's lane and the tenants' books, driven by hand
# ----------------------------------------------------------------------
class ManualFuture:
    """A backend future over a chunk of one, resolved by hand."""

    def __init__(self):
        self._done = False
        self._result = None
        self._exception = None

    def done(self):
        return self._done

    def result(self, timeout=None):
        if self._exception is not None:
            raise self._exception
        return [self._result]

    def finish(self, result="ok"):
        self._result = result
        self._done = True

    def fail(self, exc):
        self._exception = exc
        self._done = True


class ManualBackend:
    """Records tagged submissions; nothing completes until the test
    says so."""

    is_execution_backend = True

    def __init__(self):
        self.futures = []
        self.submitted = []
        self.tags = []
        self.cache_hits = 0

    def submit_batch(self, individuals, tag=None):
        (individual,) = individuals
        future = ManualFuture()
        self.futures.append(future)
        self.submitted.append(individual)
        self.tags.append(tag)
        return future

    def on_cache_hit(self, individual):
        self.cache_hits += 1


def _scheduler(backend=None, metrics=None):
    backend = backend if backend is not None else ManualBackend()
    metrics = metrics if metrics is not None else MetricsRegistry()
    return FairShareScheduler(backend, metrics=metrics), backend


class TestCampaignLane:
    def test_each_evaluation_goes_to_the_backend_tagged(self):
        """No queue of its own: a lane hands every evaluation over as a
        task of one, tagged with its campaign and its tenant's share."""
        registry = MetricsRegistry()
        scheduler, backend = _scheduler(metrics=registry)
        tenant = Tenant(name="alice", weight=2.0, max_in_flight=3, priority=1)
        lane = scheduler.register("c1", tenant)
        future = lane.submit_batch([f"t{i}" for i in range(10)])
        assert backend.submitted == [f"t{i}" for i in range(10)]
        assert set(backend.tags) == {Tag("alice", "c1", 2.0, 1, 3)}
        assert registry.snapshot()["service_dispatched_total"] == 10
        for i, f in enumerate(backend.futures[:9]):
            f.finish(f"r{i}")
        assert not future.done()
        backend.futures[9].finish("r9")
        assert future.done()
        assert future.result() == [f"r{i}" for i in range(10)]

    def test_a_chunk_is_handed_over_whole(self):
        """A chunk is done once its last task is, whatever order its
        tasks finish in, and reads back in submission order."""
        scheduler, backend = _scheduler()
        lane = scheduler.register("c1", Tenant())
        future = lane.submit_batch(["a", "b", "c"])
        for f, result in reversed(list(zip(backend.futures, "xyz"))):
            assert not future.done()
            f.finish(result)
        assert future.done() and future.result() == ["x", "y", "z"]

    def test_a_single_submission_reads_its_one_slot(self):
        scheduler, backend = _scheduler()
        future = scheduler.register("c1", Tenant()).submit("x")
        assert backend.submitted == ["x"] and not future.done()
        backend.futures[0].finish("r")
        assert future.done() and future.result() == "r"

    def test_backend_future_exception_propagates(self):
        scheduler, backend = _scheduler()
        future = scheduler.register("c1", Tenant()).submit("x")
        backend.futures[0].fail(ValueError("bad phenome"))
        assert future.done()
        with pytest.raises(ValueError, match="bad phenome"):
            future.result(timeout=1)

    def test_backend_submit_exception_reaches_the_submitter(self):
        """A backend that refuses a task raises in the campaign that
        submitted it (the service fails that campaign alone), and
        nothing is counted as dispatched."""

        class ExplodingBackend(ManualBackend):
            def submit_batch(self, individuals, tag=None):
                raise RuntimeError("fleet on fire")

        registry = MetricsRegistry()
        scheduler, _ = _scheduler(ExplodingBackend(), metrics=registry)
        lane = scheduler.register("c1", Tenant())
        with pytest.raises(RuntimeError, match="fleet on fire"):
            lane.submit("x")
        assert registry.snapshot()["service_dispatched_total"] == 0

    def test_admit_tenant_rejects_conflicting_knobs(self):
        scheduler, _ = _scheduler()
        scheduler.register("c1", Tenant(name="alice", weight=2.0))
        # identical spec is idempotent
        scheduler.admit_tenant(Tenant(name="alice", weight=2.0))
        scheduler.register("c2", Tenant(name="alice", weight=2.0))
        with pytest.raises(ServiceError, match="conflicting"):
            scheduler.admit_tenant(Tenant(name="alice"))
        with pytest.raises(ServiceError, match="conflicting"):
            scheduler.register("c3", Tenant(name="alice", weight=3.0))

    def test_snapshot_carries_the_backends_books(self):
        """Tenant rows carry the tenant's knobs, its open campaigns and
        the share books the backend keeps."""

        class BookedBackend(ManualBackend):
            def share_snapshot(self):
                return {"alice": {"in_flight": 2, "peak_in_flight": 2}}

        scheduler, _ = _scheduler(BookedBackend())
        scheduler.register("c1", Tenant(name="alice"))
        scheduler.register("c2", Tenant(name="bob"))
        snap = scheduler.snapshot()
        assert snap["in_flight"] == 2
        assert snap["tenants"]["alice"] == {
            **Tenant(name="alice").as_doc(),
            "in_flight": 2,
            "peak_in_flight": 2,
            "campaigns": ["c1"],
        }
        assert snap["tenants"]["bob"] == {
            **Tenant(name="bob").as_doc(),
            "campaigns": ["c2"],
        }

    def test_unregister_closes_the_lane_but_keeps_the_tenant(self):
        scheduler, _ = _scheduler()
        scheduler.register("c1", Tenant(name="alice", weight=2.0))
        scheduler.unregister("c1")
        tenants = scheduler.snapshot()["tenants"]
        assert tenants["alice"]["campaigns"] == []
        # admitted with its knobs: a conflicting re-use is still refused
        with pytest.raises(ServiceError, match="conflicting"):
            scheduler.admit_tenant(Tenant(name="alice"))

    def test_cache_hit_accounting_forwards_to_backend(self):
        scheduler, backend = _scheduler()
        lane = scheduler.register("c1", Tenant())
        lane.on_cache_hit(None)
        lane.on_cache_hit(None)
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
        """A generational, a steady-state and a PSO campaign served at
        once over a 2-worker pool each write the journal of their solo
        ``repro-hpo run --save``, and the service steps all three on
        the one thread it adds.  A steady-state run tells completions
        in the order the pool finishes them, so on a pool its journal
        keeps only its solo run's shape (as in ``tools/same_bits.py``,
        where steady-state on a pool only has to finish)."""
        from repro.engine import ProcessPoolBackend
        from repro.hpo.cli import main as hpo_main

        # distinct seeds: no campaign is served another's cached work
        tenants = {
            ("generational", 5): {
                "name": "alice", "weight": 2.0, "max_in_flight": 3,
            },
            ("steady-state", 6): {"name": "bob", "max_in_flight": 2},
            ("pso", 7): "carol",
        }
        solo = {}
        for mode, seed in tenants:
            assert hpo_main(
                [
                    "run", "--runs", "1", "--pop-size", "8",
                    "--generations", "2", "--seed", str(seed),
                    "--mode", mode, "--save", str(tmp_path / mode),
                ]
            ) == 0
            solo[mode] = _journal_records(tmp_path / mode)
        pool = ProcessPoolBackend(workers=2, metrics=MetricsRegistry())
        before = set(threading.enumerate())
        svc = CampaignService(tmp_path / "service", backend=pool)
        try:
            served = {}
            for (mode, seed), tenant in tenants.items():
                spec = _spec(mode, seed=seed, tenant=tenant)
                spec["config"]["mode"] = mode
                served[mode] = svc.submit(spec)
            _wait_generation(served["generational"])
            added = set(threading.enumerate()) - before
            assert [thread.name for thread in added] == ["repro-service"]
            assert svc.wait(timeout=120)
            for mode, campaign in served.items():
                assert campaign.state == DONE
                journal = _journal_records(campaign.directory)
                if mode == "steady-state":
                    journal, solo[mode] = (
                        [r["type"] for r in records]
                        for records in (journal, solo[mode])
                    )
                assert journal == solo[mode]
            books = svc.scheduler.snapshot()["tenants"]
            assert 1 <= books["alice"]["peak_in_flight"] <= 3
            assert 1 <= books["bob"]["peak_in_flight"] <= 2
        finally:
            svc.shutdown(timeout=30)

    def test_wait_bounds_the_total_wait(self, tmp_path):
        """``wait(timeout)`` spends ``timeout`` in all, however many
        campaigns are unfinished; shutdown interrupts the running one
        and leaves the queued one queued, with no journal."""

        def held_until_shutdown(spec):
            def factory(seed):
                problem = SurrogateDeepMDProblem(seed=seed)
                evaluate = problem.evaluate_batch_with_metadata

                def held(phenomes, uuids=None):
                    _wait_for(
                        lambda: svc.snapshot()["state"] == "shutting-down"
                    )
                    return evaluate(phenomes, uuids)

                problem.evaluate_batch_with_metadata = held
                return problem

            return factory

        svc = CampaignService(
            tmp_path, max_active=1, problem_factory_builder=held_until_shutdown
        )
        try:
            running = svc.submit(_spec("running"))
            queued = svc.submit(_spec("queued"))
            start = time.monotonic()
            assert not svc.wait(timeout=0.2)
            assert time.monotonic() - start < 0.4
        finally:
            svc.shutdown(timeout=30)
        assert (running.state, queued.state) == (INTERRUPTED, QUEUED)
        assert not journal_path(queued.directory).exists()

    def test_a_pool_holds_each_tenants_quota(self, tmp_path):
        """Over a pool, the tenants' evaluations queue in its policy: a
        tenant never has more than its quota running on the workers,
        and each campaign still equals its solo run."""
        from repro.engine import ProcessPoolBackend

        pool = ProcessPoolBackend(workers=3, metrics=MetricsRegistry())
        svc = CampaignService(tmp_path, backend=pool)
        try:
            a = svc.submit(
                _spec(
                    "a",
                    tenant={"name": "alice", "weight": 2.0, "max_in_flight": 2},
                )
            )
            b = svc.submit(
                _spec("b", seed=6, tenant={"name": "bob", "max_in_flight": 1})
            )
            assert svc.wait(timeout=120)
            assert (a.state, b.state) == (DONE, DONE)
            assert svc.front(a.id)["front"] == _solo_front()
            assert svc.front(b.id)["front"] == _solo_front(seed=6)
            tenants = svc.scheduler.snapshot()["tenants"]
            assert 1 <= tenants["alice"]["peak_in_flight"] <= 2
            assert tenants["bob"]["peak_in_flight"] == 1
            assert tenants["alice"]["in_flight"] == 0
            assert tenants["alice"]["dispatched"] >= 1
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

        shape = dict(seed=7, pop=10, gens=3, runs=2)
        solo = tmp_path / "solo"
        assert hpo_main(
            [
                "run", "--runs", "2", "--pop-size", "10",
                "--generations", "3", "--seed", "7", "--save", str(solo),
            ]
        ) == 0
        expected = _journal_records(solo)
        types = [r["type"] for r in expected]
        assert types[0] == "campaign_begin"
        assert types.count("campaign_begin") == 1
        solo_front = _front_doc(load_campaign(solo))["front"]

        svc = CampaignService(tmp_path / "submitted")
        try:
            submitted = svc.submit(_spec("submitted", **shape))
            assert svc.wait(timeout=120)
            assert submitted.state == DONE
            assert _journal_records(submitted.directory) == expected
            assert svc.front(submitted.id)["front"] == solo_front
        finally:
            svc.shutdown(timeout=30)

        root = tmp_path / "recovered"
        svc = CampaignService(root, max_active=1)
        queued = svc.registry.create(_spec("queued", **shape))  # no slot
        svc.shutdown(timeout=30)
        assert queued.state == QUEUED
        assert not journal_path(queued.directory).exists()
        revived = CampaignService(root)
        try:
            assert [c.id for c in revived.recover()] == [queued.id]
            assert revived.wait(timeout=120)
            assert revived.get(queued.id).state == DONE
            assert _journal_records(queued.directory) == expected
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
            assert service["scheduler"]["in_flight"] == 0
            assert "alice" in service["scheduler"]["tenants"]
            assert service["cache"]["entries"] > 0
            assert service["max_active"] == 2
            prom = get_registry().to_prometheus()
            assert f'engine_inflight{{campaign_id="{campaign.id}"}}' in prom
        finally:
            svc.shutdown(timeout=30)
        assert svc.snapshot()["state"] == "shutting-down"
        with pytest.raises(ServiceError, match="shutting down"):
            svc.submit(_spec("late"))

    def test_a_refused_submission_fails_only_its_campaign(self, tmp_path):
        """A backend error raised while one campaign steps fails that
        campaign; the owner thread goes on stepping the others."""

        class Refusing:
            is_execution_backend = True

            def __init__(self):
                self.inner = InlineBackend()

            def submit_batch(self, individuals, tag=None):
                if tag is not None and tag.tenant == "mallory":
                    raise RuntimeError("fleet refuses mallory")
                return self.inner.submit_batch(individuals, tag)

            def on_cache_hit(self, individual):
                pass

        svc = CampaignService(tmp_path, backend=Refusing())
        try:
            bad = svc.submit(_spec("bad", tenant="mallory"))
            good = svc.submit(_spec("good", tenant="alice"))
            assert svc.wait(timeout=120)
            assert bad.state == FAILED
            assert "fleet refuses mallory" in bad.error
            assert good.state == DONE
            assert svc.front(good.id)["front"] == _solo_front()
            assert svc._owner.is_alive()
        finally:
            svc.shutdown(timeout=30)
        assert not svc._owner.is_alive()

    def test_shutdown_stops_the_one_owner_thread(self, tmp_path):
        before = set(threading.enumerate())
        svc = CampaignService(tmp_path)
        added = set(threading.enumerate()) - before
        assert [thread.name for thread in added] == ["repro-service"]
        assert svc.wait(timeout=1)  # nothing queued, nothing running
        svc.shutdown(timeout=30)
        assert not any(thread.is_alive() for thread in added)
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
