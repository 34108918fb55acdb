"""Tests for the live observability plane: campaign status snapshots,
convergence telemetry on degenerate fronts, cross-process span
ingestion, the /metrics + /status HTTP server, and the monitor
dashboard.

The HTTP tests bind an ephemeral port (``port=0``) and talk to the
server through ``urllib`` — the same path ``repro-hpo monitor`` and a
Prometheus scrape take.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.evo import MAXINT, Individual
from repro.hpo.cli import _render_dashboard
from repro.hpo.cli import main as hpo_main
from repro.obs import (
    NULL_STATUS,
    CampaignStatus,
    ConvergenceTelemetry,
    MetricsRegistry,
    ObservabilityServer,
    Tracer,
    get_status,
    set_status,
    use_status,
)
from repro.obs.trace import NULL_TRACER


def _strict_loads(text: str) -> dict:
    """Parse JSON rejecting NaN/Infinity tokens."""

    def _reject(token: str):
        raise ValueError(f"non-strict JSON token: {token}")

    return json.loads(text, parse_constant=_reject)


def _individual(fitness) -> Individual:
    ind = Individual(np.zeros(2))
    ind.fitness = np.asarray(fitness, dtype=np.float64)
    return ind


def _get(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")


# ----------------------------------------------------------------------
# campaign status
# ----------------------------------------------------------------------
class TestCampaignStatus:
    def test_null_status_is_inert_default(self):
        assert NULL_STATUS.enabled is False
        NULL_STATUS.update(mode="x")
        NULL_STATUS.worker_update("w0", state="busy")
        NULL_STATUS.mark_done()
        assert NULL_STATUS.snapshot() == {}
        assert get_status() is NULL_STATUS

    def test_use_status_scopes_the_global(self):
        status = CampaignStatus(campaign_id="cafe10")
        before = get_status()
        with use_status(status):
            assert get_status() is status
        assert get_status() is before

    def test_set_status_none_restores_null(self):
        previous = set_status(CampaignStatus())
        try:
            assert get_status().enabled
        finally:
            set_status(None)
        assert get_status() is NULL_STATUS
        set_status(previous)

    def test_snapshot_rates_derive_from_engine_stats(self):
        status = CampaignStatus(campaign_id="cafe11", mode="generational")
        status.begin_run(0, seed=42)
        status.publish_engine(
            {
                "submitted": 20,
                "completed": 20,
                "cache_hits": 5,
                "dedup_hits": 2,
            }
        )
        snap = status.snapshot()
        assert snap["campaign"] == "cafe11"
        assert snap["state"] == "running"
        assert snap["run"] == 0
        assert snap["seed"] == 42
        assert snap["elapsed_s"] >= 0.0  # rounds to 0.000 when instant
        assert snap["evals_per_sec"] > 0.0
        assert snap["cache_hit_rate"] == pytest.approx(0.25)
        assert snap["dedup_rate"] == pytest.approx(0.1)

    def test_snapshot_zero_completed_has_zero_rates(self):
        snap = CampaignStatus().snapshot()
        assert snap["evals_per_sec"] == 0.0
        assert snap["cache_hit_rate"] == 0.0
        assert snap["dedup_rate"] == 0.0

    def test_publish_generation_appends_series_and_replaces_front(self):
        status = CampaignStatus()
        status.begin_run(1)
        status.publish_generation(
            generation=0,
            hypervolume=0.001,
            front=[[0.01, 0.1]],
            front_size=1,
            spread=None,
        )
        status.publish_generation(
            generation=1,
            hypervolume=0.002,
            front=[[0.009, 0.09], [0.011, 0.08]],
            front_size=2,
            spread=0.5,
        )
        snap = status.snapshot()
        series = snap["hypervolume_series"]
        assert [e["generation"] for e in series] == [0, 1]
        assert [e["run"] for e in series] == [1, 1]
        assert series[0]["spread"] is None
        assert series[1]["hypervolume"] == pytest.approx(0.002)
        # the front is the latest generation's, not an accumulation
        assert len(snap["front"]) == 2
        assert snap["generation"] == 1

    def test_publish_generation_sanitizes_nonfinite(self):
        status = CampaignStatus()
        status.publish_generation(
            generation=0,
            hypervolume=float("nan"),
            front=[[float("inf"), 0.1]],
            front_size=1,
            spread=float("inf"),
        )
        snap = status.snapshot()
        entry = snap["hypervolume_series"][0]
        assert entry["hypervolume"] == 0.0
        assert entry["spread"] == 0.0
        assert snap["front"] == [[0.0, 0.1]]
        json.dumps(snap, allow_nan=False)  # strict-JSON safe

    def test_front_capped_at_256_points(self):
        status = CampaignStatus()
        big = np.random.default_rng(0).random((400, 2))
        status.publish_generation(
            generation=0, hypervolume=0.1, front=big, front_size=400
        )
        assert len(status.snapshot()["front"]) == 256

    def test_worker_update_merges_and_timestamps(self):
        status = CampaignStatus()
        status.worker_update("pool-0", state="busy", task="t1")
        status.worker_update("pool-0", state="idle", task=None)
        workers = status.snapshot()["workers"]
        assert workers["pool-0"]["state"] == "idle"
        assert workers["pool-0"]["task"] is None
        assert workers["pool-0"]["updated_ts"] > 0

    def test_mark_done_sets_state_and_finished_ts(self):
        status = CampaignStatus()
        status.mark_done()
        snap = status.snapshot()
        assert snap["state"] == "done"
        assert snap["finished_ts"] >= snap["started_ts"]

    def test_status_carries_service_metadata(self):
        status = CampaignStatus(
            campaign_id="cafe43", tenant="alice", name="exp-1"
        )
        snap = status.snapshot()
        assert status.campaign_id == "cafe43"
        assert snap["tenant"] == "alice"
        assert snap["name"] == "exp-1"


# ----------------------------------------------------------------------
# convergence telemetry
# ----------------------------------------------------------------------
class TestConvergenceTelemetry:
    def _telemetry(self, status=None):
        registry = MetricsRegistry()
        return (
            ConvergenceTelemetry(
                registry=registry, status=status or NULL_STATUS
            ),
            registry,
        )

    def _gauges(self, registry):
        snap = registry.snapshot()
        return {
            k: snap[k]
            for k in (
                "campaign_hypervolume",
                "campaign_front_size",
                "campaign_front_spread",
                "campaign_generation",
            )
        }

    def test_healthy_front_publishes_positive_hypervolume(self):
        telemetry, registry = self._telemetry()
        summary = telemetry.observe_generation(
            3,
            [
                _individual([0.010, 0.10]),
                _individual([0.008, 0.15]),
                _individual([0.015, 0.05]),
            ],
        )
        assert summary["hypervolume"] > 0.0
        assert summary["front_size"] == 3
        gauges = self._gauges(registry)
        assert gauges["campaign_hypervolume"] == pytest.approx(
            summary["hypervolume"]
        )
        assert gauges["campaign_generation"] == 3

    def test_empty_population_is_finite(self):
        telemetry, registry = self._telemetry()
        summary = telemetry.observe_generation(0, [])
        assert summary == {
            "generation": 0,
            "hypervolume": 0.0,
            "front_size": 0,
            "spread": None,
        }
        assert all(
            np.isfinite(v) for v in self._gauges(registry).values()
        )

    def test_single_point_front_spread_is_none(self):
        telemetry, registry = self._telemetry()
        summary = telemetry.observe_generation(
            1, [_individual([0.01, 0.1])]
        )
        assert summary["front_size"] == 1
        assert summary["hypervolume"] > 0.0
        assert summary["spread"] is None  # undefined, never NaN
        assert all(
            np.isfinite(v) for v in self._gauges(registry).values()
        )

    def test_duplicate_objectives_front(self):
        telemetry, registry = self._telemetry()
        summary = telemetry.observe_generation(
            2, [_individual([0.01, 0.1]) for _ in range(4)]
        )
        assert np.isfinite(summary["hypervolume"])
        assert summary["spread"] is None or np.isfinite(
            summary["spread"]
        )
        assert all(
            np.isfinite(v) for v in self._gauges(registry).values()
        )

    def test_all_maxint_population_is_empty_front(self):
        telemetry, registry = self._telemetry()
        summary = telemetry.observe_generation(
            1, [_individual([MAXINT, MAXINT]) for _ in range(3)]
        )
        assert summary["hypervolume"] == 0.0
        assert summary["front_size"] == 0
        assert summary["spread"] is None
        assert all(
            np.isfinite(v) for v in self._gauges(registry).values()
        )

    def test_nonfinite_and_unevaluated_individuals_filtered(self):
        telemetry, _ = self._telemetry()
        unevaluated = Individual(np.zeros(2))  # fitness is None
        summary = telemetry.observe_generation(
            0,
            [
                unevaluated,
                _individual([float("nan"), 0.1]),
                _individual([0.01, 0.1]),
            ],
        )
        assert summary["front_size"] == 1
        assert np.isfinite(summary["hypervolume"])

    def test_publishes_into_status_when_enabled(self):
        status = CampaignStatus()
        telemetry, _ = self._telemetry(status=status)
        telemetry.observe_generation(
            5, [_individual([0.01, 0.1])], evaluated=10
        )
        snap = status.snapshot()
        assert snap["generation"] == 5
        assert snap["evaluated"] == 10
        assert len(snap["hypervolume_series"]) == 1
        assert len(snap["front"]) == 1

    def test_gauges_labeled_by_campaign_id_from_status(self):
        registry = MetricsRegistry()
        status = CampaignStatus(campaign_id="cafe51")
        telemetry = ConvergenceTelemetry(registry=registry, status=status)
        telemetry.observe_generation(2, [_individual([0.01, 0.1])])
        series = registry.snapshot()
        # two concurrent campaigns must not clobber one gauge: every
        # series carries the campaign it belongs to
        assert series['campaign_generation{campaign_id="cafe51"}'] == 2
        assert series['campaign_front_size{campaign_id="cafe51"}'] == 1
        assert series['campaign_hypervolume{campaign_id="cafe51"}'] > 0.0
        assert "campaign_generation" not in series  # no unlabeled twin

    def test_explicit_campaign_id_overrides_status(self):
        registry = MetricsRegistry()
        telemetry = ConvergenceTelemetry(
            registry=registry,
            status=CampaignStatus(campaign_id="from-status"),
            campaign_id="explicit",
        )
        telemetry.observe_generation(1, [_individual([0.01, 0.1])])
        series = registry.snapshot()
        assert 'campaign_generation{campaign_id="explicit"}' in series

    def test_unlabeled_without_campaign_id(self):
        telemetry, registry = self._telemetry()  # NULL_STATUS: no id
        telemetry.observe_generation(1, [_individual([0.01, 0.1])])
        assert "campaign_generation" in registry.snapshot()


# ----------------------------------------------------------------------
# cross-process span ingestion
# ----------------------------------------------------------------------
class TestTracerIngest:
    def _worker_record(self, **overrides):
        rec = {
            "type": "span",
            "id": 0,
            "parent": 999,  # foreign-process id: meaningless here
            "name": "worker.task",
            "mono": 1.0,
            "dur": 0.25,
            "status": "ok",
            "tags": {"worker": "pool-0", "task": "pool-task-7", "pid": 1234},
        }
        rec.update(overrides)
        return rec

    def test_ingest_reassigns_span_id_and_drops_parent(self):
        tracer = Tracer()
        with tracer.span("local"):
            pass
        local_id = tracer.spans("local")[0]["id"]
        tracer.ingest(self._worker_record(id=0))
        tracer.ingest(self._worker_record(id=0, tags={"task": "t2"}))
        ingested = tracer.spans("worker.task")
        assert len(ingested) == 2
        ids = {local_id} | {r["id"] for r in ingested}
        assert len(ids) == 3  # all distinct despite identical inputs
        assert all(r["parent"] is None for r in ingested)

    def test_ingest_preserves_tags_and_timing(self):
        tracer = Tracer()
        tracer.ingest(self._worker_record())
        (rec,) = tracer.spans("worker.task")
        assert rec["tags"]["worker"] == "pool-0"
        assert rec["tags"]["task"] == "pool-task-7"
        assert rec["tags"]["pid"] == 1234
        assert rec["dur"] == pytest.approx(0.25)

    def test_ingest_events_pass_through_without_ids(self):
        tracer = Tracer()
        tracer.ingest(
            {
                "type": "event",
                "name": "worker.fault",
                "mono": 2.0,
                "parent": 5,
                "tags": {"worker": "pool-1"},
            }
        )
        (event,) = tracer.events("worker.fault")
        assert event["parent"] is None

    def test_ingest_sanitizes_nonfinite_tags(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path) as tracer:
            tracer.ingest(
                self._worker_record(
                    tags={"worker": "pool-0", "bad": float("nan")}
                )
            )
        for line in path.read_text().splitlines():
            _strict_loads(line)

    def test_null_tracer_ingest_is_inert(self):
        NULL_TRACER.ingest(self._worker_record())
        assert NULL_TRACER.records == []


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------
class TestObservabilityServer:
    @pytest.fixture()
    def plane(self):
        registry = MetricsRegistry()
        registry.gauge("campaign_hypervolume").set(0.0042)
        registry.counter("engine_completed_total").inc(7)
        status = CampaignStatus(campaign_id="cafe12", mode="generational")
        status.publish_generation(
            generation=2,
            hypervolume=0.0042,
            front=[[0.01, 0.1]],
            front_size=1,
        )
        tracer = Tracer()
        tracer.ingest(
            {
                "type": "span",
                "id": 0,
                "name": "worker.task",
                "mono": 1.0,
                "dur": 0.5,
                "status": "ok",
                "tags": {"worker": "pool-0", "task": "t1"},
            }
        )
        with ObservabilityServer(
            port=0, registry=registry, status=status, tracer=tracer
        ) as server:
            yield server

    def test_ephemeral_port_bound_and_url(self, plane):
        assert plane.port > 0
        assert plane.url == f"http://127.0.0.1:{plane.port}"

    def test_metrics_endpoint_serves_prometheus_text(self, plane):
        code, body = _get(f"{plane.url}/metrics")
        assert code == 200
        assert "# TYPE campaign_hypervolume gauge" in body
        assert "campaign_hypervolume 0.0042" in body
        assert "engine_completed_total 7" in body

    def test_status_endpoint_serves_strict_json(self, plane):
        code, body = _get(f"{plane.url}/status")
        assert code == 200
        snapshot = _strict_loads(body)
        assert snapshot["campaign"] == "cafe12"
        assert snapshot["state"] == "running"
        assert snapshot["hypervolume_series"][0]["hypervolume"] == (
            pytest.approx(0.0042)
        )
        # the live straggler summary from the tracer's records, with
        # the raw numpy arrays stripped
        stragglers = snapshot["stragglers"]
        assert stragglers["n_tasks"] == 1
        assert "task_seconds" not in stragglers
        assert stragglers["slowest"][0]["worker"] == "pool-0"

    def test_healthz_and_404(self, plane):
        code, body = _get(f"{plane.url}/healthz")
        assert code == 200
        assert body == "ok\n"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{plane.url}/nope")
        # the error is the 404 response: close it, and with it the socket
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_status_without_tracer_has_no_stragglers(self):
        with ObservabilityServer(
            port=0,
            registry=MetricsRegistry(),
            status=CampaignStatus(),
            tracer=None,
        ) as server:
            _, body = _get(f"{server.url}/status")
        assert "stragglers" not in _strict_loads(body)


# ----------------------------------------------------------------------
# monitor dashboard
# ----------------------------------------------------------------------
def _dashboard_snapshot() -> dict:
    return {
        "campaign": "cafe13",
        "mode": "generational",
        "state": "running",
        "run": 0,
        "generation": 4,
        "elapsed_s": 12.5,
        "evals_per_sec": 8.0,
        "cache_hit_rate": 0.25,
        "dedup_rate": 0.1,
        "hypervolume_series": [
            {"generation": g, "hypervolume": 0.001 * (g + 1), "front_size": g + 1}
            for g in range(5)
        ],
        "front": [[0.01, 0.1], [0.009, 0.12]],
        "engine": {
            "submitted": 100,
            "completed": 100,
            "fresh": 75,
            "failures": 2,
        },
        "workers": {
            "pool-0": {
                "state": "busy",
                "task": "pool-task-9",
                "tasks_dispatched": 51,
                "respawns": 1,
            },
            "pool-1": {"state": "idle", "task": None, "tasks_dispatched": 49},
        },
        "stragglers": {
            "slowest": [
                {"task": "t9", "worker": "pool-0", "dur_s": 1.5, "status": "ok"}
            ],
            "requeued": 2,
            "pool_worker_deaths": 1,
            "pool_respawns": 1,
        },
    }


class TestMonitorDashboard:
    def test_render_dashboard_sections(self):
        text = _render_dashboard(_dashboard_snapshot())
        assert "campaign cafe13" in text
        assert "state running" in text
        assert "generation 4" in text
        assert "evals/sec 8" in text
        assert "cache-hit 25.0%" in text
        assert "hypervolume" in text
        # monotone series renders a rising sparkline ending at full block
        assert "█" in text
        assert "latest 0.005" in text
        assert "nondominated front: 2 solution(s)" in text
        assert "engine: submitted 100" in text
        assert "pool-0" in text and "pool-1" in text
        assert "requeued: 2  pool deaths: 1  pool respawns: 1" in text

    def test_render_dashboard_minimal_snapshot(self):
        text = _render_dashboard({"state": "running"})
        assert "campaign ?" in text
        assert "hypervolume" not in text
        assert "workers" not in text

    def test_monitor_once_against_live_server(self, capsys):
        status = CampaignStatus(campaign_id="cafe14", mode="steady-state")
        status.publish_generation(
            generation=0, hypervolume=0.003, front=[[0.01, 0.1]], front_size=1
        )
        status.worker_update("pool-0", state="idle", tasks_dispatched=3)
        with ObservabilityServer(
            port=0, registry=MetricsRegistry(), status=status
        ) as server:
            rc = hpo_main(["monitor", server.url, "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign cafe14" in out
        assert "hypervolume" in out
        assert "pool-0" in out

    def test_monitor_normalizes_bare_host_and_status_suffix(self, capsys):
        with ObservabilityServer(
            port=0, registry=MetricsRegistry(), status=CampaignStatus()
        ) as server:
            bare = f"127.0.0.1:{server.port}/status"
            rc = hpo_main(["monitor", bare, "--once"])
        assert rc == 0
        assert "campaign ?" in capsys.readouterr().out

    def test_monitor_unreachable_returns_1(self, capsys):
        # a port from the ephemeral range with nothing listening
        rc = hpo_main(
            [
                "monitor",
                "http://127.0.0.1:1",
                "--once",
                "--timeout",
                "0.5",
            ]
        )
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err
