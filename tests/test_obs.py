"""Tests for the observability stack: tracer, metrics registry,
journal strictness, and the trace report.

The integration tests run a real traced
:class:`~repro.engine.ProcessPoolBackend`.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro.engine import ProcessPoolBackend
from repro.evo.individual import Individual
from repro.hpo.cli import main as hpo_main
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    escape_label_value,
    get_tracer,
    read_trace,
    render_trace_report,
    set_tracer,
    use_tracer,
)
from repro.obs.report import (
    straggler_summary,
    wallclock_breakdown,
    worker_utilization,
)


def _strict_loads(line: str) -> dict:
    """Parse one journal/trace line rejecting NaN/Infinity tokens."""

    def _reject(token: str):
        raise ValueError(f"non-strict JSON token: {token}")

    return json.loads(line, parse_constant=_reject)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_fields(self):
        tracer = Tracer()
        with tracer.span("phase", worker="w0") as span:
            span.tag(extra=1)
        (rec,) = tracer.spans("phase")
        assert rec["type"] == "span"
        assert rec["status"] == "ok"
        assert rec["dur"] >= 0.0
        assert rec["parent"] is None
        assert rec["tags"] == {"worker": "w0", "extra": 1}

    def test_nested_spans_link_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            tracer.event("mid")
        inner = tracer.spans("inner")[0]
        outer = tracer.spans("outer")[0]
        event = tracer.events("mid")[0]
        assert inner["parent"] == outer["id"]
        assert event["parent"] == outer["id"]
        assert outer["parent"] is None

    def test_exception_marks_err_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("no")
        (rec,) = tracer.spans("boom")
        assert rec["status"] == "err"
        assert rec["tags"]["error"] == "RuntimeError"

    def test_threads_get_their_own_roots(self):
        tracer = Tracer()

        def in_thread():
            with tracer.span("thread-root"):
                pass

        with tracer.span("main-root"):
            t = threading.Thread(target=in_thread)
            t.start()
            t.join()
        assert tracer.spans("thread-root")[0]["parent"] is None

    def test_file_lines_are_strict_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path, campaign_id="cafe01") as tracer:
            tracer.event("has-nan", value=float("nan"), inf=float("inf"))
            with tracer.span("s", arr=np.float64("nan")):
                pass
        lines = path.read_text().splitlines()
        records = [_strict_loads(line) for line in lines]
        assert records[0] == pytest.approx(records[0])  # parsed at all
        assert records[0]["campaign"] == "cafe01"
        event = next(r for r in records if r["name"] == "has-nan")
        assert event["tags"]["value"] is None
        assert event["tags"]["inf"] is None
        span = next(r for r in records if r["name"] == "s")
        assert span["tags"]["arr"] is None

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path) as tracer:
            tracer.event("ok")
        with path.open("a") as fh:
            fh.write('{"type": "event", "name"')  # killed mid-write
        records = read_trace(path)
        assert [r["name"] for r in records] == ["trace.start", "ok"]

    def test_keep_in_memory_false_still_streams(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path, keep_in_memory=False) as tracer:
            tracer.event("streamed")
            assert tracer.records == []
        assert any(r["name"] == "streamed" for r in read_trace(path))

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", k=1) as span:
            span.tag(more=2)
        NULL_TRACER.event("anything")
        assert NULL_TRACER.records == []

    def test_use_tracer_scopes_the_global(self):
        tracer = Tracer()
        before = get_tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_set_tracer_none_restores_null(self):
        previous = set_tracer(Tracer())
        try:
            assert get_tracer().enabled
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER or not get_tracer().enabled
        set_tracer(previous)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_unit_and_bulk(self):
        c = MetricsRegistry().counter("c")
        c.inc()
        c.inc()
        c.inc(3.5)
        assert c.value == pytest.approx(5.5)

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_counter_threaded_increments_all_land(self):
        c = MetricsRegistry().counter("c")
        n, per = 8, 5000

        def bump():
            for _ in range(per):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n * per

    def test_gauge_inc_dec_set(self):
        g = MetricsRegistry().gauge("g")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1.0
        g.set(10.0)
        assert g.value == 10.0
        g.inc(2.5)
        assert g.value == 12.5

    def test_gauge_counts_every_tick_after_a_set(self):
        """``set`` swaps in fresh tick counters; unit moves from many
        threads after it must all land on them."""
        g = MetricsRegistry().gauge("g")
        g.inc()
        g.set(3.0)
        per = 3000
        # four raise, four lower, one more raises
        steps = [g.inc, g.dec] * 4 + [g.inc]
        barrier = threading.Barrier(len(steps))

        def move(step):
            barrier.wait()
            for _ in range(per):
                step()

        threads = [threading.Thread(target=move, args=(s,)) for s in steps]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert g.value == 3.0 + per
        g.set(-1.5)
        assert g.value == -1.5

    def test_histogram_buckets_and_quantile(self):
        h = MetricsRegistry().histogram("h", buckets=[0.1, 1.0, 10.0])
        for v in (0.05, 0.5, 0.5, 5.0, 100.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(106.05)
        summary = h.summary()
        assert summary["buckets"] == {
            "0.1": 1,
            "1.0": 2,
            "10.0": 1,
            "+Inf": 1,
        }
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 10.0  # +Inf tail reports last bound

    def test_registry_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        assert reg.names() == ["x"]

    def test_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2.0)
        reg.histogram("c").observe(0.5)
        snap = reg.snapshot()
        assert snap["a"] == 1.0
        assert snap["b"] == 2.0
        assert snap["c"]["count"] == 1

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("tasks_total").inc(2)
        reg.gauge("busy").set(1)
        reg.histogram("wait.seconds", buckets=[1.0]).observe(0.5)
        text = reg.to_prometheus()
        assert "# TYPE tasks_total counter" in text
        assert "tasks_total 2" in text
        assert "# TYPE busy gauge" in text
        # dots sanitized, cumulative buckets with +Inf, sum and count
        assert 'wait_seconds_bucket{le="1"} 1' in text
        assert 'wait_seconds_bucket{le="+Inf"} 1' in text
        assert "wait_seconds_count 1" in text
        assert text.endswith("\n")


class TestPrometheusHardening:
    """The exporter must survive hostile label values and reject
    malformed names loudly at the instrumentation site."""

    def test_escape_label_value_reserved_characters(self):
        assert escape_label_value("plain") == "plain"
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("two\nlines") == "two\\nlines"
        # order matters: the backslash introduced by the quote escape
        # must not itself be re-escaped
        assert escape_label_value('\\"') == '\\\\\\"'
        # non-strings are coerced, UTF-8 passes through untouched
        assert escape_label_value(7) == "7"
        assert escape_label_value("héhé") == "héhé"

    def test_labeled_series_render_sorted_and_escaped(self):
        reg = MetricsRegistry()
        reg.counter(
            "evals_total", labels={"worker": "pool-0", "mode": "gen"}
        ).inc(3)
        text = reg.to_prometheus()
        # label names sort alphabetically regardless of insert order
        assert 'evals_total{mode="gen",worker="pool-0"} 3' in text

    def test_hostile_label_values_survive_export(self):
        reg = MetricsRegistry()
        hostile = 'a\\b "quoted"\nnewline'
        reg.gauge("g", labels={"task": hostile}).set(1)
        text = reg.to_prometheus()
        line = next(
            li for li in text.splitlines() if li.startswith("g{")
        )
        assert "\n" not in line  # the raw newline never leaks
        assert 'task="a\\\\b \\"quoted\\"\\nnewline"' in line

    def test_invalid_metric_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid Prometheus metric"):
            reg.counter("0leading_digit")
        with pytest.raises(ValueError, match="invalid Prometheus metric"):
            reg.gauge("has space")
        with pytest.raises(ValueError, match="invalid Prometheus metric"):
            reg.histogram("sneaky\nname")

    def test_invalid_label_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid Prometheus label"):
            reg.counter("ok", labels={"bad-dash": "v"})
        with pytest.raises(ValueError, match="invalid Prometheus label"):
            reg.gauge("ok", labels={"has:colon": "v"})

    def test_label_sets_are_distinct_series_sharing_one_type_header(self):
        reg = MetricsRegistry()
        reg.counter("tasks_total", labels={"worker": "pool-0"}).inc()
        reg.counter("tasks_total", labels={"worker": "pool-1"}).inc(2)
        # same name + same labels re-fetches the same instrument
        again = reg.counter("tasks_total", labels={"worker": "pool-0"})
        again.inc()
        text = reg.to_prometheus()
        assert text.count("# TYPE tasks_total counter") == 1
        assert 'tasks_total{worker="pool-0"} 2' in text
        assert 'tasks_total{worker="pool-1"} 2' in text

    def test_labeled_histogram_merges_le_with_labels(self):
        reg = MetricsRegistry()
        h = reg.histogram(
            "run_seconds", buckets=[1.0], labels={"worker": "pool-0"}
        )
        h.observe(0.5)
        h.observe(5.0)
        text = reg.to_prometheus()
        assert 'run_seconds_bucket{worker="pool-0",le="1"} 1' in text
        assert 'run_seconds_bucket{worker="pool-0",le="+Inf"} 2' in text
        assert 'run_seconds_sum{worker="pool-0"} 5.5' in text
        assert 'run_seconds_count{worker="pool-0"} 2' in text

    def test_snapshot_keys_include_label_sets(self):
        reg = MetricsRegistry()
        reg.gauge("depth", labels={"queue": "main"}).set(4)
        snap = reg.snapshot()
        assert snap['depth{queue="main"}'] == 4.0


# ----------------------------------------------------------------------
# a traced pool
# ----------------------------------------------------------------------
class Doubler:
    """Picklable one-objective problem: twice the single gene."""

    n_objectives = 1

    def evaluate(self, phenome):
        return np.array([2.0 * float(phenome[0])])


def _traced_pool_run(tracer, n_tasks, registry=None):
    """``n_tasks`` scalar submissions through a traced 2-worker pool."""
    with ProcessPoolBackend(
        workers=2, tracer=tracer, metrics=registry or MetricsRegistry()
    ) as pool:
        problem = Doubler()
        futures = [
            pool.submit(Individual(np.array([float(i)]), problem=problem))
            for i in range(n_tasks)
        ]
        return [future.result(timeout=60.0) for future in futures]


class TestTracedPoolConcurrency:
    def test_counts_consistent_under_concurrency(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        n_tasks = 100
        slots = _traced_pool_run(tracer, n_tasks, registry)
        assert [float(fitness[0]) for fitness, _ in slots] == [
            2.0 * i for i in range(n_tasks)
        ]
        task_spans = tracer.spans("worker.task")
        assert len(task_spans) == n_tasks
        # submit events precede each task's execution span
        submit_at = {
            e["tags"]["task"]: e["mono"]
            for e in tracer.events("task.submit")
        }
        assert len(submit_at) == n_tasks
        assert len(tracer.events("task.done")) == n_tasks
        for span in task_spans:
            assert span["mono"] >= submit_at[span["tags"]["task"]]
        # the dispatch counter agrees with the trace
        dispatched = registry.counter("pool_tasks_dispatched_total")
        assert dispatched.value == n_tasks
        # the busy gauge returned to idle
        assert registry.gauge("pool_busy_workers").value == 0


# ----------------------------------------------------------------------
# trace report + CLI
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pool_trace(tmp_path_factory):
    """A real trace captured from a traced process-pool run."""
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    tracer = Tracer(path, campaign_id="cafe03")
    _traced_pool_run(tracer, 20)
    tracer.close()
    return path


class TestTraceReport:
    def test_breakdown_and_utilization(self, pool_trace):
        records = read_trace(pool_trace)
        breakdown = wallclock_breakdown(records)
        assert any(r["span"] == "worker.task" for r in breakdown)
        task_row = next(r for r in breakdown if r["span"] == "worker.task")
        assert task_row["count"] == 20
        utilization = worker_utilization(records)
        # tiny tasks: one worker may drain the queue before the other
        # starts, but every executed task is attributed to a real worker
        assert utilization
        assert {r["worker"] for r in utilization} <= {"pool-0", "pool-1"}
        assert sum(r["tasks"] for r in utilization) == 20

    def test_straggler_summary_joins_submit_to_span(self, pool_trace):
        summary = straggler_summary(read_trace(pool_trace), top=3)
        assert summary["n_tasks"] == 20
        assert len(summary["queue_waits"]) == 20
        assert len(summary["slowest"]) == 3
        assert summary["retries"] == 0

    def test_render_contains_all_sections(self, pool_trace):
        text = render_trace_report(read_trace(pool_trace))
        assert "campaign cafe03" in text
        assert "wall-clock breakdown by span" in text
        assert "worker utilization" in text
        assert "slowest tasks" in text
        assert "task run-time distribution" in text

    def test_cli_trace_subcommand(self, pool_trace, capsys):
        assert hpo_main(["trace", str(pool_trace), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "worker utilization" in out

    def test_cli_trace_missing_file(self, tmp_path, capsys):
        assert hpo_main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "not found" in capsys.readouterr().err


def _task_span(task, worker, mono=1.0, dur=0.1, status="ok"):
    return {
        "type": "span",
        "name": "worker.task",
        "mono": mono,
        "dur": dur,
        "status": status,
        "tags": {"task": task, "worker": worker},
    }


def _trace_event(name, mono=0.0, **tags):
    return {"type": "event", "name": name, "mono": mono, "tags": tags}


class TestPoolFaultLedger:
    """The pool backend's fault events must surface in the report —
    otherwise pool campaigns silently under-report their faults."""

    def _records(self):
        return [
            _trace_event("task.submit", mono=0.5, task="pool-task-1"),
            _trace_event("task.submit", mono=0.6, task="pool-task-2"),
            _task_span("pool-task-1", "pool-0", mono=1.0),
            _task_span("pool-task-2", "pool-1", mono=1.1),
            _trace_event("pool.worker_death", mono=2.0, worker="pool-0"),
            _trace_event(
                "pool.worker_respawn", mono=2.1, worker="pool-0"
            ),
            _trace_event("pool.worker_death", mono=3.0, worker="pool-1"),
            _trace_event(
                "pool.worker_respawn", mono=3.1, worker="pool-1"
            ),
            _trace_event(
                "pool.deadline_kill", mono=4.0, task="pool-task-2"
            ),
            _trace_event("task.requeued", mono=4.1, task="pool-task-2"),
        ]

    def test_straggler_summary_counts_pool_events(self):
        summary = straggler_summary(self._records())
        assert summary["pool_worker_deaths"] == 2
        assert summary["pool_respawns"] == 2
        assert summary["pool_deadline_kills"] == 1
        assert summary["requeued"] == 1

    def test_render_shows_pool_line_when_nonzero(self):
        text = render_trace_report(self._records())
        assert "pool: worker deaths: 2  respawns: 2  deadline kills: 1" in text
        assert "requeued: 1" in text

    def test_render_omits_pool_line_when_clean(self):
        clean = [
            _trace_event("task.submit", mono=0.5, task="t1"),
            _task_span("t1", "pool-0"),
            _task_span("t2", "pool-1"),
        ]
        summary = straggler_summary(clean)
        assert summary["pool_worker_deaths"] == 0
        assert summary["pool_respawns"] == 0
        assert summary["pool_deadline_kills"] == 0
        assert "pool: worker deaths" not in render_trace_report(clean)


class TestCampaignTraceEndToEnd:
    def test_campaign_cli_writes_renderable_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "campaign-trace.jsonl"
        rc = hpo_main(
            [
                "campaign",
                "--runs",
                "1",
                "--pop-size",
                "10",
                "--generations",
                "2",
                "--seed",
                "7",
                "--trace",
                str(trace_path),
            ]
        )
        assert rc == 0
        assert "repro-hpo trace" in capsys.readouterr().out
        records = read_trace(trace_path)
        # every line is strict JSON
        for line in trace_path.read_text().splitlines():
            _strict_loads(line)
        names = {r["name"] for r in records}
        assert "campaign.run" in names
        assert "ea.generation" in names
        gens = [r for r in records if r.get("name") == "ea.generation"]
        assert len(gens) == 3  # init + 2 generations
        assert hpo_main(["trace", str(trace_path)]) == 0
        assert "wall-clock breakdown" in capsys.readouterr().out
