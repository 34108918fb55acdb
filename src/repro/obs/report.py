"""Post-hoc analysis of a trace file: where did the wall-clock go?

Turns the flat span/event stream of :mod:`repro.obs.trace` into the
three operational views §2.2.5 needed on Summit:

* a **wall-clock breakdown** — time per span name, so a campaign can
  see at a glance whether generations, trainings, or dispatch
  dominated;
* a **worker-utilization table** — busy seconds per worker against the
  trace's wall span, exposing the evaluation-time imbalance that
  related EA work identifies as the main scaling loss;
* a **straggler / retry summary** — the slowest tasks, the queue-wait
  picture, and every fault-driven retry or stranding.

Rendering reuses :func:`repro.analysis.report.format_table` and
:func:`repro.analysis.asciiplot.ascii_histogram` so the CLI output
matches the rest of the reproduction's reporting.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional, Sequence

import numpy as np

from repro.obs.trace import read_trace  # noqa: F401  (re-exported)

#: span name the workers use for task execution
TASK_SPAN = "worker.task"


def _spans(records: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    return [r for r in records if r.get("type") == "span"]


def _events(records: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    return [r for r in records if r.get("type") == "event"]


def trace_wall_seconds(records: Sequence[dict[str, Any]]) -> float:
    """Wall-clock span of the whole trace (first record to last end)."""
    starts = [r["mono"] for r in records if "mono" in r]
    ends = [
        r["mono"] + r.get("dur", 0.0) for r in records if "mono" in r
    ]
    if not starts:
        return 0.0
    return max(ends) - min(starts)


def wallclock_breakdown(
    records: Sequence[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Per-span-name totals, sorted by total time descending.

    Spans nest, so shares can sum past 100% — the table answers "how
    much wall-clock passed inside spans of this name", not an
    exclusive-time accounting.
    """
    wall = trace_wall_seconds(records)
    grouped: dict[str, list[float]] = defaultdict(list)
    errors: dict[str, int] = defaultdict(int)
    for span in _spans(records):
        grouped[span["name"]].append(float(span.get("dur", 0.0)))
        if span.get("status") == "err":
            errors[span["name"]] += 1
    rows = []
    for name, durs in grouped.items():
        arr = np.asarray(durs)
        rows.append(
            {
                "span": name,
                "count": len(durs),
                "total_s": round(float(arr.sum()), 6),
                "mean_s": round(float(arr.mean()), 6),
                "max_s": round(float(arr.max()), 6),
                "share_%": round(
                    100.0 * float(arr.sum()) / wall if wall else 0.0, 1
                ),
                "errors": errors[name],
            }
        )
    rows.sort(key=lambda r: -r["total_s"])
    return rows


def worker_utilization(
    records: Sequence[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Busy time per worker (from ``worker.task`` spans) against the
    trace wall span."""
    wall = trace_wall_seconds(records)
    busy: dict[str, float] = defaultdict(float)
    tasks: dict[str, int] = defaultdict(int)
    errs: dict[str, int] = defaultdict(int)
    for span in _spans(records):
        if span["name"] != TASK_SPAN:
            continue
        worker = str(span.get("tags", {}).get("worker", "?"))
        busy[worker] += float(span.get("dur", 0.0))
        tasks[worker] += 1
        if span.get("status") == "err":
            errs[worker] += 1
    rows = []
    for worker in sorted(busy):
        rows.append(
            {
                "worker": worker,
                "tasks": tasks[worker],
                "busy_s": round(busy[worker], 6),
                "util_%": round(
                    100.0 * busy[worker] / wall if wall else 0.0, 1
                ),
                "errors": errs[worker],
            }
        )
    return rows


def straggler_summary(
    records: Sequence[dict[str, Any]], top: int = 5
) -> dict[str, Any]:
    """Slowest tasks, queue-wait stats, and the retry/fault ledger."""
    task_spans = [s for s in _spans(records) if s["name"] == TASK_SPAN]
    durations = np.asarray(
        [float(s.get("dur", 0.0)) for s in task_spans]
    )
    slowest = sorted(
        task_spans, key=lambda s: -float(s.get("dur", 0.0))
    )[:top]
    # queue wait: task.submit event time -> first execution span start
    submit_at: dict[str, float] = {}
    for ev in _events(records):
        if ev["name"] == "task.submit":
            key = str(ev.get("tags", {}).get("task"))
            submit_at.setdefault(key, float(ev["mono"]))
    waits = []
    for span in task_spans:
        key = str(span.get("tags", {}).get("task"))
        if key in submit_at:
            waits.append(max(0.0, float(span["mono"]) - submit_at[key]))
    events = _events(records)
    counts = {
        "retries": sum(1 for e in events if e["name"] == "task.retry"),
        "requeued": sum(
            1 for e in events if e["name"] == "task.requeued"
        ),
        "abandoned": sum(
            1 for e in events if e["name"] == "task.abandoned"
        ),
        "stranded": sum(
            int(e.get("tags", {}).get("count", 1))
            for e in events
            if e["name"] == "task.stranded"
        ),
        "worker_faults": sum(
            1 for e in events if e["name"] == "worker.fault"
        ),
        "node_failures": sum(
            1 for e in events if e["name"] == "sim.node_failure"
        ),
        # pool-backend fault path (PR 6 records these; the report must
        # surface them or pool campaigns under-report their faults)
        "pool_worker_deaths": sum(
            1 for e in events if e["name"] == "pool.worker_death"
        ),
        "pool_respawns": sum(
            1 for e in events if e["name"] == "pool.worker_respawn"
        ),
        "pool_deadline_kills": sum(
            1 for e in events if e["name"] == "pool.deadline_kill"
        ),
    }
    return {
        "n_tasks": len(task_spans),
        "task_seconds": durations,
        "mean_task_s": float(durations.mean()) if len(durations) else 0.0,
        "max_task_s": float(durations.max()) if len(durations) else 0.0,
        "queue_waits": np.asarray(waits),
        "mean_wait_s": float(np.mean(waits)) if waits else 0.0,
        "max_wait_s": float(np.max(waits)) if waits else 0.0,
        "slowest": [
            {
                "task": str(s.get("tags", {}).get("task", "?")),
                "worker": str(s.get("tags", {}).get("worker", "?")),
                "dur_s": round(float(s.get("dur", 0.0)), 6),
                "status": s.get("status", "ok"),
            }
            for s in slowest
        ],
        **counts,
    }


def render_trace_report(
    records: Sequence[dict[str, Any]],
    top: int = 5,
    histogram_bins: int = 12,
) -> str:
    """The full plain-text report the ``repro-hpo trace`` CLI prints."""
    from repro.analysis.asciiplot import ascii_histogram
    from repro.analysis.report import format_table

    lines: list[str] = []
    campaign = next(
        (r.get("campaign") for r in records if r.get("campaign")), None
    )
    wall = trace_wall_seconds(records)
    n_spans = len(_spans(records))
    n_events = len(_events(records))
    header = (
        f"trace: {n_spans} spans, {n_events} events, "
        f"wall {wall:.3f}s"
    )
    if campaign:
        header += f", campaign {campaign}"
    lines.append(header)

    breakdown = wallclock_breakdown(records)
    if breakdown:
        lines.append("")
        lines.append(
            format_table(breakdown, title="wall-clock breakdown by span")
        )

    utilization = worker_utilization(records)
    if utilization:
        lines.append("")
        lines.append(
            format_table(utilization, title="worker utilization")
        )

    stragglers = straggler_summary(records, top=top)
    if stragglers["n_tasks"]:
        lines.append("")
        lines.append(
            f"tasks: {stragglers['n_tasks']}  "
            f"mean {stragglers['mean_task_s']:.4f}s  "
            f"max {stragglers['max_task_s']:.4f}s  "
            f"mean queue wait {stragglers['mean_wait_s']:.4f}s"
        )
        lines.append(
            f"retries: {stragglers['retries']}  "
            f"requeued: {stragglers['requeued']}  "
            f"abandoned: {stragglers['abandoned']}  "
            f"stranded: {stragglers['stranded']}  "
            f"worker faults: {stragglers['worker_faults']}"
        )
        if (
            stragglers["pool_worker_deaths"]
            or stragglers["pool_respawns"]
            or stragglers["pool_deadline_kills"]
        ):
            lines.append(
                f"pool: worker deaths: "
                f"{stragglers['pool_worker_deaths']}  "
                f"respawns: {stragglers['pool_respawns']}  "
                f"deadline kills: {stragglers['pool_deadline_kills']}"
            )
        lines.append("")
        lines.append(
            format_table(stragglers["slowest"], title="slowest tasks")
        )
        if len(stragglers["task_seconds"]) >= 2:
            lines.append("")
            lines.append(
                ascii_histogram(
                    stragglers["task_seconds"],
                    bins=histogram_bins,
                    label="task run-time distribution (s)",
                )
            )
    elif stragglers["node_failures"]:
        lines.append("")
        lines.append(
            f"simulated node failures: {stragglers['node_failures']}"
        )
    return "\n".join(lines)


def report_from_file(path, top: int = 5) -> str:
    """Convenience: :func:`read_trace` + :func:`render_trace_report`."""
    return render_trace_report(read_trace(path), top=top)
