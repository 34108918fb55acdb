"""Observability overhead: what the live plane costs a pool wave.

The engine, the pool and its workers call the tracer on every task
transition, so instrumentation is only acceptable if it costs a small
fraction of a dispatch-bound wave.  The measure is the pool-backend
path with the *entire live plane on* (file-backed tracer with
cross-process span ingestion, campaign status, and the /metrics +
/status HTTP server running) vs. fully off — the
``pool_obs_overhead_ratio`` metric the CI bench-gate holds below
baseline × tolerance (budget: < 5% overhead on a dispatch-bound wave).

Run standalone (``python benchmarks/bench_obs_overhead.py``) or via
``benchmarks/runner.py``, which writes ``BENCH_obs.json``.
"""

from __future__ import annotations

import time

from repro.obs import MetricsRegistry, Tracer


# ----------------------------------------------------------------------
# machine-readable bench: pool backend with the live plane on vs. off
# ----------------------------------------------------------------------
def _pool_wave_seconds(
    obs: bool, duration: float, n_tasks: int, rounds: int
) -> float:
    """Best-of-``rounds`` wall time of one pool-backend engine batch.

    ``obs=True`` turns the whole plane on: a file-backed tracer (so
    every worker span crosses the pipe and is ingested), a campaign
    status the pool publishes worker liveness into, and a running
    ObservabilityServer — the exact configuration of
    ``repro-hpo run --backend pool --trace ... --serve-metrics``.
    """
    import tempfile
    from contextlib import ExitStack
    from pathlib import Path

    from benchmarks.bench_engine_throughput import (
        SleepProblem,
        _individuals,
    )
    from repro.engine import EvaluationEngine, ProcessPoolBackend
    from repro.obs import (
        CampaignStatus,
        ObservabilityServer,
        use_status,
        use_tracer,
    )

    problem = SleepProblem(duration=duration)
    with ExitStack() as stack:
        registry = MetricsRegistry()
        if obs:
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            tracer = Tracer(
                Path(tmp) / "trace.jsonl", keep_in_memory=True
            )
            stack.callback(tracer.close)
            stack.enter_context(use_tracer(tracer))
            status = CampaignStatus(campaign_id=tracer.campaign_id)
            stack.enter_context(use_status(status))
            server = ObservabilityServer(
                port=0, registry=registry, status=status, tracer=tracer
            )
            server.start()
            stack.callback(server.close)
        # the pool binds the process-wide tracer/status at construction,
        # so it must be built inside the scopes above
        pool = stack.enter_context(
            ProcessPoolBackend(workers=2, metrics=registry)
        )
        engine = EvaluationEngine(
            client=pool, metrics=registry, fault_injector=None
        )
        engine.evaluate(_individuals(problem, 2))  # warm-up
        best = float("inf")
        for _ in range(rounds):
            batch = _individuals(problem, n_tasks)
            t0 = time.perf_counter()
            engine.evaluate(batch)
            best = min(best, time.perf_counter() - t0)
        if obs:
            # the measurement only counts if the plane actually ran:
            # worker spans crossed the pipe and the endpoint is live
            n_worker_spans = len(
                [
                    r
                    for r in tracer.records
                    if r.get("type") == "span"
                    and r.get("name") == "worker.task"
                ]
            )
            assert n_worker_spans >= n_tasks, (
                f"expected >= {n_tasks} ingested worker spans, "
                f"got {n_worker_spans}"
            )
        return best


def run(quick: bool = False) -> dict:
    """Execute the bench; returns the machine-readable report dict."""
    duration = 0.01 if quick else 0.02
    n_tasks = 32 if quick else 96
    rounds = 2 if quick else 3
    off_s = _pool_wave_seconds(False, duration, n_tasks, rounds)
    on_s = _pool_wave_seconds(True, duration, n_tasks, rounds)
    ratio = on_s / off_s
    return {
        "bench": "obs_overhead",
        "quick": quick,
        "task_duration_s": duration,
        "n_tasks": n_tasks,
        "results": {
            "pool_plane_off": {"wall_s": off_s},
            "pool_plane_on": {"wall_s": on_s},
        },
        # same-machine ratio: what the full live plane (tracer +
        # status + HTTP server) costs on a pool-backend wave
        "metrics": {"pool_obs_overhead_ratio": ratio},
    }


def main(argv: list | None = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="BENCH_obs.json")
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    off = report["results"]["pool_plane_off"]["wall_s"]
    on = report["results"]["pool_plane_on"]["wall_s"]
    ratio = report["metrics"]["pool_obs_overhead_ratio"]
    print(
        f"pool wave: plane off {off * 1e3:.1f} ms, "
        f"plane on {on * 1e3:.1f} ms  (ratio {ratio:.3f})"
    )
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
