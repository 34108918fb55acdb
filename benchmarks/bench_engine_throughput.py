"""Experiment ``perf-engine`` — execution-backend throughput.

Measures end-to-end engine throughput (``EvaluationEngine.evaluate``
over a batch of distinct candidates) for the inline backend and the
multiprocessing pool backend at several worker counts, on a
**dispatch-bound** workload: each evaluation sleeps for a fixed
duration, like a training job that parks on a GPU.  A sleep-bound task
makes the measurement honest on any host — a 4-worker pool can
overlap sleeps even on a single-core CI runner, so the speedup
reflects the backend's dispatch machinery, not the machine's core
count.

Pool startup is excluded from the timed region via a warm-up batch;
startup cost is reported separately, ungated, as two numbers: a fresh
2-worker pool to its first result (``pool_start_s``: the first pool of
the process, so it includes starting the forkserver and its preload),
and a SIGKILLed idle worker to the next chunk's result
(``pool_respawn_s``: one worker's start from the warm server).

Run standalone (``python benchmarks/bench_engine_throughput.py``) or
via ``benchmarks/runner.py``, which writes ``BENCH_engine.json`` and
gates CI on the ``pool4_speedup_vs_inline`` metric.
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

# module-level so the class is importable by pool workers
POOL_WORKER_COUNTS = (1, 4)


class SleepProblem:
    """A problem whose cost is pure wall-clock: sleep, then return a
    deterministic fitness derived from the phenome (so every backend
    returns bit-identical results)."""

    n_objectives = 2

    def __init__(self, duration: float = 0.02) -> None:
        self.duration = float(duration)

    def evaluate(self, phenome: Any) -> np.ndarray:
        time.sleep(self.duration)
        g = np.atleast_1d(np.asarray(phenome, dtype=np.float64))
        return np.array([float(np.sum(g)), float(np.sum(g * g))])


def _individuals(problem: SleepProblem, n: int) -> list[Any]:
    from repro.evo.individual import Individual

    rng = np.random.default_rng(1234)
    # distinct genomes: nothing collapses onto the dedup path
    return [Individual(rng.normal(size=3), problem=problem) for _ in range(n)]


def _measure(client: Any, problem: SleepProblem, n_tasks: int) -> dict:
    from repro.engine import EvaluationEngine
    from repro.obs.metrics import MetricsRegistry

    engine = EvaluationEngine(
        client=client, metrics=MetricsRegistry(), fault_injector=None
    )
    # warm-up: first dispatch pays lazy costs (pool pipes, imports)
    engine.evaluate(_individuals(problem, 2))
    # snapshot after warm-up so the reported counters cover only the
    # timed batch (the warm-up's 2 evaluations are excluded)
    before = engine.stats.copy()
    batch = _individuals(problem, n_tasks)
    t0 = time.perf_counter()
    done = engine.evaluate(batch)
    wall = time.perf_counter() - t0
    assert len(done) == n_tasks
    assert all(ind.fitness is not None for ind in done)
    return {
        "wall_s": wall,
        "evals_per_sec": n_tasks / wall,
        "fresh": engine.stats.fresh - before.fresh,
    }


def _measure_startup(problem: SleepProblem) -> dict:
    """Seconds from a fresh 2-worker pool to its first result, and from
    SIGKILLing a 1-worker pool's idle worker to the next chunk's result
    (which only its successor can serve)."""
    from repro.engine import ProcessPoolBackend

    t0 = time.perf_counter()
    with ProcessPoolBackend(workers=2) as pool:
        pool.submit_batch(_individuals(problem, 1)).result(120)
        start = time.perf_counter() - t0
    with ProcessPoolBackend(workers=1) as pool:
        pool.submit_batch(_individuals(problem, 1)).result(120)
        worker = pool._workers["pool-0"].process
        worker.kill()
        worker.join()
        t0 = time.perf_counter()
        pool.submit_batch(_individuals(problem, 1)).result(120)
        respawn = time.perf_counter() - t0
    return {"pool_start_s": start, "pool_respawn_s": respawn}


def _measure_fleet(
    problem: SleepProblem, n_tasks: int, revoke: bool
) -> dict:
    """Time a sleep-bound batch through a 2-worker pool with the fleet
    policy on, as ``--backend fleet`` runs it (ceiling: the initial 2
    workers).  With ``revoke`` one worker is preempted right after
    dispatch, so the run pays the full requeue path: bury the in-flight
    chunk, replay it on the survivor, go on at half the capacity until
    a sustained backlog regrows the pool."""
    from repro.engine import EvaluationEngine, ProcessPoolBackend
    from repro.obs.metrics import MetricsRegistry

    with ProcessPoolBackend(workers=2, max_workers=2) as pool:
        engine = EvaluationEngine(
            client=pool, metrics=MetricsRegistry(), fault_injector=None
        )
        engine.evaluate(_individuals(problem, 2))  # warm-up
        batch = _individuals(problem, n_tasks)
        t0 = time.perf_counter()
        for ind in batch:
            engine.submit(ind)
        if revoke:
            pool.revoke_worker()
        done: list[Any] = []
        while engine.has_pending():
            done.extend(engine.wait_any(timeout=120))
        wall = time.perf_counter() - t0
    assert len(done) == n_tasks
    assert all(ind.fitness is not None for ind in done)
    return {"wall_s": wall, "evals_per_sec": n_tasks / wall}


def _surrogate_individuals(problem: Any, n: int) -> list[Any]:
    from repro.evo.individual import RobustIndividual
    from repro.hpo.representation import DeepMDRepresentation

    rep = DeepMDRepresentation
    rng = np.random.default_rng(4321)
    decoder = rep.decoder()
    out = []
    for _ in range(n):
        genome = rng.uniform(rep.init_ranges[:, 0], rep.init_ranges[:, 1])
        ind = RobustIndividual(genome, decoder=decoder, problem=problem)
        ind.n_objectives = problem.n_objectives
        out.append(ind)
    return out


def _measure_surrogate(n_tasks: int, mode: str) -> dict:
    """Inline engine over the vectorized surrogate: ``scalar`` submits
    one task per individual, ``batch`` the whole population as one
    chunk.  Inline, both reach the problem as one NumPy evaluation (the
    backend runs its queued chunks as one wave), so what separates them
    is the engine's per-chunk bookkeeping."""
    from repro.engine import EvaluationEngine
    from repro.hpo.landscape import SurrogateDeepMDProblem
    from repro.obs.metrics import MetricsRegistry

    problem = SurrogateDeepMDProblem(seed=99)
    engine = EvaluationEngine(metrics=MetricsRegistry(), fault_injector=None)
    # warm-up both paths (imports, first-call caches)
    engine.evaluate(_surrogate_individuals(problem, 2))
    engine.evaluate_batch(_surrogate_individuals(problem, 2))
    before = engine.stats.copy()
    batch = _surrogate_individuals(problem, n_tasks)
    t0 = time.perf_counter()
    if mode == "batch":
        done = engine.evaluate_batch(batch)
    else:
        done = engine.evaluate(batch)
    wall = time.perf_counter() - t0
    assert len(done) == n_tasks
    assert all(ind.fitness is not None for ind in done)
    return {
        "wall_s": wall,
        "evals_per_sec": n_tasks / wall,
        "fresh": engine.stats.fresh - before.fresh,
    }


def run(quick: bool = False) -> dict:
    """Execute the bench; returns the machine-readable report dict."""
    from repro.engine import ProcessPoolBackend

    duration = 0.02 if quick else 0.05
    n_tasks = 48 if quick else 96
    problem = SleepProblem(duration=duration)
    # first: the process's first pool is the one that starts the server
    start_cost = _measure_startup(SleepProblem(duration=0.0))

    results: dict[str, dict] = {}
    results["inline"] = _measure(None, problem, n_tasks)
    inline_eps = results["inline"]["evals_per_sec"]

    for workers in POOL_WORKER_COUNTS:
        t0 = time.perf_counter()
        with ProcessPoolBackend(workers=workers) as pool:
            startup = time.perf_counter() - t0
            entry = _measure(pool, problem, n_tasks)
        entry["startup_s"] = startup
        entry["speedup_vs_inline"] = entry["evals_per_sec"] / inline_eps
        results[f"pool_{workers}"] = entry

    # fleet requeue path: same sleep-bound batch through the pool's
    # fleet policy, clean vs one spot-style preemption mid-flight.  The
    # ratio bounds the cost of losing a worker: it folds in both the
    # replay of the buried chunk and running on reduced capacity, so a
    # clean fleet keeps it near 1 and anything pathological in the
    # requeue machinery (storms, stalls, duplicate dispatch) blows it
    # past the ceiling.
    results["fleet_clean"] = _measure_fleet(problem, n_tasks, revoke=False)
    results["fleet_revoked"] = _measure_fleet(problem, n_tasks, revoke=True)
    results["fleet_revoked"]["requeue_overhead_ratio"] = (
        results["fleet_revoked"]["wall_s"]
        / results["fleet_clean"]["wall_s"]
    )

    # batch data plane: vectorized surrogate, chunks of one vs one
    # chunk (compute-bound, not sleep-bound).  The ratio is a ceiling:
    # chunks of one cost only their bookkeeping while the inline
    # backend runs them as one problem call, and ~8x if each chunk
    # entered the problem on its own again
    n_surrogate = 2048  # large enough to amortize per-batch overhead
    results["batch_scalar"] = _measure_surrogate(n_surrogate, "scalar")
    results["batch_vectorized"] = _measure_surrogate(n_surrogate, "batch")
    results["batch_scalar"]["chunk1_vs_batch"] = (
        results["batch_scalar"]["wall_s"]
        / results["batch_vectorized"]["wall_s"]
    )
    results["batch_vectorized"]["n_tasks"] = n_surrogate
    results["batch_scalar"]["n_tasks"] = n_surrogate

    return {
        "bench": "engine_throughput",
        "quick": quick,
        "task_duration_s": duration,
        "n_tasks": n_tasks,
        "startup": start_cost,
        "results": results,
        # the gateable metrics: same-machine ratios, robust to CI
        # hardware differences (absolute evals/sec is informational)
        "metrics": {
            "pool4_speedup_vs_inline": results["pool_4"][
                "speedup_vs_inline"
            ],
            "pool1_speedup_vs_inline": results["pool_1"][
                "speedup_vs_inline"
            ],
            "inline_chunk1_vs_batch": results["batch_scalar"][
                "chunk1_vs_batch"
            ],
            "fleet_requeue_overhead": results["fleet_revoked"][
                "requeue_overhead_ratio"
            ],
        },
    }


def main(argv: Optional[list] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="BENCH_engine.json")
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    for name, entry in report["results"].items():
        speed = entry.get("speedup_vs_inline")
        extra = f"  ({speed:.2f}x vs inline)" if speed else ""
        print(
            f"{name:10s} {entry['wall_s']:7.2f} s  "
            f"{entry['evals_per_sec']:7.1f} evals/s{extra}"
        )
    for name, seconds in report["startup"].items():
        print(f"{name:14s} {seconds:7.3f} s")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
