"""Experiment ``perf-scale`` — §2.2.5's deployment envelope.

* worker failures on the process pool cost re-runs, not results (its
  scaling across workers is gated in ``bench_engine_throughput`` as
  ``pool1/pool4_speedup_vs_inline``);
* the discrete-event simulation shows 7 × 100 trainings fitting the
  12-hour / 100-node allocation, and quantifies the nanny trade-off the
  paper describes.
"""

import numpy as np

from repro.chaos import Fault, FaultPlan
from repro.engine import ProcessPoolBackend
from repro.evo.individual import Individual
from repro.hpc import BatchJob, ClusterSimulation, TrainingRuntimeModel
from repro.injection import use_injector
from repro.obs.metrics import MetricsRegistry
from repro.rng import ensure_rng


class Echo:
    """Picklable one-objective problem: the gene itself."""

    n_objectives = 1

    def evaluate(self, phenome):
        return np.array([float(phenome[0])])


def test_faulty_workers_still_complete(benchmark):
    """Three worker deaths on a six-process pool: each dead worker's
    task is re-run, so all 60 results come back."""

    def run():
        plan = FaultPlan(
            [Fault("worker_death", at=at) for at in (5, 23, 41)]
        )
        registry = MetricsRegistry()
        with use_injector(plan.injector()), ProcessPoolBackend(
            workers=6, metrics=registry
        ) as pool:
            problem = Echo()
            futures = [
                pool.submit(Individual(np.array([float(i)]), problem=problem))
                for i in range(60)
            ]
            out = [int(f.result(timeout=60.0)[0][0]) for f in futures]
        stats = {
            name: registry.counter(f"pool_{name}_total").value
            for name in ("tasks_dispatched", "tasks_requeued", "worker_deaths")
        }
        return out, stats

    out, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"pool stats under faults: {stats}")
    assert out == list(range(60))
    assert stats == {
        "tasks_dispatched": 63,
        "tasks_requeued": 3,
        "worker_deaths": 3,
    }


def test_simulated_campaign_fits_allocation(benchmark):
    """7 generations x 100 trainings on 100 nodes inside 12 hours."""
    rng = ensure_rng(0)
    model = TrainingRuntimeModel(rng=rng)
    workloads = [
        [model.runtime_minutes(r) for r in rng.uniform(6.0, 12.0, 100)]
        for _ in range(7)
    ]

    def simulate():
        sim = ClusterSimulation(
            job=BatchJob(n_nodes=100, walltime_minutes=720.0),
            runtime_model=model,
            rng=1,
        )
        return sim.run_campaign(workloads)

    report = benchmark.pedantic(simulate, rounds=1, iterations=1)
    summary = report.summary()
    print()
    print(f"campaign simulation: {summary}")
    assert not report.walltime_exceeded
    assert report.evaluations_completed == 700
    assert summary["total_hours"] < 12.0


def test_nanny_tradeoff_quantified(benchmark):
    from benchmarks.conftest import once

    once(benchmark, lambda: None)
    """§2.2.5: nannies only help for transient faults; with permanent
    hardware faults they waste restarts.  Compare node retention."""
    rng = ensure_rng(0)
    model = TrainingRuntimeModel(rng=rng)
    workloads = [[50.0] * 50] * 5

    def run(nannies, transient_fraction):
        sim = ClusterSimulation(
            job=BatchJob(n_nodes=50, walltime_minutes=1e6),
            runtime_model=model,
            node_mtbf_minutes=2000.0,
            nannies=nannies,
            transient_fraction=transient_fraction,
            max_retries=10,
            rng=3,
        )
        return sim.run_campaign(workloads)

    no_nanny = run(False, 0.0)
    nanny_transient = run(True, 1.0)
    print()
    print(
        f"nodes lost - no nannies: {no_nanny.nodes_lost}, "
        f"nannies (transient faults): {nanny_transient.nodes_lost}"
    )
    # with fully transient faults nannies recover nodes
    assert nanny_transient.nodes_lost <= no_nanny.nodes_lost
    # either way no evaluation is lost: the scheduler requeues
    assert no_nanny.evaluations_completed == 250
