#!/usr/bin/env python
"""The Summit deployment mechanics (§2.2.5), demonstrated.

Two views of the same operational questions:

1. **Live executor** — run an evaluation wave over the process pool
   with injected node failures, and watch each dead worker's task be
   re-run so the wave completes.
2. **Discrete-event campaign simulation** — place the paper's full
   workload (7 generations x 100 trainings on 100 nodes, 12-hour
   walltime) on the simulated machine and report the envelope.

Run:  python examples/fault_tolerant_cluster.py
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.chaos import Fault, FaultPlan
from repro.engine import ProcessPoolBackend
from repro.evo.individual import Individual
from repro.hpc import BatchJob, ClusterSimulation, TrainingRuntimeModel
from repro.injection import use_injector
from repro.obs.metrics import MetricsRegistry
from repro.rng import ensure_rng


class FakeTraining:
    """Sleeps like a (very short) training; the fitness is x squared."""

    n_objectives = 1

    def evaluate(self, phenome):
        time.sleep(0.01)
        return np.array([phenome[0] ** 2])


def live_executor_demo() -> None:
    print("=== process pool with injected node failures ===")
    plan = FaultPlan([Fault("worker_death", at=at) for at in (7, 25, 44)])
    registry = MetricsRegistry()
    with use_injector(plan.injector()), ProcessPoolBackend(
        workers=6, metrics=registry
    ) as pool:
        problem = FakeTraining()
        futures = [
            pool.submit(Individual(np.array([float(x)]), problem=problem))
            for x in range(60)
        ]
        results = [int(f.result(timeout=60.0)[0][0]) for f in futures]
        workers = pool.n_workers
    ok = results == [x * x for x in range(60)]
    deaths = registry.counter("pool_worker_deaths_total").value
    requeued = registry.counter("pool_tasks_requeued_total").value
    print(
        f"  60/60 tasks correct={ok}, worker deaths={deaths:g}, "
        f"tasks re-run={requeued:g}, workers left={workers}"
    )
    print(
        "  (each dead worker is respawned and its task re-run, as the "
        "paper's Dask scheduler reassigned it)\n"
    )


def campaign_simulation_demo() -> None:
    print("=== discrete-event simulation of the paper's allocation ===")
    rng = ensure_rng(0)
    runtime_model = TrainingRuntimeModel(rng=rng)
    # the campaign's rcut values are uniform at generation 0 and drift
    # upward as the EA discovers large cutoffs are needed
    workloads = []
    for gen in range(7):
        lo = 6.0 + 0.5 * gen
        rcuts = rng.uniform(lo, 12.0, size=100)
        workloads.append(
            [runtime_model.runtime_minutes(r) for r in rcuts]
        )

    rows = []
    for label, mtbf, nannies in (
        ("healthy machine", None, False),
        ("MTBF 3000 min, no nannies", 3000.0, False),
        ("MTBF 3000 min, nannies", 3000.0, True),
    ):
        sim = ClusterSimulation(
            job=BatchJob(n_nodes=100, walltime_minutes=720.0),
            runtime_model=runtime_model,
            node_mtbf_minutes=mtbf,
            nannies=nannies,
            rng=1,
        )
        report = sim.run_campaign(workloads)
        summary = report.summary()
        rows.append(
            {
                "scenario": label,
                "hours": summary["total_hours"],
                "completed": summary["evaluations_completed"],
                "node failures": summary["node_failures"],
                "nodes lost": summary["nodes_lost"],
                "fit in 12h": not report.walltime_exceeded,
            }
        )
    print(format_table(rows))
    print(
        "\n  700 trainings (the paper's 5 jobs ran 3500 total) fit the "
        "12-hour allocation with margin, matching §2.2.5's envelope"
    )


if __name__ == "__main__":
    live_executor_demo()
    campaign_simulation_demo()
