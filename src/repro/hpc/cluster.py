"""Discrete-event simulation of a full EA campaign on the cluster.

Answers the operational questions behind §2.2.5 and §3: how long do
7 generations × 100 trainings take on 100 nodes, how many trainings
complete, what do node failures cost, and how do the nanny-on /
nanny-off policies compare.  EA generations are synchronous barriers —
generation ``g+1`` cannot start until every evaluation of generation
``g`` has completed or been abandoned — which is exactly the
generational NSGA-II structure the paper deploys.

A node runs one training at a time (§2.2.5: one ``jsrun`` per
training), as one worker of :class:`repro.engine.policy.Policy`, the
rules the process pool runs, here on simulated minutes with the fleet
policy off.  A node failing mid-training is the worker's death; its
replacement is a nanny restart ``restart_minutes`` later when the fault
was transient, else the node is gone for good.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.engine.policy import DEATH_RETRIES, Dispatch, Fail, Policy, Settle, Spawn
from repro.exceptions import WalltimeExceeded
from repro.hpc.runtime_model import TrainingRuntimeModel
from repro.obs.trace import NullTracer, Tracer, get_tracer
from repro.rng import RngLike, ensure_rng


@dataclass
class BatchJob:
    """A node allocation with a walltime budget (the paper: 100 nodes,
    12 hours)."""

    n_nodes: int = 100
    walltime_minutes: float = 12 * 60.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a job needs at least one node")

    def check_walltime(self, now_minutes: float) -> None:
        if now_minutes > self.walltime_minutes:
            raise WalltimeExceeded(
                f"{now_minutes:.1f} min exceeds the "
                f"{self.walltime_minutes:.0f}-minute allocation"
            )


@dataclass
class GenerationTrace:
    """Timing record for one generation of evaluations."""

    generation: int
    start_minutes: float
    end_minutes: float
    n_evaluations: int
    n_node_failures: int
    n_abandoned: int

    @property
    def makespan_minutes(self) -> float:
        return self.end_minutes - self.start_minutes


@dataclass
class SimulationReport:
    """Campaign-level outcome."""

    generations: list[GenerationTrace] = field(default_factory=list)
    total_minutes: float = 0.0
    evaluations_completed: int = 0
    evaluations_abandoned: int = 0
    node_failures: int = 0
    nodes_lost: int = 0
    walltime_exceeded: bool = False

    def summary(self) -> dict[str, float]:
        return {
            "generations": len(self.generations),
            "total_hours": self.total_minutes / 60.0,
            "evaluations_completed": self.evaluations_completed,
            "evaluations_abandoned": self.evaluations_abandoned,
            "node_failures": self.node_failures,
            "nodes_lost": self.nodes_lost,
            "walltime_exceeded": float(self.walltime_exceeded),
        }


class ClusterSimulation:
    """Event-driven execution of generational workloads.

    Parameters
    ----------
    job:
        The allocation (nodes + walltime).
    runtime_model:
        Maps hyperparameters to training runtimes.
    node_mtbf_minutes:
        Mean time between failures per node; ``None`` disables faults.
        Failures strike mid-task, killing the node and requeueing the
        task (up to ``max_retries``).
    nannies:
        When True, failed nodes recover after ``restart_minutes`` —
        which only helps if the fault was transient
        (``transient_fraction`` of them are).
    """

    def __init__(
        self,
        job: Optional[BatchJob] = None,
        runtime_model: Optional[TrainingRuntimeModel] = None,
        node_mtbf_minutes: Optional[float] = None,
        nannies: bool = False,
        restart_minutes: float = 5.0,
        transient_fraction: float = 0.3,
        max_retries: int = DEATH_RETRIES,
        rng: RngLike = None,
        tracer: Optional[NullTracer | Tracer] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else get_tracer()
        self.rng = ensure_rng(rng)
        self.job = job or BatchJob()
        self.runtime_model = runtime_model or TrainingRuntimeModel(
            rng=self.rng
        )
        self.node_mtbf_minutes = node_mtbf_minutes
        self.nannies = nannies
        self.restart_minutes = float(restart_minutes)
        self.transient_fraction = float(transient_fraction)
        self.max_retries = int(max_retries)

    # ------------------------------------------------------------------
    def _task_fails_by_node(self, runtime: float) -> bool:
        """Does the hosting node fail during a task of this length?"""
        if self.node_mtbf_minutes is None:
            return False
        p_fail = 1.0 - np.exp(-runtime / self.node_mtbf_minutes)
        return bool(self.rng.random() < p_fail)

    def run_campaign(
        self,
        generation_workloads: Sequence[Sequence[float]],
    ) -> SimulationReport:
        """Execute per-generation lists of task runtimes (minutes).

        Each inner sequence is one generation's evaluation runtimes;
        the policy places them onto nodes, the simulation advances time
        through a completion-event heap, injects node failures, honors
        the generational barrier, and stops (marking the report) if the
        allocation walltime is exceeded.
        """
        report = SimulationReport()
        policy = Policy(
            self.job.n_nodes, name="node-{:03d}", death_retries=self.max_retries
        )
        now = 0.0
        with self.tracer.span(
            "sim.campaign",
            n_nodes=self.job.n_nodes,
            walltime_minutes=self.job.walltime_minutes,
            nannies=self.nannies,
        ) as span:
            for g, runtimes in enumerate(generation_workloads):
                with self.tracer.span(
                    "sim.generation", generation=g
                ) as gen_span:
                    trace, now = self._run_generation(
                        policy, g, list(runtimes), now, report
                    )
                    gen_span.tag(
                        sim_start_minutes=trace.start_minutes,
                        sim_makespan_minutes=trace.makespan_minutes,
                        n_evaluations=trace.n_evaluations,
                        n_node_failures=trace.n_node_failures,
                        n_abandoned=trace.n_abandoned,
                    )
                report.generations.append(trace)
                if report.walltime_exceeded:
                    self.tracer.event(
                        "sim.walltime_exceeded", sim_minutes=now
                    )
                    break
            report.total_minutes = now
            # gone for good, or still waiting for a nanny restart
            report.nodes_lost = self.job.n_nodes - sum(
                w.up for w in policy.workers.values()
            )
            span.tag(
                sim_total_minutes=report.total_minutes,
                node_failures=report.node_failures,
                nodes_lost=report.nodes_lost,
            )
        return report

    def _run_generation(
        self,
        policy: Policy,
        generation: int,
        runtimes: list[float],
        start: float,
        report: SimulationReport,
    ) -> tuple[GenerationTrace, float]:
        trace = GenerationTrace(generation, start, start, len(runtimes), 0, 0)
        # heap of (minutes, seq, what, node, task): a training ends
        # ("done"), its node fails mid-way ("fail"), or a nanny restart
        # completes ("up"); seq keeps simultaneous events in push order
        events: list[tuple[float, int, str, str, int]] = []
        seq = itertools.count()
        now = start

        def carry_out(actions: list) -> None:
            for action in actions:
                if isinstance(action, Dispatch):
                    runtime, what = runtimes[action.task], "done"
                    if self._task_fails_by_node(runtime):
                        runtime *= self.rng.uniform(0.1, 1.0)
                        what = "fail"
                    event = (now + runtime, next(seq), what, *action)
                    heapq.heappush(events, event)
                elif isinstance(action, Spawn):
                    if self.nannies and (
                        self.rng.random() < self.transient_fraction
                    ):
                        # transient fault: a nanny restart brings it back
                        up = now + self.restart_minutes
                        heapq.heappush(events, (up, next(seq), "up", *action, -1))
                    else:
                        carry_out(policy.revoke(action.worker))
                elif isinstance(action, Settle):
                    report.evaluations_completed += 1
                elif isinstance(action, Fail):
                    trace.n_abandoned += 1
                    report.evaluations_abandoned += 1

        try:
            for task in range(len(runtimes)):
                carry_out(policy.submit(task, now))
            while events:
                now, _, what, node, task = heapq.heappop(events)
                self.job.check_walltime(now)
                if what == "fail":
                    trace.n_node_failures += 1
                    report.node_failures += 1
                    self.tracer.event(
                        "sim.node_failure",
                        node=node,
                        generation=generation,
                        sim_minutes=now,
                        attempts=policy.attempts[task] + 1,
                    )
                    carry_out(policy.death(node, "node failure"))
                elif what == "up":
                    self.tracer.event(
                        "sim.nanny_restart", node=node, sim_minutes=now
                    )
                    carry_out(policy.spawned(node, now))
                else:
                    carry_out(policy.reply(node, task, True, now))
                carry_out(policy.tick(now))
        except WalltimeExceeded:
            report.walltime_exceeded = True
        trace.end_minutes = now
        return trace, now
