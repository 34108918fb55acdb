"""Tests for the Summit-like cluster model: runtime model, batch jobs,
and the discrete-event campaign simulation (which drives the pool's
scheduling policy, tested on its own in ``tests/test_policy.py``)."""

import numpy as np
import pytest

from repro.exceptions import WalltimeExceeded
from repro.hpc import BatchJob, ClusterSimulation, TrainingRuntimeModel


class TestRuntimeModel:
    def test_rcut_cubic_growth(self):
        model = TrainingRuntimeModel(rng=0)
        t6 = model.mean_runtime_minutes(6.0)
        t12 = model.mean_runtime_minutes(12.0)
        env = model.env_minutes
        assert np.isclose(t12 - model.fixed_minutes, env * 8.0)
        assert t12 > t6

    def test_paper_envelope(self):
        """All runtimes stay under the 2-hour cap and top out near the
        paper's observed ~80 minutes at rcut=12."""
        model = TrainingRuntimeModel(rng=0)
        times = [model.runtime_minutes(12.0) for _ in range(200)]
        assert max(times) < 120.0
        assert 60.0 < np.mean(times) < 85.0

    def test_cpu_speedup_factor(self):
        model = TrainingRuntimeModel(rng=0)
        assert np.isclose(
            model.mean_runtime_minutes(6.0, gpu=False)
            / model.mean_runtime_minutes(6.0, gpu=True),
            65.0,
        )

    def test_failed_runs_are_short(self):
        model = TrainingRuntimeModel(rng=0)
        times = [
            model.runtime_minutes(12.0, failed=True) for _ in range(50)
        ]
        assert max(times) <= 4.0

    def test_jitter_randomizes(self):
        model = TrainingRuntimeModel(rng=0)
        times = {model.runtime_minutes(8.0) for _ in range(10)}
        assert len(times) == 10


class TestBatchJob:
    def test_default_paper_allocation(self):
        job = BatchJob()
        assert job.n_nodes == 100
        assert job.walltime_minutes == 720.0

    def test_walltime_check(self):
        job = BatchJob(n_nodes=2, walltime_minutes=60.0)
        job.check_walltime(59.0)
        with pytest.raises(WalltimeExceeded):
            job.check_walltime(61.0)

    def test_needs_nodes(self):
        with pytest.raises(ValueError):
            BatchJob(n_nodes=0)


class TestClusterSimulation:
    def _workloads(self, generations=7, per_gen=100, minutes=50.0):
        return [[minutes] * per_gen for _ in range(generations)]

    def test_paper_campaign_fits_walltime(self):
        """7 generations x 100 evals of <=80-minute trainings on 100
        nodes must fit the 12-hour allocation (the paper's envelope)."""
        sim = ClusterSimulation(
            job=BatchJob(n_nodes=100, walltime_minutes=720.0), rng=0
        )
        report = sim.run_campaign(self._workloads(minutes=78.0))
        assert not report.walltime_exceeded
        assert report.evaluations_completed == 700
        assert report.total_minutes <= 720.0

    def test_generational_barrier(self):
        """With pop == nodes, each generation's makespan equals its
        longest task; generations run back to back."""
        sim = ClusterSimulation(
            job=BatchJob(n_nodes=10, walltime_minutes=10000.0), rng=0
        )
        workloads = [[5.0] * 10, [7.0] * 10]
        report = sim.run_campaign(workloads)
        assert np.isclose(report.generations[0].makespan_minutes, 5.0)
        assert np.isclose(report.generations[1].makespan_minutes, 7.0)
        assert np.isclose(report.total_minutes, 12.0)

    def test_fewer_nodes_than_tasks_queues(self):
        sim = ClusterSimulation(
            job=BatchJob(n_nodes=2, walltime_minutes=10000.0), rng=0
        )
        report = sim.run_campaign([[10.0] * 4])
        assert np.isclose(report.generations[0].makespan_minutes, 20.0)

    def test_walltime_exceeded_flagged(self):
        sim = ClusterSimulation(
            job=BatchJob(n_nodes=1, walltime_minutes=15.0), rng=0
        )
        report = sim.run_campaign([[10.0] * 3])
        assert report.walltime_exceeded

    def test_node_failures_requeue_tasks(self):
        sim = ClusterSimulation(
            job=BatchJob(n_nodes=20, walltime_minutes=100000.0),
            node_mtbf_minutes=200.0,
            max_retries=10,
            rng=3,
        )
        report = sim.run_campaign([[30.0] * 20] * 3)
        assert report.node_failures > 0
        assert (
            report.evaluations_completed
            + report.evaluations_abandoned
            == 60
        )

    def test_failures_cost_time(self):
        workloads = [[30.0] * 20] * 3
        healthy = ClusterSimulation(
            job=BatchJob(n_nodes=20, walltime_minutes=1e6), rng=5
        ).run_campaign(workloads)
        faulty = ClusterSimulation(
            job=BatchJob(n_nodes=20, walltime_minutes=1e6),
            node_mtbf_minutes=150.0,
            max_retries=10,
            rng=5,
        ).run_campaign(workloads)
        assert faulty.total_minutes > healthy.total_minutes

    def test_nannies_recover_transient_nodes(self):
        kwargs = dict(
            node_mtbf_minutes=120.0,
            max_retries=10,
            rng=11,
        )
        no_nanny = ClusterSimulation(
            job=BatchJob(n_nodes=10, walltime_minutes=1e6),
            nannies=False,
            **kwargs,
        ).run_campaign([[30.0] * 10] * 5)
        with_nanny = ClusterSimulation(
            job=BatchJob(n_nodes=10, walltime_minutes=1e6),
            nannies=True,
            transient_fraction=1.0,
            **kwargs,
        ).run_campaign([[30.0] * 10] * 5)
        assert with_nanny.nodes_lost <= no_nanny.nodes_lost

    def test_summary_keys(self):
        sim = ClusterSimulation(
            job=BatchJob(n_nodes=2, walltime_minutes=1e4), rng=0
        )
        report = sim.run_campaign([[1.0, 2.0]])
        summary = report.summary()
        for key in (
            "generations",
            "total_hours",
            "evaluations_completed",
            "node_failures",
        ):
            assert key in summary
