"""Tests for the scheduler's worker-grace edge cases (stranded-task
handling)."""

import time

import pytest

from repro.distributed import Client, Scheduler, Worker
from repro.exceptions import WorkerFailure


class TestSchedulerGraceEdgeCases:
    def test_submit_with_no_workers_fails_after_grace(self):
        sched = Scheduler(worker_grace_seconds=0.1)
        fut = sched.submit(lambda: 1)
        with pytest.raises(WorkerFailure, match="stranded"):
            fut.result(timeout=5)

    def test_worker_arriving_within_grace_rescues_task(self):
        sched = Scheduler(worker_grace_seconds=1.0)
        fut = sched.submit(lambda: "rescued")
        worker = Worker(sched, "late")
        worker.start()
        try:
            assert fut.result(timeout=5) == "rescued"
        finally:
            sched.close()
            worker.stop()

    def test_tasks_submitted_after_all_workers_die(self):
        sched = Scheduler(worker_grace_seconds=0.1)
        worker = Worker(sched, "w0")
        worker.start()
        Client(sched).submit(lambda: 1).result(timeout=5)
        worker.stop()  # graceful shutdown; worker unregisters
        # wait until the scheduler has no workers
        deadline = time.monotonic() + 2
        while sched.n_workers and time.monotonic() < deadline:
            time.sleep(0.01)
        fut = sched.submit(lambda: 2)
        with pytest.raises(WorkerFailure):
            fut.result(timeout=5)

    def test_closed_scheduler_does_not_strand(self):
        sched = Scheduler(worker_grace_seconds=0.05)
        worker = Worker(sched, "w0")
        worker.start()
        sched.close()
        worker.stop()
        # closing is a clean shutdown: no strand-timer explosions
        assert sched.n_workers == 0
