"""The scheduling policy on a simulated clock: no process, no timing —
retries, deadlines, the fleet policy and fair share among tagged tasks.

:class:`repro.engine.policy.Policy` is fed events and returns actions;
these tests feed it by hand, or through :class:`Clock`, a minimal
executor whose tasks take simulated seconds — the same way the process
pool (on ``time.monotonic()``) and the cluster simulator (on minutes)
drive it.
"""

import hashlib
import heapq
import itertools
import random
from collections import Counter

import pytest

from repro.engine.policy import (
    AUTOSCALE_INTERVAL,
    DEATH_RETRIES,
    MIN_HISTORY,
    STRAGGLER_FACTOR,
    SUSTAIN_TICKS,
    Autoscale,
    Copy,
    Dispatch,
    Duplicate,
    Fail,
    Fleet,
    Kill,
    LastResort,
    Policy,
    Requeue,
    Retire,
    RunInProcess,
    Settle,
    Spawn,
    Tag,
)
from repro.exceptions import TrainingTimeoutError, WorkerFailure, WorkerRevoked


class Clock:
    """Carries out a policy's actions on simulated seconds.

    A task takes ``duration`` seconds, or ``slow[k]`` when it is the
    ``k``-th dispatch (copies count); the worker given dispatch ``k`` in
    ``revoke_at`` is revoked half way through it, like ``--chaos-revoke``.
    A spawned worker is up at once, and the clock ticks every ``dt``.
    """

    def __init__(self, policy, duration=1.0, slow=None, revoke_at=(), dt=0.05):
        self.policy = policy
        self.duration = duration
        self.slow = slow or {}
        self.revoke_at = set(revoke_at)
        self.dt = dt
        self.now = 0.0
        self.events = []
        self.seq = itertools.count()
        self.dispatches = 0
        self.log = []
        self.settled = Counter()

    def apply(self, actions):
        for action in actions:
            self.log.append(action)
            if isinstance(action, (Dispatch, Copy)):
                k = self.dispatches
                self.dispatches += 1
                took = self.slow.get(k, self.duration)
                what = "revoke" if k in self.revoke_at else "reply"
                if what == "revoke":
                    took /= 2
                heapq.heappush(
                    self.events,
                    (self.now + took, next(self.seq), what, action.worker, action.task),
                )
            elif isinstance(action, Spawn):
                self.apply(self.policy.spawned(action.worker, self.now))
            elif isinstance(action, (Settle, RunInProcess)):
                self.settled[action.task] += 1

    def run(self, tasks, limit=600.0):
        for task in tasks:
            self.apply(self.policy.submit(task, self.now))
        while self.policy.attempts:
            assert self.now < limit, "the schedule did not finish"
            self.now += self.dt
            while self.events and self.events[0][0] <= self.now:
                _, _, what, worker, task = heapq.heappop(self.events)
                if worker not in self.policy.workers:
                    continue  # a revoked worker's late reply never comes
                if what == "revoke":
                    self.apply(self.policy.revoke(worker))
                else:
                    self.apply(self.policy.reply(worker, task, True, self.now))
            self.apply(self.policy.tick(self.now))
        return self


def _kinds(actions):
    return [type(a) for a in actions]


def _decided(actions):
    """``actions`` without the autoscale observations a fleet's tick
    makes every ``AUTOSCALE_INTERVAL``."""
    return [a for a in actions if not isinstance(a, Autoscale)]


# ----------------------------------------------------------------------
# deaths, revocations, deadlines
# ----------------------------------------------------------------------
class TestRetries:
    def test_a_death_requeues_at_the_front_until_death_retries(self):
        policy = Policy(2)
        assert policy.submit(0, 0.0) == [Dispatch("pool-0", 0)]
        assert policy.submit(1, 0.0) == [Dispatch("pool-1", 1)]
        assert policy.submit(2, 0.0) == []
        for lost in range(1, DEATH_RETRIES + 1):
            assert policy.death("pool-0", "exitcode 1") == [
                Requeue(0, "pool-0", lost),
                Spawn("pool-0"),
            ]
            assert list(policy.queue) == [0, 2]  # ahead of older work
            assert policy.spawned("pool-0", 1.0) == [Dispatch("pool-0", 0)]
        fail, spawn = policy.death("pool-0", "exitcode 1")
        assert spawn == Spawn("pool-0")
        assert fail.task == 0 and isinstance(fail.error, WorkerFailure)
        assert f"lost all {DEATH_RETRIES + 1} attempts" in str(fail.error)
        assert "exitcode 1" in str(fail.error)
        assert 0 not in policy.attempts
        assert policy.spawned("pool-0", 2.0) == [Dispatch("pool-0", 2)]

    def test_a_worker_found_dead_at_dispatch_gives_the_task_back_unspent(self):
        policy = Policy(1)
        policy.submit(0, 0.0)
        for _ in range(DEATH_RETRIES + 2):  # never capped: it never ran
            assert policy.death("pool-0", "found dead", ran=False) == [
                Requeue(0, "pool-0", 0),
                Spawn("pool-0"),
            ]
            assert policy.spawned("pool-0", 0.0) == [Dispatch("pool-0", 0)]

    def test_a_revocation_requeues_without_a_cap(self):
        policy = Policy(DEATH_RETRIES + 3)
        policy.submit(0, 0.0)
        holder = "pool-0"
        for lost in range(1, DEATH_RETRIES + 3):
            assert policy.revoke(holder) == [Requeue(0, holder, lost)]
            (dispatch,) = policy.tick(float(lost))
            holder = dispatch.worker
            assert dispatch.task == 0
        assert policy.attempts[0] == DEATH_RETRIES + 2
        assert policy.reply(holder, 0, True, 9.0) == [Settle(0, False)]

    def test_revoking_the_last_worker_fails_its_task_and_the_backlog(self):
        policy = Policy(1)
        for task in range(3):
            policy.submit(task, 0.0)
        actions = policy.revoke("pool-0")
        assert [a.task for a in actions] == [0, 1, 2]
        assert all(isinstance(a.error, WorkerRevoked) for a in actions)
        (late,) = policy.submit(3, 1.0)
        assert isinstance(late, Fail) and isinstance(late.error, WorkerRevoked)
        assert not policy.attempts and not policy.queue

    def test_a_deadline_kills_the_overrun_and_keeps_the_worker(self):
        policy = Policy(1, deadline=10.0)
        policy.submit(0, 0.0)
        policy.submit(1, 0.0)
        assert policy.tick(10.0) == []  # not past it yet
        kill, fail, dispatch = policy.tick(10.5)
        assert kill == Kill("pool-0", 0, 10.5)
        assert fail.task == 0 and isinstance(fail.error, TrainingTimeoutError)
        # the worker serves on with a fresh process
        assert dispatch == Dispatch("pool-0", 1)
        assert policy.workers["pool-0"].fresh

    def test_the_deadline_does_not_count_a_load(self):
        """A killed worker's successor loads the problem before it runs
        the next task: the clock starts when the task does."""
        policy = Policy(1, deadline=10.0)
        policy.submit(0, 0.0)
        policy.submit(1, 0.0)
        policy.tick(10.5)  # kills task 0, sends task 1
        policy.clock("pool-0", None)  # loading: untimed
        assert policy.tick(30.0) == []
        policy.clock("pool-0", 30.0)
        assert policy.tick(40.0) == []
        (kill, fail) = policy.tick(40.5)
        assert kill == Kill("pool-0", 1, 10.5)
        assert fail.task == 1

    def test_a_cancelled_task_leaves_the_queue_and_its_reply_is_dropped(self):
        policy = Policy(1)
        policy.submit(0, 0.0)
        policy.submit(1, 0.0)
        policy.cancel(0)
        policy.cancel(1)
        assert not policy.queue and not policy.attempts
        assert policy.reply("pool-0", 0, True, 1.0) == []


# ----------------------------------------------------------------------
# speculation
# ----------------------------------------------------------------------
def _warmed(workers=2):
    """pool-0 boots on task 100 (a 5 s first reply, left out of the
    mean), then replies MIN_HISTORY times after 1 s each: a mean of 1 s
    and a threshold of STRAGGLER_FACTOR s.  Task 0 then runs on pool-0
    from t = 0, with every other worker idle."""
    policy = Policy(workers, fleet=Fleet(workers, workers, speculate=True))
    t = -100.0
    for task in range(100, 101 + MIN_HISTORY):
        policy.submit(task, t)
        took = 5.0 if task == 100 else 1.0
        assert policy.reply("pool-0", task, True, t + took) == [
            Settle(task, False)
        ]
        t += took
    assert list(policy.fleet.window) == [1.0] * MIN_HISTORY
    assert policy.submit(0, 0.0) == [Dispatch("pool-0", 0)]
    return policy


class TestSpeculation:
    def test_a_straggler_is_copied_past_the_threshold(self):
        policy = _warmed()
        assert policy.tick(STRAGGLER_FACTOR) == []
        assert policy.tick(STRAGGLER_FACTOR + 0.01) == [
            Copy("pool-1", 0, STRAGGLER_FACTOR)
        ]
        # copied once only
        assert _decided(policy.tick(STRAGGLER_FACTOR + 1.0)) == []

    def test_no_copy_before_the_history(self):
        policy = Policy(2, fleet=Fleet(2, 2, speculate=True))
        policy.submit(0, 0.0)
        assert policy.tick(1000.0) == []

    def test_the_copy_wins_and_the_original_is_a_duplicate(self):
        policy = _warmed()
        policy.tick(STRAGGLER_FACTOR + 0.01)
        assert policy.reply("pool-1", 0, True, 4.0) == [Settle(0, True)]
        assert policy.reply("pool-0", 0, True, 9.0) == [Duplicate(0)]
        assert not policy.fleet.copies

    def test_a_failed_copy_never_beats_the_copy_still_running(self):
        policy = _warmed()
        policy.tick(STRAGGLER_FACTOR + 0.01)
        assert policy.reply("pool-1", 0, False, 4.0) == []
        assert _decided(policy.tick(20.0)) == []  # not copied again
        assert policy.reply("pool-0", 0, True, 21.0) == [Settle(0, False)]
        assert not policy.fleet.copies

    def test_a_lost_copy_is_neither_a_requeue_nor_a_lost_attempt(self):
        policy = _warmed()
        policy.tick(STRAGGLER_FACTOR + 0.01)
        assert policy.death("pool-1", "exitcode 1") == [Spawn("pool-1")]
        assert policy.attempts[0] == 0
        assert policy.reply("pool-0", 0, True, 9.0) == [Settle(0, False)]


# ----------------------------------------------------------------------
# autoscale and the last resort
# ----------------------------------------------------------------------
class TestAutoscale:
    def test_sustained_pressure_grows_to_the_ceiling_and_idleness_to_the_floor(
        self,
    ):
        policy = Policy(1, fleet=Fleet(1, 3, speculate=False))
        for task in range(5):
            policy.submit(task, 0.0)
        for _ in range(SUSTAIN_TICKS - 1):
            assert policy.autoscale(0.0) == [Autoscale(0, 1)]
        assert policy.autoscale(0.0) == [
            Spawn("pool-1"),
            Spawn("pool-2"),
            Autoscale(2, 3),
        ]
        assert policy.spawned("pool-1", 0.0) == [Dispatch("pool-1", 1)]
        assert policy.spawned("pool-2", 0.0) == [Dispatch("pool-2", 2)]
        for worker, task in (("pool-0", 0), ("pool-1", 1), ("pool-2", 2)):
            policy.reply(worker, task, True, 1.0)
        policy.tick(1.0)
        for worker, task in (("pool-0", 3), ("pool-1", 4)):
            policy.reply(worker, task, True, 2.0)
        shrinks = []
        for _ in range(4 * SUSTAIN_TICKS):
            shrinks += policy.autoscale(3.0)
        assert [a for a in shrinks if not isinstance(a, Autoscale)] == [
            Retire("pool-2"),
            Retire("pool-1"),
        ]
        assert list(policy.workers) == ["pool-0"]  # the floor

    def test_one_spike_never_rescales(self):
        """A backlog seen once, then a busy pool with nothing queued:
        the count starts over, and the pool keeps its size."""
        policy = Policy(1, fleet=Fleet(1, 3, speculate=False))
        policy.submit(0, 0.0)
        for task in range(1, 4):
            policy.submit(task, 0.0)
            assert policy.autoscale(0.0) == [Autoscale(0, 1)]
            policy.reply("pool-0", policy.workers["pool-0"].task, True, 0.0)
            assert policy.tick(0.0) == [Dispatch("pool-0", task)]
            assert policy.autoscale(0.0) == [Autoscale(0, 1)]

    def test_the_tick_observes_every_interval(self):
        policy = Policy(1, fleet=Fleet(1, 2, speculate=False))
        for task in range(3):
            policy.submit(task, 0.0)
        assert policy.tick(0.0) == []  # starts the clock
        assert policy.tick(AUTOSCALE_INTERVAL / 2) == []
        observations = [
            a
            for k in range(1, SUSTAIN_TICKS + 1)
            for a in policy.tick(k * AUTOSCALE_INTERVAL)
            if isinstance(a, (Autoscale, Spawn))
        ]
        assert observations[-2:] == [Spawn("pool-1"), Autoscale(1, 2)]


class TestLastResort:
    def test_the_backlog_runs_in_process_once_the_last_worker_is_revoked(self):
        policy = Policy(2, fleet=Fleet(2, 2, speculate=False))
        for task in range(3):
            policy.submit(task, 0.0)
        assert policy.revoke("pool-0") == [Requeue(0, "pool-0", 1)]
        assert policy.revoke("pool-1") == [
            Requeue(1, "pool-1", 1),
            LastResort("pool-1", 3),
        ]
        assert policy.tick(1.0) == [
            RunInProcess(1),
            RunInProcess(0),
            RunInProcess(2),
        ]
        assert policy.submit(3, 2.0) == []
        assert _decided(policy.tick(2.0)) == [RunInProcess(3)]
        assert not policy.attempts


# ----------------------------------------------------------------------
# a storm on the simulated clock
# ----------------------------------------------------------------------
def test_a_revocation_storm_with_a_straggler_scales_up_and_copies():
    """``--chaos-revoke 1,3`` on a ``--pool-workers 2 --max-workers 4
    --speculate`` fleet, with 1 s tasks: the backlog grows the pool
    before the second revocation, so a worker is left, and dispatch 8
    straggles until its copy wins.  Every task settles exactly once."""
    policy = Policy(2, fleet=Fleet(2, 4, speculate=True))
    clock = Clock(policy, slow={8: 60.0}, revoke_at=(1, 3)).run(range(12))
    kinds = Counter(_kinds(clock.log))
    assert kinds[Requeue] == 2 and not kinds[Fail] and not kinds[LastResort]
    assert any(isinstance(a, Autoscale) and a.delta > 0 for a in clock.log)
    assert kinds[Copy] >= 1
    assert any(isinstance(a, Settle) and a.won for a in clock.log)
    assert clock.settled == {task: 1 for task in range(12)}
    assert policy.workers
    assert clock.now < 60.0  # the copy, not the straggler, settled it


def _drawn_schedule(seed):
    """Drawn revocations and stragglers on a fleet, run to the end."""
    rng = random.Random(seed)
    workers = rng.randint(1, 3)
    policy = Policy(
        workers,
        fleet=Fleet(workers, rng.randint(workers, 5), speculate=rng.random() < 0.5),
    )
    n = rng.randint(1, 15)
    clock = Clock(
        policy,
        slow={rng.randrange(2 * n): rng.uniform(2.0, 20.0) for _ in range(3)},
        revoke_at=rng.sample(range(2 * n), rng.randint(0, 3)),
    ).run(range(n))
    return policy, clock, n


@pytest.mark.parametrize("seed", range(20))
def test_random_schedules_settle_every_task_once(seed):
    """Drawn revocations and stragglers on a fleet: no task is lost or
    settled twice, and the books close."""
    policy, clock, n = _drawn_schedule(seed)
    assert clock.settled == {task: 1 for task in range(n)}
    assert not policy.attempts and not policy.queue
    assert not any(isinstance(a, Fail) for a in clock.log)


# ----------------------------------------------------------------------
# fair share: tagged tasks
# ----------------------------------------------------------------------
def _held(workers=1):
    """A policy whose workers are all down, so submitted work queues
    until :func:`_order` brings them up."""
    policy = Policy(workers)
    for name in list(policy.workers):
        assert policy.death(name, "held", ran=False) == [Spawn(name)]
    return policy


def _order(policy, n):
    """The first ``n`` tasks one worker, brought up, runs one at a time."""
    order = [a.task for a in policy.spawned("pool-0", 0.0)]
    while len(order) < n:
        assert policy.reply("pool-0", order[-1], True, 0.0)
        order += [a.task for a in policy.tick(0.0)]
    return order


class TestFairShare:
    def test_stride_dispatch_is_proportional_to_weight(self):
        policy = _held()
        for i in range(10):
            policy.submit(i, 0.0, Tag("alice", "a", weight=2.0))
        for i in range(10):
            policy.submit(100 + i, 0.0, Tag("bob", "b", weight=1.0))
        # exactly 2:1 over any window, not just in expectation — and
        # deterministically interleaved, not bursty
        order = _order(policy, 9)
        assert "".join("a" if t < 100 else "b" for t in order) == "abaabaaba"

    def test_strict_priority_preempts_weights(self):
        policy = _held()
        for i in range(3):
            policy.submit(10 + i, 0.0, Tag("batch", "b", weight=100.0, priority=1))
        for i in range(3):
            policy.submit(i, 0.0, Tag("urgent", "u", weight=1.0, priority=0))
        # all priority-0 work dispatched before any priority-1, whatever
        # the weights or the arrival order
        assert _order(policy, 6) == [0, 1, 2, 10, 11, 12]

    def test_round_robin_among_a_tenants_lanes(self):
        policy = _held(4)
        for lane, ids in (("c1", (0, 1)), ("c2", (10, 11))):
            for task in ids:
                policy.submit(task, 0.0, Tag("t", lane, cap=8))
        dispatched = [
            a.task for name in list(policy.workers) for a in policy.spawned(name, 0.0)
        ]
        assert dispatched == [0, 10, 1, 11]

    def test_peak_running_never_exceeds_the_cap(self):
        policy = Policy(8)
        tag = Tag("t", "c1", cap=2)
        for task in range(6):
            policy.submit(task, 0.0, tag)
        assert [w.task for w in policy.workers.values()][:3] == [0, 1, None]
        share = policy.shares["t"]
        for task in (0, 1):
            policy.reply(f"pool-{task}", task, True, 1.0)
        assert _kinds(policy.tick(1.0)) == [Dispatch, Dispatch]
        assert (policy.running(share), share.peak, share.dispatched) == (2, 2, 4)
        assert policy.depth() == 2

    def test_untagged_work_goes_first(self):
        policy = _held()
        policy.submit(0, 0.0, Tag("t", "c1"))
        policy.submit(1, 0.0)
        assert _order(policy, 2) == [1, 0]

    def test_a_tagged_requeue_returns_to_the_front_of_its_own_lane(self):
        policy = Policy(1)
        assert policy.submit(0, 0.0, Tag("t", "c1")) == [Dispatch("pool-0", 0)]
        policy.submit(1, 0.0, Tag("t", "c1"))
        policy.submit(2, 0.0, Tag("t", "c2"))
        policy.submit(3, 0.0)
        assert policy.death("pool-0", "exitcode 1") == [
            Requeue(0, "pool-0", 1),
            Spawn("pool-0"),
        ]
        share = policy.shares["t"]
        assert {k: list(v) for k, v in share.lanes.items()} == {
            "c1": [0, 1],
            "c2": [2],
        }
        assert list(policy.queue) == [3] and not policy.running(share)
        order = [a.task for a in policy.spawned("pool-0", 1.0)]
        while len(order) < 4:
            policy.reply("pool-0", order[-1], True, 1.0)
            order += [a.task for a in policy.tick(1.0)]
        assert order == [3, 0, 2, 1]
        # the re-run is not charged again
        assert (share.vtime, share.dispatched) == (3.0, 3)

    def test_a_cancelled_tagged_task_leaves_its_lane(self):
        policy = _held()
        policy.submit(0, 0.0, Tag("t", "c1"))
        policy.submit(1, 0.0, Tag("t", "c1"))
        policy.cancel(0)
        policy.cancel(1)
        assert not policy.shares["t"].lanes and not policy.tags
        assert policy.spawned("pool-0", 0.0) == []

    def test_a_capped_tenants_backlog_does_not_scale_up(self):
        for cap, grown in ((1, 1), (2, 2), (None, 3)):
            policy = Policy(1, fleet=Fleet(1, 3, speculate=False))
            for task in range(5):
                policy.submit(task, 0.0, Tag("t", "c1", cap=cap))
            for _ in range(2 * SUSTAIN_TICKS):
                for action in policy.autoscale(0.0):
                    if isinstance(action, Spawn):
                        policy.spawned(action.worker, 0.0)
            assert len(policy.workers) == grown, cap


#: action-log digests of the drawn schedules below under the FIFO
#: policy that had no tenant lanes: untagged work dispatches as it did
PARENT_FIFO = [
    "9b69741803a30cfd", "95278b5c598b259c", "90805a0b67b33214",
    "383e377fdbe3f335", "680c324c7586c592", "970ec67aad11abe8",
    "0203c5b6f913b478", "c7918633744e8c77", "ae7da997eba81e93",
    "32f9939e41862b1b", "9fa238d1da06c714", "44ed060b231e07de",
    "abefbcd1de56ef9a", "4fc9fc8a6228942a", "3d1ab58928b465b8",
    "0baa590a1b59a465", "549c6cae245c9908", "56d249e4a8c02a58",
    "5943e1a89a6293e1", "75484c19dfe06cd0",
]


@pytest.mark.parametrize("seed", range(20))
def test_untagged_dispatch_is_the_fifo_one(seed):
    _, clock, _ = _drawn_schedule(seed)
    rows = [
        (type(a).__name__, a.task, type(a.error).__name__, str(a.error))
        if isinstance(a, Fail)
        else (type(a).__name__, *a)
        for a in clock.log
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert digest == PARENT_FIFO[seed]
