"""The scheduling policy of a pool of workers, with no clock and no I/O.

The paper's deployment rests on one rule set (§2.2.5): Dask hands a
dead worker's task to another worker, gives up after a fixed number of
failures, and caps each training at two hours.  :class:`Policy` is that
rule set, plus the fleet policy (:class:`Fleet`: autoscale, speculative
copies, the in-process last resort) and fair share among tenants
(:class:`Tag`).  Each event it is fed returns the
actions its executor carries out, in order; the policy updates its
books as it decides, and the executor reports what an action shows (a
worker up after :class:`Spawn`, a worker found dead when sent work) as
another event.  The process pool drives it on ``time.monotonic()``
seconds and the cluster simulator on simulated minutes (DESIGN.md §9).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from repro.exceptions import TrainingTimeoutError, WorkerFailure, WorkerRevoked

#: runs a task may lose to dead workers and still be re-run (Dask's
#: ``allowed-failures``); a death past it is the task's failure
DEATH_RETRIES = 2

#: the fleet policy's tuning (DESIGN.md §9).  A task is a straggler
#: once it has run STRAGGLER_FACTOR × the mean dispatch→reply time over
#: the last STRAGGLER_WINDOW replies (a worker's first reply after its
#: spawn, which pays the boot, is left out), never sooner than
#: MIN_SPECULATE_S, and only after MIN_HISTORY replies; autoscale
#: observes the queue every AUTOSCALE_INTERVAL and rescales after
#: SUSTAIN_TICKS like observations in a row
STRAGGLER_FACTOR = 3.0
STRAGGLER_WINDOW = 256
MIN_SPECULATE_S = 0.05
MIN_HISTORY = 3
AUTOSCALE_INTERVAL = 0.25
SUSTAIN_TICKS = 2


# ----------------------------------------------------------------------
# actions: what the executor carries out, in order
# ----------------------------------------------------------------------
#: send queued ``task`` to idle ``worker``
Dispatch = NamedTuple("Dispatch", [("worker", str), ("task", int)])
#: send straggling ``task`` to idle ``worker`` as well; first reply wins
Copy = NamedTuple("Copy", [("worker", str), ("task", int), ("threshold", float)])
#: start ``worker`` (new, or a dead one's successor); report ``spawned``
Spawn = NamedTuple("Spawn", [("worker", str)])
#: stop idle ``worker``, gone from the books
Retire = NamedTuple("Retire", [("worker", str)])
#: stop ``task``, past the deadline; ``worker`` serves on, fresh
Kill = NamedTuple("Kill", [("worker", str), ("task", int), ("elapsed", float)])
#: the last resort: run queued ``task`` in the executor's process
RunInProcess = NamedTuple("RunInProcess", [("task", int)])
#: ``task`` lost its run on ``worker``; ``attempt`` runs lost so far
Requeue = NamedTuple("Requeue", [("task", int), ("worker", str), ("attempt", int)])
#: resolve ``task`` with ``error``
Fail = NamedTuple("Fail", [("task", int), ("error", BaseException)])
#: the reply resolves ``task``; ``won``: a copy beat the original
Settle = NamedTuple("Settle", [("task", int), ("won", bool)])
#: the reply is a settled task's slower copy: discard it
Duplicate = NamedTuple("Duplicate", [("task", int)])
#: ``worker`` was the last one; ``queued`` tasks now run in process
LastResort = NamedTuple("LastResort", [("worker", str), ("queued", int)])
#: one autoscale observation: ``delta`` workers added (or retired)
Autoscale = NamedTuple("Autoscale", [("delta", int), ("workers", int)])

Action = Union[
    Dispatch, Copy, Spawn, Retire, Kill, RunInProcess, Requeue, Fail,
    Settle, Duplicate, LastResort, Autoscale,
]


# ----------------------------------------------------------------------
# state
# ----------------------------------------------------------------------
class Tag(NamedTuple):
    """Whose a task is: ``tenant``'s share — dispatch opportunities in
    proportion to ``weight``, strict ``priority`` (lower first), at most
    ``cap`` tasks running at once — and the ``lane`` (a campaign) it
    queues in among the tenant's lanes."""

    tenant: str
    lane: str
    weight: float = 1.0
    priority: int = 0
    cap: Optional[int] = None


@dataclass
class Share:
    """One tenant's fair-share books: its first ``tag``'s knobs; its
    lanes — lane → queued tasks, in round-robin order (the lane served
    moves last; an empty one is dropped); its stride virtual time, its
    most tasks running at once, and its tasks dispatched."""

    tag: Tag
    lanes: dict[str, deque[int]] = field(default_factory=dict)
    vtime: float = 0.0
    peak: int = 0
    dispatched: int = 0


@dataclass(slots=True)
class _Tagged:
    """A live tagged task's share and lane; ``charged``: its first
    dispatch has advanced the share's virtual time."""

    share: Share
    lane: str
    charged: bool = False


@dataclass(slots=True)
class Worker:
    """One worker on the books: down from its death (or creation) until
    it is spawned; ``task`` it runs (None: idle), timed from ``since``
    (None: still loading what it was sent, untimed), and the task's
    ``share`` (None: untagged); ``fresh``: no reply since its process
    started."""

    up: bool
    task: Optional[int] = None
    since: Optional[float] = 0.0
    fresh: bool = True
    share: Optional[Share] = None


@dataclass
class Fleet:
    """The fleet policy's bounds, switch and running state."""

    floor: int
    ceiling: int
    speculate: bool
    #: the last STRAGGLER_WINDOW dispatch→reply times of settling
    #: replies: the straggler threshold's mean
    window: deque[float] = field(
        default_factory=lambda: deque(maxlen=STRAGGLER_WINDOW)
    )
    #: task → the worker running its speculative copy, until the slower
    #: copy replies or dies (None once a failed copy's reply was
    #: dropped: the task is not copied again)
    copies: dict[int, Optional[str]] = field(default_factory=dict)
    #: consecutive autoscale observations with a backlog / idle
    pressure: int = 0
    idle: int = 0
    #: the last observation (None: the first tick starts the clock)
    last_tick: Optional[float] = None


class Policy:
    """Queue, retry, deadline, fair-share and fleet rules over named
    workers.

    ``workers`` are up from the start, named ``name.format(i)`` for
    ``i`` = 0, 1, …; a worker added later takes the next index, and no
    index is reused.  ``deadline`` (in the executor's time unit) fails a
    task that runs longer; ``death_retries`` is the number of runs a
    task may lose to deaths; ``fleet`` switches the fleet policy on.

    Untagged tasks wait in :attr:`queue`, a FIFO served before any
    tenant's lanes; a tagged task waits in its lane of its tenant's
    :class:`Share`.  A lost task goes back to the front of its own queue.
    """

    def __init__(
        self,
        workers: int,
        *,
        name: str = "pool-{}",
        deadline: Optional[float] = None,
        death_retries: int = DEATH_RETRIES,
        fleet: Optional[Fleet] = None,
    ) -> None:
        self.name = name
        self.deadline = deadline
        self.death_retries = death_retries
        self.fleet = fleet
        #: FIFO of untagged task ids waiting for a worker
        self.queue: deque[int] = deque()
        #: tenant → its share, in order of first submission
        self.shares: dict[str, Share] = {}
        #: live tagged task → its share and lane
        self.tags: dict[int, _Tagged] = {}
        #: live task → runs it has lost
        self.attempts: dict[int, int] = {}
        self.workers: dict[str, Worker] = {}
        self._next_index = 0
        for _ in range(workers):
            self._add(up=True)

    def _add(self, up: bool) -> str:
        name = self.name.format(self._next_index)
        self._next_index += 1
        self.workers[name] = Worker(up)
        return name

    def _running(self, task: int) -> bool:
        """Whether a worker still runs ``task`` (a speculated task's
        other copy, when one is lost)."""
        return any(w.task == task for w in self.workers.values())

    def _release(self, w: Worker) -> Optional[int]:
        """Take the task off a lost worker: the task, when it needs a
        re-run (nobody waits for a cancelled one, and a speculated one
        may still have its other copy)."""
        task, w.task = w.task, None
        if self.fleet is not None:
            self.fleet.copies.pop(task, None)
        if task in self.attempts and not self._running(task):
            return task
        return None

    def running(self, share: Share) -> int:
        """How many of ``share``'s tasks run now (a copy counts once)."""
        held = list(self.workers.values())
        return len({w.task for w in held if w.share is share} - {None})

    def _requeue(self, task: int, worker: str, ran: bool) -> Requeue:
        # the front: a lost task is the oldest work outstanding
        if ran:
            self.attempts[task] += 1
        entry = self.tags.get(task)
        if entry is None:
            self.queue.appendleft(task)
        else:
            entry.share.lanes.setdefault(entry.lane, deque()).appendleft(task)
        return Requeue(task, worker, self.attempts[task])

    def _end(self, task: int) -> None:
        del self.attempts[task]
        self.tags.pop(task, None)

    def _fail(self, task: int, error: BaseException) -> Fail:
        self._end(task)
        return Fail(task, error)

    def depth(self) -> int:
        """How many tasks are queued (over copies: ``/status`` reads it
        off the executor's thread)."""
        lanes = [list(s.lanes.values()) for s in list(self.shares.values())]
        return len(self.queue) + sum(len(q) for ls in lanes for q in ls)

    def take_queued(self) -> list[int]:
        """Empty every queue: its tasks, the untagged FIFO's first."""
        tasks = list(self.queue)
        self.queue.clear()
        for share in self.shares.values():
            tasks += [task for lane in share.lanes.values() for task in lane]
            share.lanes.clear()
        return tasks

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def submit(
        self, task: int, now: float, tag: Optional[Tag] = None
    ) -> list[Action]:
        """A new task, with its tenant's ``tag`` or none: queued, or
        failed at once when no worker is left to run it and no last
        resort will."""
        self.attempts[task] = 0
        if not self.workers and self.fleet is None:
            error = WorkerRevoked("pool", "no surviving worker")
            return [self._fail(task, error)]
        if tag is None:
            self.queue.append(task)
        else:
            share = self.shares.setdefault(tag.tenant, Share(tag))
            self.tags[task] = _Tagged(share, tag.lane)
            share.lanes.setdefault(tag.lane, deque()).append(task)
        return self._dispatch(now)

    def reply(
        self, worker: str, task: int, ok: bool, now: float
    ) -> list[Action]:
        """``worker`` sent ``task``'s outcome (``ok``: per-slot results;
        else the task raised as a whole)."""
        w = self.workers[worker]
        if w.task == task:
            w.task = None
        fresh, w.fresh = w.fresh, False
        live = task in self.attempts
        won = False
        fleet = self.fleet
        if fleet is not None:
            if not live:
                if fleet.copies.pop(task, None) is not None:
                    return [Duplicate(task)]
            elif task in fleet.copies:
                if not self._running(task):
                    del fleet.copies[task]
                elif not ok:
                    # a failed copy never outranks the other one, still
                    # running: its reply is dropped, and the task is not
                    # copied again
                    fleet.copies[task] = None
                    return []
                else:
                    won = fleet.copies[task] == worker
            if live and not fresh and w.since is not None:
                fleet.window.append(now - w.since)
        if not live:
            # failed by the deadline or cancelled: the late reply goes
            return []
        self._end(task)
        return [Settle(task, won)]

    def death(self, worker: str, cause: str, ran: bool = True) -> list[Action]:
        """``worker`` died.  ``ran``: it held its task when it went (a
        lost run, until ``death_retries``; then the task fails); else it
        was found dead when the task was sent, and the task goes back
        unspent.  The worker is down until :meth:`spawned`."""
        w = self.workers[worker]
        w.up = False
        task = self._release(w)
        out: list[Action] = []
        if task is not None:
            lost = self.attempts[task]
            if not ran or lost < self.death_retries:
                out.append(self._requeue(task, worker, ran))
            else:
                message = (
                    f"died mid-evaluation ({cause}); the task lost all "
                    f"{lost + 1} attempts"
                )
                out.append(self._fail(task, WorkerFailure(worker, message)))
        out.append(Spawn(worker))
        return out

    def revoke(self, worker: str) -> list[Action]:
        """``worker`` is gone for good (a spot preemption, a node lost):
        its task is requeued without a cap while anything can still run
        it.  Once the last worker is gone, the fleet policy's last
        resort takes the backlog; without it, the backlog fails."""
        task = self._release(self.workers.pop(worker))
        fleet = self.fleet
        out: list[Action] = []
        if task is not None:
            if self.workers or fleet is not None:
                out.append(self._requeue(task, worker, ran=True))
            else:
                out.append(self._revoked(task, worker))
        if not self.workers:
            if fleet is not None:
                out.append(LastResort(worker, self.depth()))
            else:
                out += [self._revoked(t, worker) for t in self.take_queued()]
        return out

    def _revoked(self, task: int, worker: str) -> Fail:
        return self._fail(
            task, WorkerRevoked(worker, "revoked with no surviving pool worker")
        )

    def cancel(self, task: int) -> None:
        """Forget ``task``: it leaves its queue, and a running copy's
        reply will be discarded."""
        if self.attempts.pop(task, None) is None:
            return
        entry = self.tags.pop(task, None)
        lane = self.queue if entry is None else entry.share.lanes.get(entry.lane, ())
        if task in lane:
            lane.remove(task)
            if not lane and entry is not None:
                del entry.share.lanes[entry.lane]

    def clock(self, worker: str, now: Optional[float]) -> None:
        """Time ``worker``'s task from ``now``; None stops its clock
        while the worker loads a problem the task needs (as a fresh
        process must), which no deadline or threshold counts."""
        self.workers[worker].since = now

    def spawned(self, worker: str, now: float) -> list[Action]:
        """``worker``'s process is up: it takes queued work."""
        w = self.workers[worker]
        w.task, w.fresh, w.up = None, True, True
        return self._dispatch(now)

    def tick(self, now: float) -> list[Action]:
        """Time passed: deadline kills, queued work to idle workers, and
        the fleet policy's step — the last resort, speculation, and an
        autoscale observation every ``AUTOSCALE_INTERVAL``."""
        out: list[Action] = []
        if self.deadline is not None:
            for name, w in self.workers.items():
                timed = w.task is not None and w.since is not None
                if timed and now - w.since > self.deadline:
                    out += self._kill(name, w, now - w.since)
        out += self._dispatch(now)
        fleet = self.fleet
        if fleet is not None:
            if not self.workers and self.depth():
                out += self._last_resort()
            if fleet.speculate and len(fleet.window) >= MIN_HISTORY:
                out += self._speculate(now)
            if fleet.last_tick is None:
                fleet.last_tick = now
            elif now - fleet.last_tick >= AUTOSCALE_INTERVAL:
                out += self.autoscale(now)
        return out

    def scale_to(self, n: int) -> list[Action]:
        """Grow toward ``n`` workers with new ones, or shrink toward it
        by retiring idle ones, newest first: a busy worker finishes its
        task, and a later call retires it."""
        out: list[Action] = [
            Spawn(self._add(up=False)) for _ in range(n - len(self.workers))
        ]
        for name in reversed(list(self.workers)):
            if len(self.workers) <= n:
                break
            if self.workers[name].task is None:
                del self.workers[name]
                out.append(Retire(name))
        return out

    def autoscale(self, now: float) -> list[Action]:
        """One autoscale observation.  A backlog seen ``SUSTAIN_TICKS``
        times in a row grows the pool toward the ceiling; as long an
        idle pool shrinks by one worker toward the floor.  One transient
        spike never rescales.  The backlog is the queued work a new
        worker could take: a tenant's queued tasks count up to its cap."""
        fleet = self.fleet
        fleet.last_tick = now
        depth = len(self.queue)
        for share in self.shares.values():
            queued = sum(map(len, share.lanes.values()))
            if share.tag.cap is not None:
                queued = min(queued, share.tag.cap - self.running(share))
            depth += queued
        if depth:
            fleet.pressure, fleet.idle = fleet.pressure + 1, 0
        elif not self.attempts:
            fleet.pressure, fleet.idle = 0, fleet.idle + 1
        else:
            fleet.pressure = fleet.idle = 0
        n = len(self.workers)
        out: list[Action] = []
        if fleet.pressure >= SUSTAIN_TICKS:
            fleet.pressure = 0
            out = self.scale_to(min(fleet.ceiling, n + depth))
        elif fleet.idle >= SUSTAIN_TICKS:
            fleet.idle = 0
            if n > fleet.floor:
                out = self.scale_to(n - 1)
        return out + [Autoscale(len(self.workers) - n, len(self.workers))]

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def _dispatch(self, now: float) -> list[Action]:
        # lowest-named idle worker first, the order chaos plans rely on
        out: list[Action] = []
        if not self.queue and not self.tags:
            return out
        for name, w in self.workers.items():
            if w.up and w.task is None:
                task = self._next()
                if task is None:
                    break
                entry = self.tags.get(task)
                share = None if entry is None else entry.share
                w.task, w.since, w.share = task, now, share
                if share is not None:
                    share.peak = max(share.peak, self.running(share))
                out.append(Dispatch(name, task))
        return out

    def _next(self) -> Optional[int]:
        """Take the next task off the queues: the untagged FIFO's head;
        else, among the tenants with queued work below their cap, the
        lowest priority class's tenant with the least virtual time (ties
        by name), from its lanes round-robin.  None: nothing may run."""
        if self.queue:
            return self.queue.popleft()
        ready = [
            s
            for s in self.shares.values()
            if s.lanes and (s.tag.cap is None or self.running(s) < s.tag.cap)
        ]
        if not ready:
            return None
        top = min(s.tag.priority for s in ready)
        share = min(
            (s for s in ready if s.tag.priority == top),
            key=lambda s: (s.vtime, s.tag.tenant),
        )
        lane = next(iter(share.lanes))
        tasks = share.lanes.pop(lane)
        task = tasks.popleft()
        if tasks:
            share.lanes[lane] = tasks
        entry = self.tags[task]
        if not entry.charged:
            entry.charged = True
            share.vtime += 1.0 / share.tag.weight
            share.dispatched += 1
        return task

    def _kill(self, name: str, w: Worker, elapsed: float) -> list[Action]:
        task, w.task, w.fresh = w.task, None, True
        out: list[Action] = [Kill(name, task, elapsed)]
        if task in self.attempts:
            out.append(
                self._fail(task, TrainingTimeoutError(elapsed, self.deadline))
            )
        return out

    def _last_resort(self) -> list[Action]:
        queued = self.take_queued()
        for task in queued:
            self._end(task)
        return [RunInProcess(task) for task in queued]

    def _speculate(self, now: float) -> list[Action]:
        """Copy each straggling task to an idle worker — never into the
        queue behind other work."""
        idle = [n for n, w in self.workers.items() if w.up and w.task is None]
        if not idle:
            return []
        fleet = self.fleet
        out: list[Action] = []
        threshold = None
        for w in list(self.workers.values()):
            task = w.task
            if (
                not idle
                or task is None
                or task in fleet.copies
                or task not in self.attempts
                or w.since is None
                or now - w.since <= MIN_SPECULATE_S
            ):
                continue
            if threshold is None:  # the window is summed only here
                threshold = max(
                    MIN_SPECULATE_S,
                    STRAGGLER_FACTOR * sum(fleet.window) / len(fleet.window),
                )
            if now - w.since <= threshold:
                continue
            spare = idle.pop(0)
            copy = self.workers[spare]
            copy.task, copy.since, copy.share = task, now, w.share
            fleet.copies[task] = spare
            out.append(Copy(spare, task, threshold))
        return out
