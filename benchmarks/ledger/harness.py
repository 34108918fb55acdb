"""Run loop, unit statistics and environment report of the ledger.

One run is: set-up, one discarded warm-up unit, then whole units back
to back (closed loop, one client: the next unit starts when the
previous one has returned) until ``--seconds`` have passed, and never
fewer than the workload's ``min_units``.  Directory preparation,
``gc.collect()``, correctness checks and clean-up sit between the timed
regions, never inside them.

Why the unit statistic is what it is.  Every unit of a run does the
same work (same seed, outputs checked bit for bit), and on the shared
2-vCPU hosts this runs on interference only ever *adds* time, so the
estimate of a unit's cost is a minimum, not a mean.  Much of the
interference comes in bursts shorter than a unit: a fixed 25 ms kernel
sampled for two minutes kept its minimum within 3 % while its median
moved 20 %.  A 3 s unit cannot dodge such bursts, but the stretches
between the program's own per-generation callbacks
(``Campaign.run(callback)``, ~90 ms each) can.  So a unit is cut into
*segments* at those callbacks, each segment takes its minimum over the
timed units (segment ``k`` does the same work in every unit), and
``unit_wall_s`` is the sum.  Against the plain minimum of whole units,
taken from the same runs, its run-to-run spread was smaller in every
recorded set, and about half on the two paper workloads (README, *Why a
segment-wise minimum*).  A workload without callbacks has one segment,
and the statistic is then its fastest unit.  The median of the whole
units is reported beside it.
"""

from __future__ import annotations

import atexit
import ctypes
import gc
import multiprocessing
import os
import platform
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"

#: BLAS/OpenMP pools are pinned to one thread before NumPy is imported:
#: OpenBLAS's default second thread bought nothing on the 160-atom
#: training (26.2 s wall / 47.5 s CPU against 25.9 s / 25.5 s pinned)
#: and oversubscribes both cores under a two-worker pool.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: worker processes of the pool workload - a constant, so that it is
#: the same traffic on every host; the ledger starts no others
POOL_WORKERS = 2


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
@dataclass
class Unit:
    """What one unit did and how long each of its segments took."""

    work: int  # operations attempted (evaluations, or training steps)
    maxint: int = 0  # evaluations the program scored MAXINT, by design
    error: Optional[str] = None  # the correctness check that failed
    facts: dict[str, float] = field(default_factory=dict)
    marks: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.marks[-1] - self.marks[0]

    @property
    def segments(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


class Workload:
    """One set of inputs the ledger runs.  Subclasses fill in the five
    steps; :meth:`run_unit` fixes what is timed."""

    name = ""
    why = ""
    operation = "evaluation"  # what ``Unit.work`` counts
    #: units a run times at the very least, however slow the host
    min_units = 6
    #: units the traced run wraps (after the warm-up and two plain units)
    traced_units = 2

    def __init__(
        self,
        seed: int,
        workdir: Path,
        smoke: bool = False,
        traced: bool = False,
    ) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.smoke = bool(smoke)
        self.traced = bool(traced)
        #: set-up facts the report and the traced ledger carry along
        self.setup_facts: dict[str, float] = {}

    def setup(self) -> None:
        """Generate inputs from the seed, run oracles, start workers."""

    def prepare(self, index: int) -> Any:
        """Untimed: whatever the unit needs on disk; returns its context."""
        return index

    def body(self, ctx: Any, mark: Callable[[], None]) -> Any:
        """Timed: drive the program.  ``mark()`` ends a segment."""
        raise NotImplementedError

    def verify(self, ctx: Any, result: Any) -> Unit:
        """Untimed: check the outputs, count the work."""
        raise NotImplementedError

    def cleanup(self, ctx: Any) -> None:
        """Untimed: remove what the unit left on disk."""

    def finish(self) -> Optional[str]:
        """Untimed, after the last unit: a check over what the run
        left behind; returns what failed, if anything."""
        return None

    def close(self) -> None:
        """Stop every process the workload started."""

    @contextmanager
    def tracing(self) -> Iterator[None]:
        """Traced run only: entered around the wrapped units."""
        yield

    def probes(
        self, plain_wall_s: float, units: Sequence[Unit]
    ) -> dict[str, float]:
        """Traced run only: the per-layer numbers this workload's
        traced run is the place to take, given the wall of its plain
        units and its wrapped units."""
        return {}

    def run_unit(self, index: int, recorder: Any = None) -> Unit:
        ctx = self.prepare(index)
        gc.collect()
        marks = [time.perf_counter()]

        def mark() -> None:
            marks.append(time.perf_counter())

        if recorder is None:
            result = self.body(ctx, mark)
        else:
            with recorder.span("harness.unit", "harness"):
                result = self.body(ctx, mark)
        mark()
        unit = self.verify(ctx, result)
        unit.marks = marks
        self.cleanup(ctx)
        return unit


def run_units(
    workload: Workload,
    first_index: int,
    count: int = 0,
    until: float = 0.0,
    recorder: Any = None,
) -> list[Unit]:
    """``count`` whole units, then more for as long as the clock
    (``perf_counter``) reads less than ``until``."""
    units: list[Unit] = []
    while len(units) < count or time.perf_counter() < until:
        units.append(workload.run_unit(first_index + len(units), recorder))
    return units


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """(p75 - p25) / p50 — the driver's steadiness measure."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def unit_floor(units: Sequence[Unit]) -> float:
    """``unit_wall_s``: each segment at its minimum over the units,
    summed (see the module docstring)."""
    lengths = {len(u.marks) for u in units}
    if len(lengths) != 1:
        raise ValueError(
            f"units disagree on their segment count: {sorted(lengths)}"
        )
    return sum(min(column) for column in zip(*(u.segments for u in units)))


def peak_rss_mb() -> float:
    """Peak resident set (``VmHWM``) of this process plus the largest
    among its live children, which are the pool's workers.  Read from
    ``/proc`` while they run, so that the caller picks the moment: a
    worker grows with every unit it has served."""

    def high_water_kib(pid: Any) -> int:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    workers = [
        high_water_kib(child.pid)
        for child in multiprocessing.active_children()
    ]
    return (high_water_kib("self") + max(workers, default=0)) / 1024.0


def stop_children() -> None:
    """Stop every process this one started and wait until each has
    ended, so that none outlives the run.  Beside the pool's workers
    (what ``Workload.close`` left of them) that is multiprocessing's
    resource tracker: the ``spawn`` start method launches it with the
    first worker, and Python leaves it to find out by itself, after
    this process has gone, that its pipe was closed - it was seen alive
    at the exit of three runs of six on a loaded host."""
    from multiprocessing import resource_tracker

    # the workers hold the tracker's pipe open too: they go first
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # closes the pipe and waits for the tracker; nothing if none runs
    resource_tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
# work directory and environment
# ----------------------------------------------------------------------
#: scratch files stay inside the checkout, as the benchmark's contract
#: wants; each run has a directory of its own there, gone when it ends
SCRATCH = ROOT / ".bench_work"

_CLONE_NEWNS = 0x00020000
_MS_REC, _MS_PRIVATE = 0x4000, 1 << 18


def mount_private_tmpfs(path: Path) -> None:
    """Mount a tmpfs at ``path`` that only this process and its
    children see (a mount namespace of their own), if the kernel lets
    us; it and the memory behind it go when they do, however they end.
    Where it does not, ``path`` stays the plain directory it was.

    Why: the paper campaign makes ~3750 inodes per unit and the unit
    before it is deleted.  This sandbox's root is an ext4 without a
    journal, which will not hand a deleted inode out again for 60-300 s
    and walks past every such inode on each allocation: making 3500
    small files took 0.13-0.28 s, or 0.5-1.4 s depending on how much
    the last minutes had deleted nearby, and the same campaign read
    3.1 s or 4.7 s per unit depending on what ran before it.  That
    measures the filesystem's memory of the last runs, not the program.

    Must run while the process has one thread, before NumPy loads."""
    libc = ctypes.CDLL(None)
    libc.unshare.argtypes = [ctypes.c_int]
    libc.unshare.restype = ctypes.c_int
    libc.mount.argtypes = [
        ctypes.c_char_p,
        ctypes.c_char_p,
        ctypes.c_char_p,
        ctypes.c_ulong,
        ctypes.c_void_p,
    ]
    libc.mount.restype = ctypes.c_int
    if (
        libc.unshare(_CLONE_NEWNS) == 0
        # keep the new mount from propagating back to the host's tree
        and libc.mount(b"none", b"/", None, _MS_REC | _MS_PRIVATE, None) == 0
    ):
        libc.mount(b"tmpfs", os.fsencode(path), b"tmpfs", 0, None)


def make_workdir(name: str) -> Path:
    """A fresh scratch directory of this process, removed when it
    exits; ``.bench_work`` itself stays, empty, for the next run."""
    SCRATCH.mkdir(exist_ok=True)
    mount_private_tmpfs(SCRATCH)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def filesystem_of(path: Path) -> str:
    """``fstype`` of the mount holding ``path`` (``unknown`` off Linux)."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        if target == mount or target.startswith(mount.rstrip("/") + "/"):
            if len(mount) >= len(best):
                best, fstype = mount, fields[2]
    return fstype


def environment(workdir: Path) -> dict[str, Any]:
    import numpy

    return {
        "nproc": nproc(),
        "pool_workers": POOL_WORKERS,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workdir": str(workdir),
        "workdir_filesystem": filesystem_of(workdir),
        "disk_numbers": (
            "timings include this filesystem; only counts and bytes "
            "carry over to another"
        ),
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_block(title: str, rows: dict[str, Any]) -> None:
    print(f"[{title}]")
    for key, value in rows.items():
        print(f"  {key}: {value}")


def print_metrics(
    title: str, metrics: dict[str, tuple[float, str]]
) -> None:
    print(f"[{title}]")
    width = max((len(name) for name in metrics), default=0)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6f}  {unit}")
