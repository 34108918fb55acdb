"""The fault-injection seam every layer consults.

The chaos harness (:mod:`repro.chaos`) needs to trigger failures deep
inside the process pool, its workers, the evaluation engine, and the
durable store — but those layers must not import the harness (the
harness imports *them* for its invariant checks).  This module is the
dependency-free meeting point: a no-op :class:`FaultInjector` base
class plus a process-wide registry mirroring
:func:`repro.obs.trace.get_tracer` / ``set_tracer`` / ``use_tracer``.

Instrumented call sites resolve :func:`get_injector` at construction
time and consult it on their hot paths; with no injector installed
every hook is ``None``-cheap.  :class:`repro.chaos.Injector` subclasses
:class:`FaultInjector` to drive all hooks from one scripted,
seed-deterministic :class:`repro.chaos.FaultPlan`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class EvalFault:
    """What the engine should do to one dispatched candidate.

    ``exception`` simulates a transient evaluator crash (the candidate
    never reaches the backend); ``timeout`` marks the dispatch so the
    engine's pump treats it as overrunning its wall-clock budget even
    if the backend finishes.
    """

    exception: Optional[BaseException] = None
    timeout: bool = False


class FaultInjector:
    """No-op base: every hook reports "no fault here".

    One hook per instrumented site.  Sites pass enough context for a
    scripted plan to match deterministically; the return value is the
    injected effect (or the site's "healthy" value).
    """

    def should_fail(self, worker_name: str, task_index: int) -> bool:
        """Worker death before executing its next task."""
        return False

    def worker_delay(self, worker_name: str, task_index: int) -> float:
        """Seconds a slow worker sleeps before executing a task."""
        return 0.0

    def should_revoke(self, worker_name: str, task_index: int) -> bool:
        """Spot-style preemption: the worker is revoked mid-task and
        **not** replaced (capacity shrinks); its in-flight task is
        requeued to a survivor instead of failing."""
        return False

    def submit_delay(self, key: str) -> float:
        """Seconds the process pool stalls one task submission."""
        return 0.0

    def evaluation_fault(self) -> Optional[EvalFault]:
        """Consulted by the engine once per backend dispatch."""
        return None

    def corrupt_cache_entry(self, path) -> bool:
        """Given the on-disk path of a just-inserted cache entry,
        garble it and return True; the cache then evicts its in-memory
        copy so the corruption is actually observable."""
        return False

    def journal_truncation(self) -> Optional[int]:
        """Bytes to chop from the journal tail after an append (a
        simulated torn write), or None for a clean commit."""
        return None


_global_injector: Optional[FaultInjector] = None
_global_lock = threading.Lock()


def get_injector() -> Optional[FaultInjector]:
    """The process-wide injector (None unless a chaos plan is active)."""
    return _global_injector


def set_injector(
    injector: Optional[FaultInjector],
) -> Optional[FaultInjector]:
    """Install ``injector`` globally (``None`` disables injection);
    returns the previous injector."""
    global _global_injector
    with _global_lock:
        previous = _global_injector
        _global_injector = injector
        return previous


@contextmanager
def use_injector(
    injector: Optional[FaultInjector],
) -> Iterator[Optional[FaultInjector]]:
    """Scoped :func:`set_injector` — restores the previous injector on
    exit.  ``use_injector(None)`` is a no-op scope, convenient for
    chaos-optional code paths."""
    previous = set_injector(injector)
    try:
        yield injector
    finally:
        set_injector(previous)
