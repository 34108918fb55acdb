"""The unified Injector: one object, every fault site.

An :class:`Injector` is a :class:`~repro.injection.FaultInjector`, so
the process pool, engine, cache, and journal consult the same scripted
plan through their hooks.  Each site keeps a thread-safe event
counter; a fault fires when the site's ordinal enters its
``[at, at + count)`` window, and every firing is appended to
:attr:`Injector.log` so tests and the
:class:`~repro.chaos.invariants.InvariantChecker` know exactly what
chaos actually happened.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.chaos.plan import Fault, FaultPlan
from repro.exceptions import InjectedFaultError
from repro.injection import EvalFault, FaultInjector


@dataclass(frozen=True)
class InjectedFault:
    """One fault that actually fired: the scripted fault, the site
    ordinal it matched, and site-specific detail for assertions."""

    fault: Fault
    site: str
    index: int
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.fault.kind


class Injector(FaultInjector):
    """Execute a :class:`~repro.chaos.plan.FaultPlan` across all sites."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._by_site = plan.by_site()
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self.log: list[InjectedFault] = []

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget counters and the firing log so one plan can drive
        repeated campaigns (benchmark repetitions)."""
        with self._lock:
            self._counters.clear()
            self.log.clear()

    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def fired(self, kind: Optional[str] = None) -> list[InjectedFault]:
        with self._lock:
            return [
                f for f in self.log if kind is None or f.kind == kind
            ]

    def _step(
        self,
        site: str,
        worker_name: Optional[str] = None,
        task_index: Optional[int] = None,
        **detail: Any,
    ) -> list[Fault]:
        """Advance ``site``'s ordinal and return the faults whose
        window it entered, logging each firing."""
        with self._lock:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
            hits: list[Fault] = []
            for fault in self._by_site.get(site, ()):
                if fault.worker is not None:
                    matched = (
                        fault.worker == worker_name
                        and task_index is not None
                        and task_index in fault.window()
                    )
                else:
                    matched = index in fault.window()
                if matched:
                    hits.append(fault)
                    self.log.append(
                        InjectedFault(
                            fault=fault,
                            site=site,
                            index=index,
                            detail={
                                k: v
                                for k, v in {
                                    "worker": worker_name,
                                    "task_index": task_index,
                                    **detail,
                                }.items()
                                if v is not None
                            },
                        )
                    )
            return hits

    # ------------------------------------------------------------------
    # FaultInjector hooks
    # ------------------------------------------------------------------
    def should_fail(self, worker_name: str, task_index: int) -> bool:
        return bool(
            self._step(
                "worker.death",
                worker_name=worker_name,
                task_index=task_index,
            )
        )

    def should_revoke(self, worker_name: str, task_index: int) -> bool:
        return bool(
            self._step(
                "worker.revoke",
                worker_name=worker_name,
                task_index=task_index,
            )
        )

    def worker_delay(self, worker_name: str, task_index: int) -> float:
        hits = self._step(
            "worker.delay",
            worker_name=worker_name,
            task_index=task_index,
        )
        return sum(f.seconds for f in hits)

    def submit_delay(self, key: str) -> float:
        hits = self._step("pool.submit", key=key)
        return sum(f.seconds for f in hits)

    def evaluation_fault(self) -> Optional[EvalFault]:
        hits = self._step("engine.dispatch")
        if not hits:
            return None
        exception: Optional[BaseException] = None
        timeout = False
        for fault in hits:
            if fault.kind == "eval_exception":
                exception = InjectedFaultError(
                    f"injected transient evaluator fault "
                    f"(dispatch {self._counters['engine.dispatch'] - 1})"
                )
            elif fault.kind == "eval_timeout":
                timeout = True
        return EvalFault(exception=exception, timeout=timeout)

    def corrupt_cache_entry(self, path: Any) -> bool:
        hits = self._step("cache.insert", path=str(path))
        if not hits:
            return False
        target = Path(path)
        try:
            text = target.read_text()
            target.write_text(text[: max(1, len(text) // 2)] + '"garbage')
        except OSError:  # pragma: no cover - entry vanished underneath
            pass
        return True

    def journal_truncation(self) -> Optional[int]:
        hits = self._step("journal.append")
        if not hits:
            return None
        return max(f.offset for f in hits)
