"""The FaultPlan DSL: scripted, seed-deterministic fault schedules.

A plan is an ordered list of :class:`Fault` literals, each naming a
*kind* (which injection site it fires at) and an activation window
``[at, at + count)`` in that site's event ordinals::

    plan = FaultPlan([
        Fault("worker_death", at=3),
        Fault("slow_worker", at=0, count=2, seconds=0.5,
              worker="pool-1"),
        Fault("journal_truncate", at=4, offset=17),
    ])
    with use_injector(plan.injector()):
        ...run the campaign...

Sites count their own events: worker-site faults count task pickups,
``pool.submit`` counts process-pool submissions, ``engine.dispatch``
counts backend dispatches (cache and dedup hits don't dispatch), and
the store sites count inserts/appends.  Worker-site faults with an
explicit ``worker=`` match that worker's *own* task index instead (a
pool worker's ordinal survives its respawns).

:meth:`FaultPlan.random` draws a plan from a seed, so property tests
can sweep randomized schedules while staying bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np

#: kind -> injection site consulted by the matching hook
SITES: dict[str, str] = {
    "worker_death": "worker.death",
    "revoke_worker": "worker.revoke",
    "slow_worker": "worker.delay",
    "submit_delay": "pool.submit",
    "eval_exception": "engine.dispatch",
    "eval_timeout": "engine.dispatch",
    "cache_corrupt": "cache.insert",
    "journal_truncate": "journal.append",
}

ALL_KINDS: tuple[str, ...] = tuple(SITES)

#: kinds that never change *what* a campaign computes — only how long
#: it takes or what the durable store must recover from.  Campaigns
#: whose breeding happens on the main thread (generational, baselines)
#: produce bit-identical results under any plan drawn from these (a
#: process pool re-runs a dead worker's task; no task may lose more than
#: the pool's ``DEATH_RETRIES`` runs).
#: ``revoke_worker`` is recoverable too (the pool requeues a revoked
#: task onto a survivor, and the fleet policy's last resort runs it
#: in-process once none is left, with unchanged results), but it is
#: deliberately NOT listed
#: here: existing seeded plans draw ``rng.integers(len(kinds))`` over
#: this tuple, so growing it would silently reshuffle every recorded
#: equivalence test.  Pass ``kinds=(*RECOVERABLE_KINDS,
#: "revoke_worker")`` explicitly for preemption storms.
RECOVERABLE_KINDS: tuple[str, ...] = (
    "worker_death",
    "slow_worker",
    "submit_delay",
    "cache_corrupt",
    "journal_truncate",
)

#: kinds whose effect is ordering-free even inline (no pool): they
#: only stress the durable store's corruption/torn-write tolerance.
STORE_KINDS: tuple[str, ...] = ("cache_corrupt", "journal_truncate")

_DELAY_KINDS = ("slow_worker", "submit_delay")


@dataclass(frozen=True)
class Fault:
    """One scripted fault.

    ``at``/``count`` give the activation window in site-event ordinals;
    ``worker`` restricts worker-site faults to one worker (matching its
    per-worker task index); ``seconds`` parameterizes delay kinds;
    ``offset`` is the byte count a ``journal_truncate`` chops.
    """

    kind: str
    at: int = 0
    count: int = 1
    worker: Optional[str] = None
    seconds: float = 0.0
    offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SITES:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {sorted(SITES)}"
            )
        if self.at < 0 or self.count < 1:
            raise ValueError("need at >= 0 and count >= 1")
        if self.kind == "journal_truncate" and self.offset < 1:
            raise ValueError("journal_truncate needs offset >= 1 bytes")

    @property
    def site(self) -> str:
        return SITES[self.kind]

    def window(self) -> range:
        return range(self.at, self.at + self.count)

    def to_doc(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "at": int(self.at),
            "count": int(self.count),
            "worker": self.worker,
            "seconds": float(self.seconds),
            "offset": int(self.offset),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Fault":
        return cls(
            kind=str(doc["kind"]),
            at=int(doc.get("at", 0)),
            count=int(doc.get("count", 1)),
            worker=doc.get("worker"),
            seconds=float(doc.get("seconds", 0.0)),
            offset=int(doc.get("offset", 0)),
        )


@dataclass
class FaultPlan:
    """A schedule of faults plus the seed that (optionally) drew it."""

    faults: list[Fault] = field(default_factory=list)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.faults = [
            f if isinstance(f, Fault) else Fault.from_doc(f)
            for f in self.faults
        ]

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def by_site(self) -> dict[str, list[Fault]]:
        grouped: dict[str, list[Fault]] = {}
        for fault in self.faults:
            grouped.setdefault(fault.site, []).append(fault)
        return grouped

    def kinds(self) -> set[str]:
        return {f.kind for f in self.faults}

    def injector(self):
        """Build the :class:`repro.chaos.Injector` executing this plan."""
        from repro.chaos.injector import Injector

        return Injector(self)

    # ------------------------------------------------------------------
    # persistence (plans are artifacts: save them next to the journal
    # so a failing chaos run can be replayed exactly)
    # ------------------------------------------------------------------
    def to_doc(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [f.to_doc() for f in self.faults],
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            faults=[Fault.from_doc(d) for d in doc.get("faults", [])],
            seed=doc.get("seed"),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_doc(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_doc(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        kinds: Sequence[str] = RECOVERABLE_KINDS,
        n_faults: int = 3,
        horizon: int | Mapping[str, int] = 30,
        seconds: float = 0.05,
        offsets: tuple[int, int] = (3, 80),
        workers: Optional[Sequence[str]] = None,
        max_per_kind: Optional[Mapping[str, int]] = None,
    ) -> "FaultPlan":
        """Draw a seed-deterministic plan.

        ``horizon`` bounds each fault's activation ordinal — pass a
        mapping to give sites with few events (journal appends) a
        tighter bound than busy ones (task pickups).  ``max_per_kind``
        caps how many faults of one kind survive the draw (e.g. cap
        ``worker_death`` at the pool's ``DEATH_RETRIES`` so no task
        exhausts its re-runs); capped draws are dropped, so plans may
        hold fewer than ``n_faults`` faults.
        """
        kinds = tuple(kinds)
        if not kinds:
            raise ValueError("need at least one fault kind")
        unknown = set(kinds) - set(SITES)
        if unknown:
            raise ValueError(f"unknown fault kinds {sorted(unknown)}")
        rng = np.random.default_rng(seed)
        caps = dict(max_per_kind or {})
        drawn: dict[str, int] = {}
        faults: list[Fault] = []
        for _ in range(int(n_faults)):
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind in caps and drawn.get(kind, 0) >= caps[kind]:
                continue
            drawn[kind] = drawn.get(kind, 0) + 1
            bound = (
                horizon.get(kind, 30)
                if isinstance(horizon, Mapping)
                else int(horizon)
            )
            at = int(rng.integers(0, max(1, bound)))
            worker = None
            if workers and kind in (
                "worker_death",
                "revoke_worker",
                "slow_worker",
            ):
                if rng.random() < 0.5:
                    worker = str(
                        workers[int(rng.integers(len(workers)))]
                    )
            secs = (
                float(rng.uniform(0.0, seconds))
                if kind in _DELAY_KINDS
                else 0.0
            )
            offset = (
                int(rng.integers(offsets[0], offsets[1]))
                if kind == "journal_truncate"
                else 0
            )
            faults.append(
                Fault(
                    kind=kind,
                    at=at,
                    worker=worker,
                    seconds=secs,
                    offset=offset,
                )
            )
        faults.sort(key=lambda f: (f.site, f.at, f.kind))
        return cls(faults=faults, seed=int(seed))
