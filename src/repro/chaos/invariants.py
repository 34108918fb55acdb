"""System-wide invariants, checked by replaying durable artifacts.

A campaign leaves three artifacts behind — the write-ahead journal,
the trace (task/worker lifecycle events), and the evaluation cache.
:class:`InvariantChecker` replays them and asserts the properties the
whole reliability stack exists to provide:

* every journaled evaluation reached exactly one terminal state
  (a fitness vector; never a half-written record unless a torn write
  was injected);
* failures map to ``MAXINT`` on *all* objectives, and ``MAXINT``
  appears only on failures;
* failed evaluations never enter the cache unless ``cache_failures``;
* no genome is trained twice where dedup/cache promise it won't be;
* every submitted task reaches exactly one terminal trace state
  (done / err / abandoned), and tasks requeued off a dead
  worker process complete in a *different* process (a respawned
  successor keeps its worker name, so the trace's pids decide);
* a resumed campaign holds the same records, bit for bit, as an
  uninterrupted baseline — and so does a warm rerun, or a run on a
  pool (:func:`verify_resume_equivalence`).

The checker is deliberately forgiving about what it is *given*: any
subset of (journal, trace, cache) can be checked, and the ``injected``
log from an :class:`~repro.chaos.injector.Injector` tells it which
anomalies (torn journal tails, corrupt cache entries) were deliberate.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import MAXINT
from repro.store.journal import JournalState, read_journal


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


@dataclass
class InvariantReport:
    """Outcome of one :meth:`InvariantChecker.check` pass."""

    violations: list[Violation] = field(default_factory=list)
    #: how many items each invariant inspected (zero-count checks are
    #: vacuous — tests assert on these to prove the checker saw data)
    checked: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, invariant: str, n: int = 1) -> None:
        self.checked[invariant] = self.checked.get(invariant, 0) + n

    def fail(self, invariant: str, message: str) -> None:
        self.violations.append(Violation(invariant, message))

    def summary(self) -> str:
        total = sum(self.checked.values())
        if self.ok:
            head = f"chaos invariants: OK ({total} checks)"
        else:
            head = (
                f"chaos invariants: {len(self.violations)} violation(s) "
                f"in {total} checks"
            )
        lines = [head]
        lines.extend(f"  {v}" for v in self.violations)
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def _kinds_of(injected: Iterable[Any]) -> set[str]:
    """Fault kinds present in an injector log (accepts raw Faults or
    InjectedFault wrappers)."""
    kinds = set()
    for item in injected:
        fault = getattr(item, "fault", item)
        kind = getattr(fault, "kind", None)
        if kind is not None:
            kinds.add(kind)
    return kinds


def _is_failure_fitness(fitness: Sequence[float]) -> bool:
    return all(float(f) == MAXINT for f in fitness)


def _has_maxint(fitness: Sequence[float]) -> bool:
    return any(float(f) == MAXINT for f in fitness)


class InvariantChecker:
    """Replay journal + trace + cache and assert system invariants.

    Parameters
    ----------
    journal:
        Journal path or a pre-parsed :class:`JournalState`.
    trace:
        Trace records — a list of dicts (e.g. ``Tracer.records``) or a
        JSONL path readable by :func:`repro.obs.trace.read_trace`.
    cache_dir:
        Root of an :class:`~repro.store.cache.EvaluationCache`.
    cache_failures:
        Whether the campaign cached failures (failed entries are then
        legal).
    dedup:
        Whether the campaign ran with dedup on (gates the
        trained-twice checks).
    injected:
        The :attr:`~repro.chaos.injector.Injector.log` of faults that
        actually fired — tells the checker which anomalies were
        deliberate.
    expect_torn:
        Tolerate a torn journal even without an injected
        ``journal_truncate`` (a campaign killed mid-write).
    """

    def __init__(
        self,
        journal: Optional[str | Path | JournalState] = None,
        trace: Optional[str | Path | list[dict[str, Any]]] = None,
        cache_dir: Optional[str | Path] = None,
        *,
        cache_failures: bool = False,
        dedup: bool = True,
        injected: Iterable[Any] = (),
        expect_torn: bool = False,
    ) -> None:
        self.journal = journal
        self.trace = trace
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.cache_failures = bool(cache_failures)
        self.dedup = bool(dedup)
        self.injected = list(injected)
        self.injected_kinds = _kinds_of(self.injected)
        self.expect_torn = bool(expect_torn) or (
            "journal_truncate" in self.injected_kinds
        )

    # ------------------------------------------------------------------
    def check(self) -> InvariantReport:
        report = InvariantReport()
        if self.journal is not None:
            self._check_journal(report)
        if self.cache_dir is not None:
            self._check_cache(report)
        if self.trace is not None:
            self._check_trace(report)
        return report

    # ------------------------------------------------------------------
    # journal invariants
    # ------------------------------------------------------------------
    def _journal_state(self) -> JournalState:
        if isinstance(self.journal, JournalState):
            return self.journal
        return read_journal(Path(self.journal))

    def _check_journal(self, report: InvariantReport) -> None:
        state = self._journal_state()
        report.count("journal_readable")
        if state.n_records == 0:
            if self._truncated_first_append():
                # the torn campaign_begin swallows every record appended
                # after it: read_journal rightly stops at the first tear
                report.notes.append(
                    "journal torn at its first record (truncation "
                    "injected at append 0) — nothing after it readable"
                )
            else:
                report.fail("journal_readable", "journal has no records")
            return
        if state.n_torn and not self.expect_torn:
            report.fail(
                "journal_untorn",
                f"{state.n_torn} torn record(s) but no journal "
                "truncation was injected",
            )
        elif state.n_torn:
            report.notes.append(
                f"{state.n_torn} torn journal record(s) "
                "(truncation injected — tolerated)"
            )
        if state.config_doc is None:
            report.fail(
                "journal_begin",
                "no readable campaign_begin record",
            )
            return
        for run_index, run in sorted(state.runs.items()):
            self._check_run_generations(report, run_index, run)
            self._check_run_evaluations(report, run_index, run)

    def _truncated_first_append(self) -> bool:
        """Whether the injector log shows a ``journal_truncate`` that
        fired at the journal's append 0 (a scripted fault that never
        fired does not count)."""
        return any(
            getattr(item, "kind", None) == "journal_truncate"
            and getattr(item, "index", None) == 0
            for item in self.injected
        )

    def _check_run_generations(self, report, run_index, run) -> None:
        contiguous = {
            doc["generation"] for doc in run.contiguous_generations()
        }
        gaps = sorted(set(run.generations) - contiguous)
        if gaps and not self.expect_torn:
            report.fail(
                "generations_contiguous",
                f"run {run_index} has non-contiguous generation(s) "
                f"{gaps}",
            )
        fresh_seen: dict[tuple, int] = {}
        for gen_index, doc in sorted(run.generations.items()):
            evaluated = doc.get("evaluated") or {}
            genomes = evaluated.get("genomes") or []
            fitness = evaluated.get("fitness") or []
            metadata = evaluated.get("metadata") or []
            batch_fresh: dict[tuple, int] = {}
            n_failed = 0
            for genome, fit, meta in zip(genomes, fitness, metadata):
                meta = meta or {}
                self._check_terminal(
                    report,
                    f"run {run_index} gen {gen_index}",
                    genome,
                    fit,
                    meta,
                )
                if meta.get("failed"):
                    n_failed += 1
                key = tuple(float(g) for g in genome)
                if self._is_fresh(meta):
                    batch_fresh[key] = batch_fresh.get(key, 0) + 1
                    if not meta.get("failed"):
                        fresh_seen[key] = fresh_seen.get(key, 0) + 1
            if self.dedup:
                report.count("trained_once_per_batch", len(genomes))
                for key, n in batch_fresh.items():
                    if n > 1:
                        report.fail(
                            "trained_once_per_batch",
                            f"run {run_index} gen {gen_index}: genome "
                            f"trained {n}x in one batch (dedup broken)",
                        )
            report.count("failure_count_consistent")
            if int(doc.get("n_failures", n_failed)) != n_failed:
                report.fail(
                    "failure_count_consistent",
                    f"run {run_index} gen {gen_index}: record claims "
                    f"{doc.get('n_failures')} failures, evaluated "
                    f"individuals show {n_failed}",
                )
        # with a cache attached, a successful genome trains at most
        # once per run: later generations must hit the cache.  (Failed
        # evaluations legitimately retry — failures are not cached.)
        if self.dedup and self.cache_dir is not None:
            report.count("trained_once_per_run", len(fresh_seen))
            for key, n in fresh_seen.items():
                if n > 1:
                    report.fail(
                        "trained_once_per_run",
                        f"run {run_index}: genome freshly trained {n}x "
                        "despite the evaluation cache",
                    )

    def _check_run_evaluations(self, report, run_index, run) -> None:
        """Steady-state journals: one record per completion, engine
        dedup scoped to the run."""
        fresh_seen: dict[tuple, int] = {}
        for doc in run.evaluations:
            meta = doc.get("metadata") or {}
            self._check_terminal(
                report,
                f"run {run_index} evaluation",
                doc.get("genome") or [],
                doc.get("fitness"),
                meta,
            )
            if self._is_fresh(meta) and not meta.get("failed"):
                key = tuple(float(g) for g in doc.get("genome") or [])
                fresh_seen[key] = fresh_seen.get(key, 0) + 1
        if self.dedup and run.evaluations:
            report.count("trained_once_per_run", len(fresh_seen))
            for key, n in fresh_seen.items():
                if n > 1:
                    report.fail(
                        "trained_once_per_run",
                        f"run {run_index}: genome freshly evaluated "
                        f"{n}x under run-scoped dedup",
                    )

    @staticmethod
    def _is_fresh(meta: dict[str, Any]) -> bool:
        return not (meta.get("cache_hit") or meta.get("dedup_of"))

    def _check_terminal(
        self, report, where, genome, fitness, meta
    ) -> None:
        report.count("terminal_state")
        if fitness is None:
            report.fail(
                "terminal_state",
                f"{where}: journaled individual has no fitness "
                f"(genome {genome})",
            )
            return
        report.count("failed_iff_maxint")
        failed = bool(meta.get("failed"))
        if failed and not _is_failure_fitness(fitness):
            report.fail(
                "failed_iff_maxint",
                f"{where}: failed individual fitness {fitness} is not "
                "all-MAXINT",
            )
        elif not failed and _has_maxint(fitness):
            report.fail(
                "failed_iff_maxint",
                f"{where}: MAXINT fitness without the failed flag",
            )

    # ------------------------------------------------------------------
    # cache invariants
    # ------------------------------------------------------------------
    def _check_cache(self, report: InvariantReport) -> None:
        n_corrupt = 0
        for path in sorted(self.cache_dir.glob("??/*.json")):
            report.count("cache_entry_wellformed")
            try:
                doc = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError):
                n_corrupt += 1
                continue
            report.count("failures_not_cached")
            if doc.get("failed") and not self.cache_failures:
                report.fail(
                    "failures_not_cached",
                    f"failed evaluation cached at {path.name} without "
                    "cache_failures",
                )
        if n_corrupt and "cache_corrupt" not in self.injected_kinds:
            report.fail(
                "cache_entries_readable",
                f"{n_corrupt} unreadable cache entr(ies) but no "
                "corruption was injected",
            )
        elif n_corrupt:
            report.notes.append(
                f"{n_corrupt} corrupt cache entr(ies) "
                "(corruption injected — tolerated)"
            )

    # ------------------------------------------------------------------
    # trace invariants
    # ------------------------------------------------------------------
    def _trace_records(self) -> list[dict[str, Any]]:
        if isinstance(self.trace, (str, Path)):
            from repro.obs.trace import read_trace

            return read_trace(self.trace)
        return list(self.trace or [])

    def _check_trace(self, report: InvariantReport) -> None:
        records = self._trace_records()
        events = [r for r in records if r.get("type") == "event"]
        submitted: list[str] = []
        terminal: dict[str, list[str]] = {}
        requeues: dict[str, list[Any]] = {}
        for event in events:
            name = event.get("name")
            tags = event.get("tags") or {}
            task = tags.get("task")
            if name == "task.submit":
                submitted.append(task)
            elif name in ("task.done", "task.err", "task.abandoned"):
                terminal.setdefault(task, []).append(name)
            elif name == "task.requeued":
                requeues.setdefault(task, []).append(tags.get("from_pid"))
        if not submitted:
            return
        for task in submitted:
            report.count("one_terminal_state")
            outcomes = terminal.get(task, [])
            if len(outcomes) != 1:
                report.fail(
                    "one_terminal_state",
                    f"{task} reached {len(outcomes)} terminal states: "
                    f"{outcomes}",
                )
        self._check_requeues(report, records, terminal, requeues)

    def _check_requeues(
        self, report, records, terminal, requeues
    ) -> None:
        """Requeued tasks must finish, and finish in a process other
        than the ones they were requeued off."""
        attempts: dict[str, list[tuple[int, Any]]] = {}
        for record in records:
            if (
                record.get("type") == "span"
                and record.get("name") == "worker.task"
            ):
                tags = record.get("tags") or {}
                task = tags.get("task")
                if task is not None:
                    attempts.setdefault(task, []).append(
                        (
                            int(tags.get("attempt", 0)),
                            tags.get("pid"),
                        )
                    )
        for task, dead_pids in requeues.items():
            report.count("requeued_completes")
            outcomes = terminal.get(task, [])
            if not outcomes:
                report.fail(
                    "requeued_completes",
                    f"requeued {task} never reached a terminal state",
                )
                continue
            if outcomes == ["task.done"] and attempts.get(task):
                final_pid = max(attempts[task])[1]
                report.count("requeued_elsewhere")
                if final_pid in dead_pids:
                    report.fail(
                        "requeued_elsewhere",
                        f"{task} completed in process {final_pid}, one "
                        "it was requeued off",
                    )


# ----------------------------------------------------------------------
#: CampaignConfig fields that choose how evaluations are dispatched,
#: never what they return
DISPATCH_FIELDS = frozenset({"batch_evals"})


def verify_resume_equivalence(baseline: Any, resumed: Any) -> list[Violation]:
    """Assert two campaigns hold the same bits, record for record.

    Each side is a :class:`~repro.hpo.campaign.CampaignResult` or a
    directory :func:`repro.io.save_campaign` wrote: the saved snapshot,
    which holds every record even where a chaos run tore its journal on
    purpose.  Compared: the configs (but for :data:`DISPATCH_FIELDS`),
    the number of runs and of records per run, and for each record its
    generation index and its population and evaluated genomes and
    fitness as bytes, so a one-ulp change, a ``-0.0`` for a ``0.0`` and
    two swapped records all count.  Metadata (wall-clock runtimes,
    uuids, cache provenance) is not compared.
    """
    a, b = _as_result(baseline), _as_result(resumed)
    violations: list[Violation] = []

    def fail(message: str) -> None:
        violations.append(Violation("resume_equivalence", message))

    config_a, config_b = (dataclasses.asdict(c.config) for c in (a, b))
    keys = [
        k
        for k in config_a
        if k not in DISPATCH_FIELDS and config_a[k] != config_b[k]
    ]
    if keys:
        fail(f"configs differ in {keys}")
    if len(a.runs) != len(b.runs):
        fail(f"{len(a.runs)} vs {len(b.runs)} runs")
        return violations
    for r, (run_a, run_b) in enumerate(zip(a.runs, b.runs)):
        if len(run_a) != len(run_b):
            fail(f"run {r}: {len(run_a)} vs {len(run_b)} records")
            continue
        for rec_a, rec_b in zip(run_a, run_b):
            where = f"run {r} gen {rec_a.generation}"
            if rec_a.generation != rec_b.generation:
                fail(f"{where}: the other side's record is gen "
                     f"{rec_b.generation}")
            for group in ("population", "evaluated"):
                if _bits(rec_a, group) != _bits(rec_b, group):
                    fail(f"{where}: {group} differs")
    return violations


def _as_result(campaign: Any) -> Any:
    if isinstance(campaign, (str, Path)):
        from repro.io import load_campaign

        return load_campaign(campaign)
    return campaign


def _bits(record: Any, group: str) -> list[tuple[bytes, bytes]]:
    return [
        (
            np.asarray(ind.genome, dtype=np.float64).tobytes(),
            np.asarray(ind.fitness, dtype=np.float64).tobytes(),
        )
        for ind in getattr(record, group)
    ]
