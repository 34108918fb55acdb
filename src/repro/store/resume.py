"""Crash-safe campaign resume.

Reconstructs :class:`~repro.hpo.campaign.CampaignResult` state from a
write-ahead journal (plus the evaluation cache for anything that was
in flight when the process died) and *continues evolution*: this
module reads the journal back into a campaign — its config, its
evaluator, its journal reopened for appending — and
:meth:`repro.hpo.campaign.Campaign.run` does the rest, run by run
(restored verbatim, continued at the exact next generation, or
executed fresh).

Evaluations of the interrupted generation that finished before the
kill were already persisted by the evaluation cache, so replaying that
generation re-submits only uncached individuals; a steady-state run
replays its journaled evaluations instead.
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path
from typing import Any, Callable, Optional

from repro.evo.problem import Problem
from repro.exceptions import StoreError
from repro.hpo.campaign import Campaign, CampaignConfig, CampaignResult
from repro.obs.trace import get_tracer
from repro.store.cache import CachedProblem, EvaluationCache
from repro.store.journal import (
    CampaignJournal,
    JournalState,
    journal_path,
    read_journal,
)


#: config fields earlier versions wrote and this one no longer has:
#: how evaluations were chunked and committed, and which of two sorters
#: that return the same ranks ran — never what a campaign computes
RETIRED_CONFIG_FIELDS = frozenset(
    {"pipeline", "batch_chunk", "sort_algorithm"}
)


def campaign_config_from_doc(doc: dict[str, Any]) -> CampaignConfig:
    """Build a config from a journaled/stored doc, dropping
    :data:`RETIRED_CONFIG_FIELDS` and tolerating (and warning about)
    unknown fields written by future versions."""
    known = {f.name for f in dataclasses.fields(CampaignConfig)}
    unknown = sorted(set(doc) - known - RETIRED_CONFIG_FIELDS)
    if unknown:
        warnings.warn(
            "ignoring unknown campaign config fields "
            f"{unknown} (written by a newer version?)",
            stacklevel=2,
        )
    return CampaignConfig(**{k: v for k, v in doc.items() if k in known})


def problem_factory_from_spec(
    spec: dict[str, Any],
) -> Callable[[int], Problem]:
    """Build the evaluator from the spec journaled at campaign start.

    The one place a spec becomes a problem — ``repro-hpo campaign``,
    ``resume`` and the service all build through it: the surrogate is
    rebuilt per run seed; the real backend generates its (seeded,
    hence identical) dataset and shares one problem across runs.  A
    journaled ``objectives`` selection is re-applied via
    :func:`repro.hpo.objectives.with_objectives`, so resumed runs score
    (and cache-fingerprint) candidates identically to the original.
    """
    from repro.hpo.objectives import with_objectives

    objectives = spec.get("objectives")
    backend = spec.get("backend")
    if backend == "surrogate":
        from repro.hpo.landscape import SurrogateDeepMDProblem

        return lambda seed: with_objectives(
            SurrogateDeepMDProblem(seed=seed), objectives
        )
    if backend == "real":
        from repro.hpo.evaluator import DeepMDProblem, EvaluatorSettings
        from repro.md.dataset import generate_dataset

        dataset = generate_dataset(
            n_frames=int(spec["frames"]), rng=int(spec["seed"])
        )
        settings = EvaluatorSettings(numb_steps=int(spec["steps"]))
        shared = with_objectives(
            DeepMDProblem(dataset, settings=settings), objectives
        )
        return lambda seed: shared
    raise StoreError(
        f"cannot rebuild a problem from spec {spec!r}; pass "
        "problem_factory= explicitly"
    )


def cached_problem_factory(
    factory: Callable[[int], Problem], cache: Optional[EvaluationCache]
) -> Callable[[int], Problem]:
    """``factory`` with every problem it builds served through
    ``cache`` (a :class:`~repro.store.cache.CachedProblem` layer,
    never a second one); ``factory`` itself without a cache."""
    if cache is None:
        return factory

    def cached(seed: int) -> Problem:
        problem = factory(seed)
        if getattr(problem, "cache", None) is None:
            problem = CachedProblem(problem, cache)
        return problem

    return cached


def resume_campaign(
    directory: str | Path,
    problem_factory: Optional[Callable[[int], Problem]] = None,
    client: Any = None,
    tracer: Any = None,
    cache: Optional[EvaluationCache] = None,
    callback: Any = None,
) -> CampaignResult:
    """Continue a journaled campaign from ``directory``: its
    :func:`resume_loop` stepped until done.

    ``problem_factory`` defaults to rebuilding the evaluator from the
    journaled problem spec; ``cache`` wraps each run's problem in a
    :class:`~repro.store.cache.CachedProblem` so already-finished
    evaluations of the interrupted generation are served from disk.
    The journal keeps being written, so a resumed campaign can itself
    be killed and resumed again.

    Steady-state campaigns (``mode="steady-state"``) resume by
    *record replay*: the interrupted run restarts from its seed and is
    told its journaled evaluations in journaled order, so nothing that
    was journaled is evaluated again — with or without a cache — and
    the candidates it had asked for but never journaled are submitted
    first.  The continuation is bit-identical to the uninterrupted run
    wherever that run's completion order is reproducible (inline).
    """
    return resume_loop(
        directory, problem_factory, client, tracer, cache, callback
    ).run()


def resume_loop(
    directory: str | Path,
    problem_factory: Optional[Callable[[int], Problem]] = None,
    client: Any = None,
    tracer: Any = None,
    cache: Optional[EvaluationCache] = None,
    callback: Any = None,
    status: Any = None,
) -> "ResumeLoop":
    """:func:`resume_campaign` as a loop that steps (the campaign
    service steps many on one thread); ``status`` is the live snapshot
    the campaign publishes into (default: the process-wide one)."""
    directory = Path(directory)
    jpath = journal_path(directory)
    if not jpath.exists():
        raise StoreError(f"no campaign journal at {jpath}")
    state: JournalState = read_journal(jpath)
    if state.config_doc is None:
        raise StoreError(
            f"journal {jpath} has no readable campaign_begin record "
            "(torn at the very start?)"
        )
    if state.n_torn:
        warnings.warn(
            f"journal {jpath} has a torn tail "
            f"({state.n_torn} unreadable line(s) dropped); resuming "
            "from the last whole generation",
            stacklevel=3,
        )
    config = campaign_config_from_doc(state.config_doc)
    factory = cached_problem_factory(
        problem_factory
        if problem_factory is not None
        else problem_factory_from_spec(state.problem_spec),
        cache,
    )
    trc = tracer if tracer is not None else get_tracer()
    span = trc.span("store.resume", directory=str(directory)).start()
    with span.current():
        journal = CampaignJournal(
            jpath, problem_spec=state.problem_spec, mode="a"
        )
    campaign = Campaign(
        factory, config, client=client, tracer=trc, journal=journal,
        status=status,
    )
    return ResumeLoop(span, campaign, callback, state)


class ResumeLoop:
    """A journaled campaign's :class:`~repro.hpo.campaign.CampaignLoop`
    inside its ``store.resume`` span (current only within a step), its
    journal reopened for appending: when the campaign ends, however it
    ends, the journal is closed and the span tagged with how each run
    was obtained."""

    def __init__(
        self, span: Any, campaign: Campaign, callback: Any, state: Any
    ) -> None:
        self.span = span
        self.campaign = campaign
        self.n_torn = state.n_torn
        self.loop: Any = None
        self._advance(lambda: campaign.start(callback, state))

    @property
    def done(self) -> bool:
        return self.loop.done

    @property
    def result(self) -> CampaignResult:
        return self.loop.result

    def run(self) -> CampaignResult:
        """Step until done; the result."""
        while not self.done:
            self.step(None)
        return self.result

    def step(self, timeout: Optional[float] = None) -> bool:
        """Step the campaign (see :meth:`CampaignLoop.step`)."""
        return not self.done and self._advance(
            lambda: self.loop.step(timeout)
        )

    def _advance(self, advance: Callable[[], Any]) -> Any:
        journal = self.campaign.journal
        try:
            with self.span.current():
                out = advance()
                self.loop = self.loop or out  # the first call starts it
                if self.loop.done:
                    self.span.tag(
                        **self.loop.run_counts, torn_records=self.n_torn
                    )
                    journal.close()
        except BaseException:
            journal.close()
            raise
        if self.loop.done:
            self.span.end()
        return out
