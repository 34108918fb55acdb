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


def campaign_config_from_doc(doc: dict[str, Any]) -> CampaignConfig:
    """Build a config from a journaled/stored doc, tolerating (and
    warning about) unknown fields written by future versions."""
    known = {f.name for f in dataclasses.fields(CampaignConfig)}
    unknown = sorted(set(doc) - known)
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
    """Rebuild the evaluator from the spec journaled at campaign start.

    Mirrors the ``repro-hpo campaign`` backend wiring: the surrogate is
    rebuilt per run seed; the real backend regenerates its (seeded,
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


def resume_campaign(
    directory: str | Path,
    problem_factory: Optional[Callable[[int], Problem]] = None,
    client: Any = None,
    tracer: Any = None,
    cache: Optional[EvaluationCache] = None,
    callback: Any = None,
) -> CampaignResult:
    """Continue a journaled campaign from ``directory``.

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
            stacklevel=2,
        )
    config = campaign_config_from_doc(state.config_doc)
    base_factory = (
        problem_factory
        if problem_factory is not None
        else problem_factory_from_spec(state.problem_spec)
    )

    def factory(seed: int) -> Problem:
        problem = base_factory(seed)
        if cache is not None and getattr(problem, "cache", None) is None:
            problem = CachedProblem(problem, cache)
        return problem

    trc = tracer if tracer is not None else get_tracer()
    with trc.span(
        "store.resume", directory=str(directory)
    ) as span, CampaignJournal(
        jpath, problem_spec=state.problem_spec, mode="a"
    ) as journal:
        campaign = Campaign(
            factory, config, client=client, tracer=trc, journal=journal
        )
        result = campaign.run(callback, state)
        span.tag(**campaign.run_counts, torn_records=state.n_torn)
    return result
