"""Crash-safe campaign resume.

Reconstructs :class:`~repro.hpo.campaign.CampaignResult` state from a
write-ahead journal (plus the evaluation cache for anything that was
in flight when the process died) and *continues evolution*:

* fully journaled runs are restored verbatim;
* the interrupted run restarts at the exact next generation — its
  parents, annealed mutation deviations, and EA RNG bit-generator
  state come from the last committed generation record, so the
  continuation is bit-identical (genomes and fitnesses) to the run
  that was never killed;
* runs that never started are executed fresh with their original
  derived seeds.

Evaluations of the interrupted generation that finished before the
kill were already persisted by the evaluation cache, so replaying that
generation re-submits only uncached individuals.
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.evo.algorithm import GenerationRecord, ResumeState
from repro.evo.problem import Problem
from repro.evo.pso import PSOResumeState, rebuild_archive
from repro.evo.surrogate import SurrogateResumeState
from repro.exceptions import StoreError
from repro.hpo.campaign import CampaignConfig, CampaignResult
from repro.hpo.driver import (
    run_deepmd_nsga2,
    run_deepmd_pso,
    run_deepmd_steady_state,
    run_deepmd_surrogate,
)
from repro.hpo.representation import DeepMDRepresentation
from repro.obs.trace import get_tracer
from repro.rng import seeds_for_runs
from repro.store.cache import CachedProblem, EvaluationCache
from repro.store.journal import (
    CampaignJournal,
    JournalState,
    _group_individuals,
    journal_path,
    read_journal,
    record_from_doc,
    restore_rng,
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


def _restored_run(
    run_docs: list[dict[str, Any]],
    decoder: Any = None,
    problem: Any = None,
) -> list[GenerationRecord]:
    return [
        record_from_doc(doc, decoder=decoder, problem=problem)
        for doc in run_docs
    ]


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

    Steady-state campaigns (``config.mode == "steady-state"``) resume
    by *cache-driven replay*: the interrupted run re-executes with its
    original seed, and every evaluation that finished before the kill
    — journaled per completion and persisted in the cache — is served
    without retraining.  With the default inline execution the replay
    breeds the original run's genomes: the engine hands resolved
    candidates back in submission order whether they executed or came
    from the cache, so the only evaluations that execute are the ones
    the cache does not hold — those the kill cut off, and failed ones
    unless the cache keeps failures.  With a client, completion order
    (and hence the bred genomes past the interruption point) may
    differ, but finished work is still never re-trained.
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
    if problem_factory is None:
        problem_factory = problem_factory_from_spec(state.problem_spec)
    trc = tracer if tracer is not None else get_tracer()
    derived_seeds = seeds_for_runs(config.base_seed, config.n_runs)
    result = CampaignResult(config=config)
    journal = CampaignJournal(
        jpath, problem_spec=state.problem_spec, mode="a"
    )
    with trc.span("store.resume", directory=str(directory)) as span:
        n_restored = n_resumed = n_fresh = 0
        for run_index in range(config.n_runs):
            run_state = state.runs.get(run_index)
            seed = (
                run_state.seed
                if run_state is not None and run_state.seed is not None
                else derived_seeds[run_index]
            )
            docs = (
                run_state.contiguous_generations()
                if run_state is not None
                else []
            )
            complete = (
                run_state is not None and run_state.complete
            ) or len(docs) == config.generations + 1
            if complete and docs:
                # fully journaled — including runs the hypervolume
                # stopper ended before the generation budget: restore
                # without a problem attached (these individuals are
                # analysis data, not parents)
                result.runs.append(_restored_run(docs))
                n_restored += 1
                continue
            problem = problem_factory(seed)
            if cache is not None and getattr(problem, "cache", None) is None:
                problem = CachedProblem(problem, cache)
            cb = (
                (lambda rec, ri=run_index: callback(ri, rec))
                if callback is not None
                else None
            )
            if config.mode == "steady-state":
                # cache-driven replay: same seed, finished evaluations
                # come back as cache hits, unfinished ones train fresh
                n_prior = (
                    len(run_state.evaluations)
                    if run_state is not None
                    else 0
                )
                if n_prior:
                    journal.resume_run(run_index, n_prior)
                    n_resumed += 1
                else:
                    journal.begin_run(run_index, int(seed))
                    n_fresh += 1
                with trc.span(
                    "campaign.run",
                    run=run_index,
                    seed=int(seed),
                    mode="steady-state",
                    replayed_evaluations=n_prior,
                ):
                    records = run_deepmd_steady_state(
                        problem=problem,
                        settings=config.nsga2_settings(),
                        client=client,
                        rng=seed,
                        callback=cb,
                        tracer=trc,
                        journal=journal,
                    )
                result.runs.append(records)
                journal.end_run(run_index)
                continue
            decoder = DeepMDRepresentation.decoder()
            runner = {
                "generational": run_deepmd_nsga2,
                "pso": run_deepmd_pso,
                "surrogate": run_deepmd_surrogate,
            }[config.mode]
            if not docs:
                # never started (or nothing committed): run fresh
                journal.begin_run(run_index, int(seed))
                with trc.span(
                    "campaign.run", run=run_index, seed=int(seed)
                ):
                    records = runner(
                        problem=problem,
                        settings=config.nsga2_settings(),
                        client=client,
                        rng=seed,
                        callback=cb,
                        tracer=trc,
                        journal=journal,
                    )
                result.runs.append(records)
                journal.end_run(run_index)
                n_fresh += 1
                continue
            # interrupted mid-run: restore the prefix, continue after it
            restored = _restored_run(docs, decoder=decoder, problem=problem)
            last_doc = docs[-1]
            if not last_doc.get("rng_state"):
                raise StoreError(
                    f"run {run_index} generation "
                    f"{last_doc['generation']} journaled no RNG state; "
                    "cannot continue deterministically"
                )
            restored_rng = restore_rng(last_doc["rng_state"])
            resume_state: Any
            if config.mode == "pso":
                driver_state = last_doc.get("driver_state") or {}
                if (
                    "velocities" not in driver_state
                    or "pbest" not in driver_state
                ):
                    raise StoreError(
                        f"run {run_index} generation "
                        f"{last_doc['generation']} journaled no swarm "
                        "driver_state; cannot resume a PSO run "
                        "deterministically"
                    )
                resume_state = PSOResumeState(
                    positions=np.asarray(
                        [ind.genome for ind in restored[-1].evaluated],
                        dtype=np.float64,
                    ),
                    velocities=np.asarray(
                        driver_state["velocities"], dtype=np.float64
                    ),
                    pbest=_group_individuals(
                        driver_state["pbest"],
                        decoder=decoder,
                        problem=problem,
                    ),
                    population=list(restored[-1].population),
                    archive=rebuild_archive(
                        restored, 2 * config.pop_size
                    ),
                    generation=restored[-1].generation,
                    rng=restored_rng,
                )
            elif config.mode == "surrogate":
                resume_state = SurrogateResumeState(
                    history=[
                        ind
                        for rec in restored
                        for ind in rec.evaluated
                    ],
                    population=list(restored[-1].population),
                    generation=restored[-1].generation,
                    rng=restored_rng,
                )
            else:
                resume_state = ResumeState(
                    parents=list(restored[-1].population),
                    generation=restored[-1].generation,
                    std=restored[-1].std,
                    rng=restored_rng,
                )
            journal.resume_run(run_index, resume_state.generation)
            with trc.span(
                "campaign.run",
                run=run_index,
                seed=int(seed),
                resumed_from=resume_state.generation,
            ):
                new_records = runner(
                    problem=problem,
                    settings=config.nsga2_settings(),
                    client=client,
                    rng=seed,
                    callback=cb,
                    tracer=trc,
                    journal=journal,
                    resume_from=resume_state,
                )
            result.runs.append(restored + new_records)
            journal.end_run(run_index)
            n_resumed += 1
        journal.end_campaign()
        span.tag(
            runs_restored=n_restored,
            runs_resumed=n_resumed,
            runs_fresh=n_fresh,
            torn_records=state.n_torn,
        )
    journal.close()
    return result
