"""The customized NSGA-II deployment for DeePMD tuning (§2.2.3).

Thin configuration layer over :func:`repro.evo.algorithm.generational_nsga2`
that wires in the paper's choices: the seven-gene representation with
Table 1 ranges and deviations, robust (MAXINT-on-failure) individuals,
the Listing 1 pipeline, the ×0.85 per-generation mutation annealing,
and the rank-ordinal non-dominated sort — and the same layer over the
rest of the optimizer zoo, one ``run_deepmd_*`` per campaign mode,
which :func:`deployment` picks among.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.context import Context
from repro.evo.algorithm import (
    GenerationRecord,
    RestoredRun,
    generational_nsga2,
)
from repro.evo.asynchronous import steady_state_nsga2
from repro.evo.individual import RobustIndividual
from repro.evo.problem import Problem
from repro.evo.pso import multi_objective_pso
from repro.evo.surrogate import surrogate_assisted_search
from repro.hpo.representation import DeepMDRepresentation
from repro.mo.stopping import HypervolumeStopper
from repro.rng import RngLike


@dataclass
class NSGA2Settings:
    """Run-scale knobs (paper values: pop 100 = one per Summit node,
    6 EA steps after the random generation, anneal 0.85).

    ``dedup_within_generation`` collapses genome-identical offspring to
    a single training per generation; duplicates receive a copy of the
    shared result.  For deterministic evaluators this changes nothing
    but the training count.
    """

    pop_size: int = 100
    generations: int = 6
    anneal_factor: float = 0.85
    sort_algorithm: str = "rank_ordinal"
    dedup_within_generation: bool = True
    #: route each generation through the engine's batch data plane
    #: (bit-identical results; a throughput choice)
    batch_evals: bool = False
    #: overlap generation-commit bookkeeping with the next
    #: generation's evaluations (implies ``batch_evals``)
    pipeline: bool = False
    #: fresh evaluations per backend chunk (None: backend's hint)
    batch_chunk: Optional[int] = None
    #: hypervolume early stop: halt once the relative HV gain stays
    #: below ``hv_stop_eps`` for ``hv_stop_patience`` consecutive
    #: generations (None disables; stopped runs are bit-identical to
    #: the same-length prefix of unstopped ones)
    hv_stop_eps: Optional[float] = None
    hv_stop_patience: int = 2

    def stopper(self) -> Optional[HypervolumeStopper]:
        """A fresh per-run stopper, or None when early stop is off."""
        if self.hv_stop_eps is None:
            return None
        return HypervolumeStopper(
            eps=self.hv_stop_eps, patience=self.hv_stop_patience
        )


def _run_kwargs(
    problem: Problem,
    settings: NSGA2Settings,
    client: Any,
    rng: RngLike,
    callback: Optional[Callable[[GenerationRecord], None]],
    tracer: Any,
    journal: Any,
    resume_from: Optional[RestoredRun],
) -> dict[str, Any]:
    """What every driver is handed: the Table 1 space, robust
    individuals, and the run's engine/journal/stopper hooks.  The
    barrier drivers' callers add ``dedup``/``pipeline``/``batch_chunk``."""
    rep = DeepMDRepresentation
    return dict(
        problem=problem,
        init_ranges=rep.init_ranges,
        initial_std=rep.mutation_std,
        pop_size=settings.pop_size,
        hard_bounds=rep.bounds,
        decoder=rep.decoder(),
        individual_cls=RobustIndividual,
        client=client,
        rng=rng,
        callback=callback,
        tracer=tracer,
        journal=journal,
        resume_from=resume_from,
        stopper=settings.stopper(),
    )


def run_deepmd_nsga2(
    problem: Problem,
    settings: Optional[NSGA2Settings] = None,
    client: Any = None,
    rng: RngLike = None,
    callback: Optional[Callable[[GenerationRecord], None]] = None,
    tracer: Any = None,
    journal: Any = None,
    resume_from: Optional[RestoredRun] = None,
) -> list[GenerationRecord]:
    """One EA deployment over the DeePMD hyperparameter space.

    ``problem`` is either the real :class:`DeepMDProblem` or the
    surrogate :class:`SurrogateDeepMDProblem`; both consume the decoded
    seven-gene phenome dict.  ``journal``/``resume_from`` are the
    durable-state hooks of :mod:`repro.store` (see
    :func:`repro.evo.algorithm.run_driver`).
    """
    settings = settings or NSGA2Settings()
    return generational_nsga2(
        generations=settings.generations,
        anneal_factor=settings.anneal_factor,
        sort_algorithm=settings.sort_algorithm,
        context=Context(),
        batch=settings.batch_evals,
        dedup=settings.dedup_within_generation,
        pipeline=settings.pipeline,
        batch_chunk=settings.batch_chunk,
        **_run_kwargs(
            problem, settings, client, rng, callback, tracer, journal,
            resume_from,
        ),
    )


def run_deepmd_steady_state(
    problem: Problem,
    settings: Optional[NSGA2Settings] = None,
    client: Any = None,
    rng: RngLike = None,
    callback: Optional[Callable[[GenerationRecord], None]] = None,
    tracer: Any = None,
    journal: Any = None,
    resume_from: Optional[RestoredRun] = None,
) -> list[GenerationRecord]:
    """One asynchronous steady-state deployment (§2.2.5) over the same
    space, budget, and engine contract as :func:`run_deepmd_nsga2`.

    The budget is ``pop_size * (generations + 1)`` — the generational
    campaign's training count — and each ``pop_size`` completions close
    a record, so the §3 analysis stack consumes either mode unchanged.
    Candidates cross the backend one per task, deduplicated per run, so
    ``batch_chunk``, ``pipeline`` and the per-generation dedup switch
    do not apply.
    """
    settings = settings or NSGA2Settings()
    return steady_state_nsga2(
        max_evaluations=settings.pop_size * (settings.generations + 1),
        anneal_factor=settings.anneal_factor,
        **_run_kwargs(
            problem, settings, client, rng, callback, tracer, journal,
            resume_from,
        ),
    )


def run_deepmd_pso(
    problem: Problem,
    settings: Optional[NSGA2Settings] = None,
    client: Any = None,
    rng: RngLike = None,
    callback: Optional[Callable[[GenerationRecord], None]] = None,
    tracer: Any = None,
    journal: Any = None,
    resume_from: Optional[RestoredRun] = None,
) -> list[GenerationRecord]:
    """One multi-objective PSO deployment (Natarajan & Caro) over the
    same space, budget, and engine contract as
    :func:`run_deepmd_nsga2`: ``pop_size`` particles for
    ``generations`` swarm moves after the random initialization, with
    the same journal/cache/resume/chaos semantics.
    """
    settings = settings or NSGA2Settings()
    return multi_objective_pso(
        iterations=settings.generations,
        dedup=settings.dedup_within_generation,
        pipeline=settings.pipeline,
        batch_chunk=settings.batch_chunk,
        **_run_kwargs(
            problem, settings, client, rng, callback, tracer, journal,
            resume_from,
        ),
    )


def run_deepmd_surrogate(
    problem: Problem,
    settings: Optional[NSGA2Settings] = None,
    client: Any = None,
    rng: RngLike = None,
    callback: Optional[Callable[[GenerationRecord], None]] = None,
    tracer: Any = None,
    journal: Any = None,
    resume_from: Optional[RestoredRun] = None,
) -> list[GenerationRecord]:
    """One surrogate-assisted acquisition deployment (RBF surrogate +
    greedy predicted-hypervolume-improvement batches) over the same
    space, budget, and engine contract as :func:`run_deepmd_nsga2`.
    """
    settings = settings or NSGA2Settings()
    return surrogate_assisted_search(
        iterations=settings.generations,
        dedup=settings.dedup_within_generation,
        pipeline=settings.pipeline,
        batch_chunk=settings.batch_chunk,
        **_run_kwargs(
            problem, settings, client, rng, callback, tracer, journal,
            resume_from,
        ),
    )


def deployment(mode: str) -> Callable[..., list[GenerationRecord]]:
    """The ``run_deepmd_*`` a campaign in ``mode`` runs once per run.

    The table is built per call: each entry is then whatever the module
    attribute holds at that moment, so a caller that wraps
    ``run_deepmd_*`` from outside (the performance ledger's tracer) is
    the one that runs.
    """
    return {
        "generational": run_deepmd_nsga2,
        "steady-state": run_deepmd_steady_state,
        "pso": run_deepmd_pso,
        "surrogate": run_deepmd_surrogate,
    }[mode]
