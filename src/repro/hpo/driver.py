"""The customized NSGA-II deployment for DeePMD tuning (§2.2.3).

Each ``run_deepmd_*`` builds one optimizer's ask/tell driver over the
paper's choices — the seven-gene representation with Table 1 ranges
and deviations, robust (MAXINT-on-failure) individuals, the ×0.85
per-generation mutation annealing — and hands it to
:func:`repro.evo.algorithm.run_driver`: :class:`NSGA2Driver` is the
Listing 1 pipeline with the rank-ordinal non-dominated sort, and the
rest of the optimizer zoo is one ``run_deepmd_*`` per campaign mode,
which :func:`deployment` picks among.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.evo.algorithm import (
    GenerationRecord,
    NSGA2Driver,
    RestoredRun,
    run_driver,
)
from repro.evo.asynchronous import SteadyStateDriver
from repro.evo.individual import RobustIndividual
from repro.evo.problem import Problem
from repro.evo.pso import PSODriver
from repro.evo.surrogate import SurrogateDriver
from repro.hpo.representation import DeepMDRepresentation
from repro.mo.stopping import HypervolumeStopper
from repro.rng import RngLike


@dataclass
class NSGA2Settings:
    """Run-scale knobs (paper values: pop 100 = one per Summit node,
    6 EA steps after the random generation, anneal 0.85).

    Every deployment collapses genome-identical candidates to a single
    training (per record with a barrier, per run without); duplicates
    receive a copy of the shared result.  For deterministic evaluators
    this changes nothing but the training count.
    """

    pop_size: int = 100
    generations: int = 6
    anneal_factor: float = 0.85
    #: route each generation through the engine's batch data plane at
    #: the backend's chunk hint (bit-identical results; a throughput
    #: choice)
    batch_evals: bool = False
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


def _driver_fields(
    problem: Problem, settings: NSGA2Settings, rng: RngLike
) -> dict[str, Any]:
    """What every driver is built over: the Table 1 space and robust
    (MAXINT-on-failure) individuals."""
    rep = DeepMDRepresentation
    return dict(
        problem=problem,
        init_ranges=rep.init_ranges,
        pop_size=settings.pop_size,
        hard_bounds=rep.bounds,
        decoder=rep.decoder(),
        individual_cls=RobustIndividual,
        rng=rng,
    )


def _run_kwargs(
    settings: NSGA2Settings,
    client: Any,
    callback: Optional[Callable[[GenerationRecord], None]],
    tracer: Any,
    journal: Any,
    resume_from: Optional[RestoredRun],
) -> dict[str, Any]:
    """What :func:`run_driver` is handed for every driver: the run's
    engine/journal/stopper hooks, deduplicating genome-identical
    candidates."""
    return dict(
        client=client,
        dedup=True,
        tracer=tracer,
        journal=journal,
        callback=callback,
        stopper=settings.stopper(),
        resume_from=resume_from,
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
    :func:`repro.evo.algorithm.run_driver`).  Each generation crosses
    the backend one candidate per task, or at the backend's chunk hint
    under ``batch_evals``.
    """
    settings = settings or NSGA2Settings()
    driver = NSGA2Driver(
        **_driver_fields(problem, settings, rng),
        initial_std=DeepMDRepresentation.mutation_std,
        anneal_factor=settings.anneal_factor,
    )
    return run_driver(
        driver,
        settings.generations,
        chunk_size=None if settings.batch_evals else 1,
        **_run_kwargs(
            settings, client, callback, tracer, journal, resume_from
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
    Candidates cross the backend one per task, deduplicated per run.
    """
    settings = settings or NSGA2Settings()
    driver = SteadyStateDriver(
        **_driver_fields(problem, settings, rng),
        initial_std=DeepMDRepresentation.mutation_std,
        max_evaluations=settings.pop_size * (settings.generations + 1),
        anneal_factor=settings.anneal_factor,
    )
    return run_driver(
        driver,
        driver.last_generation,
        **_run_kwargs(
            settings, client, callback, tracer, journal, resume_from
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
    return run_driver(
        PSODriver(**_driver_fields(problem, settings, rng)),
        settings.generations,
        **_run_kwargs(
            settings, client, callback, tracer, journal, resume_from
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
    driver = SurrogateDriver(
        **_driver_fields(problem, settings, rng),
        initial_std=DeepMDRepresentation.mutation_std,
    )
    return run_driver(
        driver,
        settings.generations,
        **_run_kwargs(
            settings, client, callback, tracer, journal, resume_from
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
