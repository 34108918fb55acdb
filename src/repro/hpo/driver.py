"""The customized NSGA-II deployment for DeePMD tuning (§2.2.3).

:func:`deployment_loop` builds one campaign mode's ask/tell driver over
the paper's choices — the seven-gene representation with Table 1
ranges and deviations, robust (MAXINT-on-failure) individuals, the
×0.85 per-generation mutation annealing — under a
:class:`repro.evo.algorithm.DriverLoop`: :class:`NSGA2Driver` is the
Listing 1 pipeline with the rank-ordinal non-dominated sort, and the
rest of the optimizer zoo is one driver per campaign mode.  A campaign
steps the loop; each ``run_deepmd_*`` runs one mode's loop to its end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.evo.algorithm import (
    Driver,
    DriverLoop,
    GenerationRecord,
    NSGA2Driver,
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


def deployment_loop(
    mode: str,
    problem: Problem,
    settings: Optional[NSGA2Settings] = None,
    rng: RngLike = None,
    **loop: Any,
) -> DriverLoop:
    """One run of a campaign in ``mode`` as a loop that steps: the
    mode's driver over the Table 1 space and robust (MAXINT-on-failure)
    individuals, under a :class:`~repro.evo.algorithm.DriverLoop` with
    the run's stopper, deduplicating genome-identical candidates.
    ``loop`` are the loop's hooks: ``client``, ``callback``,
    ``tracer``, ``journal`` and ``resume_from`` (the durable-state
    hooks of :mod:`repro.store`), ``status``."""
    settings = settings or NSGA2Settings()
    rep = DeepMDRepresentation
    space = dict(
        problem=problem,
        init_ranges=rep.init_ranges,
        pop_size=settings.pop_size,
        hard_bounds=rep.bounds,
        decoder=rep.decoder(),
        individual_cls=RobustIndividual,
        rng=rng,
    )
    annealed = dict(
        initial_std=rep.mutation_std, anneal_factor=settings.anneal_factor
    )
    generations, chunk_size = settings.generations, None
    if mode == "generational":
        driver: Driver = NSGA2Driver(**space, **annealed)
        # one candidate per task, or the backend's chunk hint
        chunk_size = None if settings.batch_evals else 1
    elif mode == "steady-state":
        # the generational campaign's training count as the budget
        driver = SteadyStateDriver(
            **space,
            **annealed,
            max_evaluations=settings.pop_size * (settings.generations + 1),
        )
        generations = driver.last_generation
    elif mode == "pso":
        driver = PSODriver(**space)
    elif mode == "surrogate":
        driver = SurrogateDriver(**space, initial_std=rep.mutation_std)
    else:
        raise ValueError(f"unknown campaign mode {mode!r}")
    return DriverLoop(
        driver,
        generations,
        dedup=True,
        stopper=settings.stopper(),
        chunk_size=chunk_size,
        **loop,
    )


def run_deepmd_nsga2(
    problem: Problem, settings: Optional[NSGA2Settings] = None, **run: Any
) -> list[GenerationRecord]:
    """One EA deployment over the DeePMD hyperparameter space.

    ``problem`` is either the real :class:`DeepMDProblem` or the
    surrogate :class:`SurrogateDeepMDProblem`; both consume the decoded
    seven-gene phenome dict.  ``run`` are :func:`deployment_loop`'s
    ``rng`` and hooks.  Each generation crosses the backend one
    candidate per task, or at the backend's chunk hint under
    ``batch_evals``.
    """
    return deployment_loop("generational", problem, settings, **run).run()


def run_deepmd_steady_state(
    problem: Problem, settings: Optional[NSGA2Settings] = None, **run: Any
) -> list[GenerationRecord]:
    """One asynchronous steady-state deployment (§2.2.5) over the same
    space, budget, and engine contract as :func:`run_deepmd_nsga2`.

    The budget is ``pop_size * (generations + 1)`` — the generational
    campaign's training count — and each ``pop_size`` completions close
    a record, so the §3 analysis stack consumes either mode unchanged.
    Candidates cross the backend one per task, deduplicated per run.
    """
    return deployment_loop("steady-state", problem, settings, **run).run()


def run_deepmd_pso(
    problem: Problem, settings: Optional[NSGA2Settings] = None, **run: Any
) -> list[GenerationRecord]:
    """One multi-objective PSO deployment (Natarajan & Caro) over the
    same space, budget, and engine contract as
    :func:`run_deepmd_nsga2`: ``pop_size`` particles for
    ``generations`` swarm moves after the random initialization, with
    the same journal/cache/resume/chaos semantics.
    """
    return deployment_loop("pso", problem, settings, **run).run()


def run_deepmd_surrogate(
    problem: Problem, settings: Optional[NSGA2Settings] = None, **run: Any
) -> list[GenerationRecord]:
    """One surrogate-assisted acquisition deployment (RBF surrogate +
    greedy predicted-hypervolume-improvement batches) over the same
    space, budget, and engine contract as :func:`run_deepmd_nsga2`.
    """
    return deployment_loop("surrogate", problem, settings, **run).run()
