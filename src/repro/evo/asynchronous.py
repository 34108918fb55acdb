"""Asynchronous steady-state multiobjective EA.

The paper's deployment is generational: all 100 evaluations of a
generation must finish before the next starts, so fast trainings idle
while the slowest (large-``rcut``) training holds the barrier.  The
authors' own prior work (Scott, Coletti et al., "Avoiding excess
computation in asynchronous evolutionary algorithms", cited in §2.2.5)
replaces the barrier with a steady-state scheme: whenever *any*
evaluation finishes, one new offspring is bred from the current
population and submitted immediately, keeping every node busy.

:func:`steady_state_nsga2` implements that scheme on top of the same
:class:`repro.engine.EvaluationEngine` that powers the generational
driver, so it inherits the full evaluation lifecycle — run-scoped
genome dedup, cache probing (a revisited phenome never retrains),
per-evaluation journaling, tracer spans, and the exception→MAXINT
policy — instead of a bespoke submit loop.  The
``bench_async_vs_generational`` benchmark quantifies the barrier cost
the paper's synchronous deployment pays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Type

import numpy as np

from repro.context import Context
from repro.engine import EvaluationEngine
from repro.evo.annealing import AnnealingSchedule
from repro.evo.decoder import Decoder
from repro.evo.individual import Individual, RobustIndividual
from repro.evo.nsga2 import nsga2_select
from repro.evo.problem import Problem
from repro.obs.live import ConvergenceTelemetry
from repro.obs.trace import get_tracer
from repro.rng import RngLike, ensure_rng


@dataclass
class SteadyStateRecord:
    """Outcome of one steady-state run.

    ``completions`` counts every candidate the driver consumed;
    ``evaluations`` only the fresh trainings the engine actually ran —
    cache hits and duplicate genomes are broken out separately, so a
    resumed (cache-warm) run no longer reports replayed results as new
    trainings.
    """

    population: list[Individual]
    evaluated: list[Individual] = field(default_factory=list)
    evaluations: int = 0
    completions: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    wall_time: float = 0.0
    n_failures: int = 0


def steady_state_nsga2(
    problem: Problem,
    init_ranges: np.ndarray,
    initial_std: np.ndarray,
    pop_size: int,
    max_evaluations: int,
    client: Any = None,
    hard_bounds: Optional[np.ndarray] = None,
    decoder: Optional[Decoder] = None,
    individual_cls: Type[Individual] = RobustIndividual,
    anneal_factor: float = 0.85,
    anneal_every: Optional[int] = None,
    rng: RngLike = None,
    engine: Optional[EvaluationEngine] = None,
    journal: Any = None,
    tracer: Any = None,
    callback: Optional[Callable[[Individual, int], None]] = None,
    stopper: Any = None,
) -> SteadyStateRecord:
    """Barrier-free NSGA-II: breed-on-completion.

    Parameters mirror :func:`repro.evo.algorithm.generational_nsga2`;
    ``max_evaluations`` bounds the total budget (the generational
    equivalent of ``pop_size * (generations + 1)``), and
    ``anneal_every`` applies the ×``anneal_factor`` decay after that
    many completions (default: every ``pop_size`` completions, matching
    the generational schedule in expectation).

    ``client=None`` evaluates inline: everything submitted has resolved
    by the next ``wait_any``, which hands candidates back in submission
    order whether they executed or were served from the cache.  A
    re-run over a warm cache therefore consumes them in the cold run's
    order and breeds the same genomes; only what the cache does not
    hold (failed evaluations, unless it keeps failures) executes again.
    Pass a futures client for real asynchrony — completion order is
    then the cluster's — or a pre-configured ``engine`` to control
    dedup/journal/timeout directly.  ``journal`` (duck-typed
    :class:`repro.store.journal.CampaignJournal`) receives every
    completed evaluation; ``callback(individual, completions)`` fires
    on each completion.

    ``stopper`` (duck-typed ``observe_front(window, population) ->
    bool``, e.g. a :class:`repro.mo.stopping.HypervolumeStopper`) is
    consulted at every annealing-window boundary — the steady-state
    generational analogue; True stops breeding new candidates and the
    run drains what is already in flight.
    """
    gen_rng = ensure_rng(rng)
    if max_evaluations < pop_size:
        raise ValueError("budget must cover the initial population")
    anneal_every = anneal_every or pop_size
    trc = tracer if tracer is not None else get_tracer()
    eng = (
        engine
        if engine is not None
        else EvaluationEngine(
            client=client,
            dedup=True,
            dedup_scope="run",
            journal=journal,
            tracer=trc,
        )
    )
    schedule = AnnealingSchedule(
        initial_std, factor=anneal_factor, context=Context()
    )
    ranges = np.asarray(init_ranges, dtype=np.float64)
    bounds = None if hard_bounds is None else np.asarray(hard_bounds)

    def make_random() -> Individual:
        genome = gen_rng.uniform(ranges[:, 0], ranges[:, 1])
        ind = individual_cls(genome, decoder=decoder, problem=problem)
        ind.n_objectives = problem.n_objectives  # type: ignore[attr-defined]
        return ind

    def breed(population: list[Individual]) -> Individual:
        parent = population[int(gen_rng.integers(len(population)))]
        child = parent.clone()
        sigmas = np.broadcast_to(schedule.current, child.genome.shape)
        child.genome = child.genome + gen_rng.normal(
            0.0, 1.0, size=child.genome.shape
        ) * sigmas
        if bounds is not None:
            child.genome = np.clip(
                child.genome, bounds[:, 0], bounds[:, 1]
            )
        return child

    start = time.monotonic()
    before = eng.stats.copy()
    record = SteadyStateRecord(population=[])
    #: annealing windows are the steady-state generational analogue;
    #: convergence is published at each window boundary and at the end
    telemetry = ConvergenceTelemetry()
    with trc.span(
        "ea.steady_state", budget=max_evaluations, pop_size=pop_size
    ) as span:
        # seed the pipeline with the random initial population
        for _ in range(pop_size):
            eng.submit(make_random())
        submitted = pop_size
        population: list[Individual] = []
        completions = 0
        halted = False
        while eng.has_pending():
            for evaluated in eng.wait_any():
                record.evaluated.append(evaluated)
                completions += 1
                population.append(evaluated)
                if len(population) > pop_size:
                    population = nsga2_select(population, pop_size)
                if completions % anneal_every == 0:
                    schedule.step()
                    window = completions // anneal_every - 1
                    telemetry.observe_generation(
                        window,
                        population,
                        completions=completions,
                    )
                    if (
                        stopper is not None
                        and not halted
                        and stopper.observe_front(window, population)
                    ):
                        # stop breeding; in-flight work still drains
                        halted = True
                if submitted < max_evaluations and not halted:
                    eng.submit(breed(population))
                    submitted += 1
                if callback is not None:
                    callback(evaluated, completions)
        record.population = nsga2_select(
            population, min(pop_size, len(population))
        )
        # final convergence point: the selected end-of-run population
        telemetry.observe_generation(
            max(0, (completions - 1) // anneal_every),
            record.population,
            completions=completions,
        )
        used = eng.stats.delta(before)
        record.evaluations = used.fresh
        record.completions = used.completed
        record.cache_hits = used.cache_hits
        record.dedup_hits = used.dedup_hits
        record.n_failures = used.failures
        record.wall_time = time.monotonic() - start
        span.tag(
            fresh=used.fresh,
            cache_hits=used.cache_hits,
            dedup_hits=used.dedup_hits,
            failures=used.failures,
        )
    return record


def steady_state_as_generations(
    record: SteadyStateRecord,
    pop_size: int,
    initial_std: np.ndarray,
    anneal_factor: float = 0.85,
    anneal_every: Optional[int] = None,
) -> list:
    """View a steady-state run as pseudo-generations.

    The campaign/report stack is built around
    :class:`repro.evo.algorithm.GenerationRecord` streams; this chunks
    the completion-ordered ``record.evaluated`` into ``anneal_every``
    windows (the annealing cadence, i.e. the generational analogue),
    attaching the deviation vector that was current for each window.
    The final window carries the run's selected population; earlier
    windows use their own completions, mirroring what the population
    roughly was at that point.
    """
    from repro.evo.algorithm import GenerationRecord

    anneal_every = anneal_every or pop_size
    std = np.asarray(initial_std, dtype=np.float64).copy()
    chunks = [
        record.evaluated[i : i + anneal_every]
        for i in range(0, len(record.evaluated), anneal_every)
    ]
    generations: list[GenerationRecord] = []
    for g, chunk in enumerate(chunks):
        last = g == len(chunks) - 1
        generations.append(
            GenerationRecord(
                generation=g,
                population=list(record.population) if last else list(chunk),
                evaluated=list(chunk),
                std=std.copy(),
                n_failures=sum(
                    1 for ind in chunk if not ind.is_viable
                ),
            )
        )
        std = std * anneal_factor
    return generations
