"""A generational NSGA-II driver assembled from the pipeline operators.

This is the reproduction of the paper's custom NSGA-II (§2.2.3): LEAP's
``nsga2()`` convenience function was bypassed in favour of composing
the lower-level operators directly, so that the per-generation mutation
annealing could be inserted.  Each generation rebuilds exactly the
Listing 1 pipeline::

    offspring = pipe(parents,
                     ops.random_selection,
                     ops.clone,
                     mutate_gaussian(std=context['std'],
                                     expected_num_mutations='isotropic',
                                     hard_bounds=bounds),
                     eval_pool(client=client, size=len(parents)),
                     rank_ordinal_sort(parents=parents),
                     crowding_distance_calc,
                     ops.truncation_selection(size=len(parents),
                                              key=lambda x: (-x.rank,
                                                             x.distance)))

after which the standard-deviation vector is multiplied by the
annealing factor (0.85).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Type

import numpy as np

from repro.context import Context
from repro.engine import EvaluationEngine
from repro.evo import ops
from repro.evo.annealing import AnnealingSchedule
from repro.evo.decoder import Decoder
from repro.evo.individual import Individual, RobustIndividual
from repro.evo.nsga2 import (
    crowding_distance_calc,
    rank_ordinal_sort_op,
)
from repro.evo.problem import Problem
from repro.obs.live import ConvergenceTelemetry
from repro.obs.trace import NullTracer, Tracer, get_tracer
from repro.rng import RngLike, ensure_rng


@dataclass
class GenerationRecord:
    """What happened in one generation of one EA run.

    ``evaluated`` holds every model trained this generation (the data
    behind the paper's Fig. 1 level plots); ``population`` is the
    post-selection parent pool.
    """

    generation: int
    population: list[Individual]
    evaluated: list[Individual]
    std: np.ndarray
    n_failures: int = 0

    def fitness_matrix(self) -> np.ndarray:
        return np.asarray([ind.fitness for ind in self.population])

    def evaluated_fitness_matrix(self) -> np.ndarray:
        return np.asarray([ind.fitness for ind in self.evaluated])


def _make_individual(
    genome: np.ndarray,
    decoder: Optional[Decoder],
    problem: Problem,
    individual_cls: Type[Individual],
) -> Individual:
    ind = individual_cls(genome, decoder=decoder, problem=problem)
    # robust individuals fill this many objectives with MAXINT on failure
    ind.n_objectives = problem.n_objectives  # type: ignore[attr-defined]
    return ind


def random_initial_population(
    pop_size: int,
    init_ranges: np.ndarray,
    problem: Problem,
    decoder: Optional[Decoder] = None,
    individual_cls: Type[Individual] = RobustIndividual,
    rng: RngLike = None,
) -> list[Individual]:
    """Uniform random genomes within the per-gene initialization ranges
    (Table 1, column 2)."""
    gen = ensure_rng(rng)
    ranges = np.asarray(init_ranges, dtype=np.float64)
    if ranges.ndim != 2 or ranges.shape[1] != 2:
        raise ValueError("init_ranges must be an (n_genes, 2) array")
    population = []
    for _ in range(pop_size):
        genome = gen.uniform(ranges[:, 0], ranges[:, 1])
        population.append(
            _make_individual(genome, decoder, problem, individual_cls)
        )
    return population


def _count_failures(individuals: Sequence[Individual]) -> int:
    return sum(1 for ind in individuals if not ind.is_viable)


@dataclass
class ResumeState:
    """Mid-run EA state reconstructed from a campaign journal.

    ``parents`` is the post-selection population of ``generation``,
    ``std`` the annealed deviations journaled with it, and ``rng`` a
    generator restored to the exact post-generation bit-generator
    state — together they make the continued run bit-identical to an
    uninterrupted one.
    """

    parents: list[Individual]
    generation: int
    std: np.ndarray
    rng: np.random.Generator


def _capture_rng_state(rng: np.random.Generator) -> Any:
    """JSON-able bit-generator state (None for exotic generators)."""
    try:
        return rng.bit_generator.state
    except AttributeError:  # pragma: no cover - non-numpy generator
        return None


def generational_nsga2(
    problem: Problem,
    init_ranges: np.ndarray,
    initial_std: np.ndarray,
    pop_size: int,
    generations: int,
    hard_bounds: Optional[np.ndarray] = None,
    decoder: Optional[Decoder] = None,
    individual_cls: Type[Individual] = RobustIndividual,
    client: Any = None,
    anneal_factor: float = 0.85,
    sort_algorithm: str = "rank_ordinal",
    rng: RngLike = None,
    context: Optional[Context] = None,
    callback: Optional[Callable[[GenerationRecord], None]] = None,
    tracer: Optional[NullTracer | Tracer] = None,
    dedup: bool = False,
    journal: Any = None,
    resume_from: Optional[ResumeState] = None,
    engine: Optional[EvaluationEngine] = None,
    batch: bool = False,
    pipeline: bool = False,
    batch_chunk: Optional[int] = None,
    stopper: Any = None,
) -> list[GenerationRecord]:
    """Run one NSGA-II deployment; returns one record per generation.

    ``generations`` counts EA steps after the random initialization, so
    the returned list has ``generations + 1`` records with generation 0
    being the initial population — matching the paper's accounting
    ("Generation 0 was the initial random population", 7 generations of
    trainings total for 6 EA steps).

    Each generation runs inside an ``ea.generation`` span on ``tracer``
    (default: the process-wide tracer), which parents the in-process
    evaluation spans and frames the distributed ones.

    ``dedup`` collapses genome-identical offspring to one evaluation
    per generation; ``journal`` (a
    :class:`repro.store.journal.CampaignJournal`, duck-typed) receives
    each generation record plus the post-generation RNG state before
    the generation commits; ``resume_from`` continues a journaled run
    mid-stream — the returned list then holds only the *new*
    generations (the caller already has the restored prefix).

    All evaluations flow through one
    :class:`repro.engine.EvaluationEngine` (batch-scoped dedup, so the
    within-generation semantics — and bit-identical resume — are
    preserved); pass ``engine`` to supply a configured one, otherwise
    it is built from ``client``/``dedup``.

    ``batch`` picks the chunk size each generation crosses the backend
    at (:meth:`~repro.engine.EvaluationEngine.evaluate_batch`):
    ``batch_chunk`` or the backend's hint, instead of the default 1 —
    one backend task per individual.  Fronts, journal records, and
    engine statistics are bit-identical either way; batch is purely a
    throughput choice.
    ``pipeline`` (implies ``batch``) additionally overlaps each
    generation's commit bookkeeping — the journal write, telemetry,
    and ``callback`` — with the *next* generation's evaluations:
    offspring are submitted non-blocking, the previous record commits
    while workers evaluate, then the batch is drained.  Records,
    fronts, and journaled RNG states are unchanged (states are
    captured eagerly, before the next generation's draws); only the
    wall-clock instant the callback fires moves.

    ``stopper`` (a :class:`repro.mo.stopping.HypervolumeStopper`,
    duck-typed: ``observe(record) -> bool``) is consulted after every
    generation; True halts the run early.  Stopping only truncates the
    deterministic generation sequence, so a stopped run's records are
    bit-identical to the same-length prefix of the unstopped run.
    """
    if pipeline:
        batch = True
    trc = tracer if tracer is not None else get_tracer()
    ctx = context if context is not None else Context()
    #: campaign-fixed reference point → comparable hypervolume gauges
    telemetry = ConvergenceTelemetry()
    eng = (
        engine
        if engine is not None
        else EvaluationEngine(
            client=client, dedup=dedup, dedup_scope="batch", tracer=trc
        )
    )
    def _evaluate(offspring: list[Individual]) -> list[Individual]:
        return eng.evaluate_batch(
            offspring, chunk_size=batch_chunk if batch else 1
        )

    def _commit(record: GenerationRecord, rng_state: Any) -> None:
        """Journal + telemetry + callback for one finished generation
        (write-ahead: the journal sees it before the in-memory list)."""
        if journal is not None:
            journal.append_generation(record, rng_state=rng_state)
        records.append(record)
        telemetry.observe_generation(
            record.generation,
            record.population,
            evaluated=len(record.evaluated),
            failures=record.n_failures,
        )
        if callback is not None:
            callback(record)

    #: pipeline mode: the latest finished generation, not yet
    #: committed — its commit overlaps the next generation's batch
    pending: Optional[tuple[GenerationRecord, Any]] = None
    if resume_from is not None:
        gen_rng = resume_from.rng
        schedule = AnnealingSchedule(
            resume_from.std, factor=anneal_factor, context=ctx
        )
        parents = list(resume_from.parents)
        records: list[GenerationRecord] = []
        start_generation = resume_from.generation + 1
    else:
        gen_rng = ensure_rng(rng)
        schedule = AnnealingSchedule(
            initial_std, factor=anneal_factor, context=ctx
        )
        records = []
        with trc.span("ea.generation", generation=0) as span:
            parents = random_initial_population(
                pop_size,
                init_ranges,
                problem,
                decoder=decoder,
                individual_cls=individual_cls,
                rng=gen_rng,
            )
            parents = _evaluate(parents)
            record0 = GenerationRecord(
                generation=0,
                population=list(parents),
                evaluated=list(parents),
                std=schedule.current.copy(),
                n_failures=_count_failures(parents),
            )
            span.tag(evaluated=len(parents), failures=record0.n_failures)
        if pipeline:
            pending = (record0, _capture_rng_state(gen_rng))
        else:
            _commit(record0, _capture_rng_state(gen_rng))
        if stopper is not None and stopper.observe(record0):
            if pending is not None:
                _commit(*pending)
            return records
        start_generation = 1
    for generation in range(start_generation, generations + 1):
        with trc.span("ea.generation", generation=generation) as span:
            offspring = ops.pipe(
                parents,
                lambda pop: ops.random_selection(pop, rng=gen_rng),
                ops.clone,
                ops.mutate_gaussian(
                    std=ctx["std"],
                    expected_num_mutations="isotropic",
                    hard_bounds=hard_bounds,
                    rng=gen_rng,
                ),
                ops.pool(len(parents)),
            )
            if pipeline:
                # non-blocking submission: workers start on this
                # generation while the previous one's commit (journal
                # write, telemetry, callback) runs, then drain
                eng.submit_batch(
                    offspring, chunk_size=batch_chunk, new_batch=True
                )
                if pending is not None:
                    _commit(*pending)
                    pending = None
                eng.finish_batch()
            else:
                offspring = _evaluate(offspring)
            combined = rank_ordinal_sort_op(
                parents=parents, algorithm=sort_algorithm
            )(offspring)
            crowded = crowding_distance_calc(combined)
            parents = ops.truncation_selection(
                size=pop_size, key=lambda x: (-x.rank, x.distance)
            )(crowded)
            schedule.step()
            record = GenerationRecord(
                generation=generation,
                population=list(parents),
                evaluated=list(offspring),
                std=schedule.current.copy(),
                n_failures=_count_failures(offspring),
            )
            span.tag(evaluated=len(offspring), failures=record.n_failures)
        # the RNG state is captured here, before the next generation
        # draws, even when the commit itself is deferred (pipeline)
        if pipeline:
            pending = (record, _capture_rng_state(gen_rng))
        else:
            _commit(record, _capture_rng_state(gen_rng))
        if stopper is not None and stopper.observe(record):
            break
    if pending is not None:
        _commit(*pending)
    return records
