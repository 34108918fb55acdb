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

That pipeline is one :class:`Driver` (``ask`` breeds, ``tell`` selects
and anneals); the loop around it — ask, submit, tell what comes back,
the write-ahead commit, resume from a journaled prefix — is
:func:`run_driver`, which the particle swarm, the surrogate search and
the barrier-free steady-state scheme of :mod:`repro.evo.pso` /
:mod:`repro.evo.surrogate` / :mod:`repro.evo.asynchronous` run under
too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Optional, Type

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
from repro.exceptions import StoreError
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


@dataclass
class RestoredRun:
    """The committed prefix of a journaled run, which a driver's
    :meth:`Driver.restore` reads what it needs from.

    ``records`` are generations ``0..k`` rebuilt with decoder and
    problem attached, ``driver_state`` the doc journaled beside record
    ``k`` (None for drivers that journal none) and ``rng`` a generator
    restored to the exact bit-generator state after record ``k`` (None
    when the journal kept no state) — together they make the continued
    run bit-identical to an uninterrupted one.  ``evaluations``, the
    run's journaled evaluations in order, are what a driver without a
    barrier replays.
    """

    records: list[GenerationRecord]
    driver_state: Optional[dict[str, Any]]
    rng: Optional[np.random.Generator]
    evaluations: list[Individual] = field(default_factory=list)


@dataclass(eq=False)
class Driver:
    """An ask/tell optimizer, as :func:`run_driver` drives it, over a
    box of real-valued genomes.

    A subclass proposes and digests candidates; the loop owns the
    engine, spans, journal, telemetry, callback and stopper.  Every
    stochastic draw of ``ask``/``tell`` goes through ``self.rng`` in a
    fixed order, so a run is a pure function of (seed, problem) — the
    property kill/resume bit-identity rests on.
    """

    problem: Problem
    init_ranges: np.ndarray
    pop_size: int
    hard_bounds: Optional[np.ndarray] = None
    decoder: Optional[Decoder] = None
    individual_cls: Type[Individual] = RobustIndividual
    rng: RngLike = None

    #: the span each record's asks, evaluations and tells run under
    span_name: ClassVar[str] = "ea.generation"
    #: True: ``ask`` hands out a whole record, ``tell`` takes it back at
    #: once.  False: ``ask`` fills the free slots, ``tell`` takes one
    #: completion at a time (each one journaled) until a record closes
    barrier: ClassVar[bool] = True

    def __post_init__(self) -> None:
        self.rng = ensure_rng(self.rng)
        self.ranges = np.asarray(self.init_ranges, dtype=np.float64)
        #: where candidates are clipped to
        self.bounds = (
            self.ranges
            if self.hard_bounds is None
            else np.asarray(self.hard_bounds, dtype=np.float64)
        )
        #: index of the record the next :meth:`ask` proposes
        self.generation = 0
        #: what ``ask`` adds to the span's evaluated/failures tags
        self.span_tags: dict[str, Any] = {}
        #: set once the stopper fires: what is in flight is still told
        self.halted = False

    def ask(self) -> list[Individual]:
        """The unevaluated candidates to submit now."""
        raise NotImplementedError

    def tell(self, evaluated: list[Individual]) -> Optional[GenerationRecord]:
        """Digest evaluated candidates; the record they close, if any."""
        raise NotImplementedError

    def driver_state(self) -> Optional[dict[str, Any]]:
        """What the journal keeps beside the last record: the
        continuation state its population and ``std`` do not carry, as
        a JSON-able snapshot (later moves must not reach into it)."""
        return None

    def restore(self, run: RestoredRun) -> Optional[list[GenerationRecord]]:
        """The exact inverse of running ``run`` and journaling it: the
        next :meth:`ask` proposes what the uninterrupted run would have.
        Subclasses add their own state, and return any records the
        restore closed that the journal lacks, for the loop to commit."""
        self.generation = run.records[-1].generation + 1
        if run.rng is None:
            raise StoreError(
                f"generation {self.generation - 1} journaled no RNG "
                "state; cannot continue deterministically"
            )
        self.rng = run.rng

    def uniform_genomes(self, n: int) -> np.ndarray:
        """``n`` genomes drawn uniformly within the init ranges."""
        return self.rng.uniform(
            self.ranges[:, 0], self.ranges[:, 1], size=(n, len(self.ranges))
        )

    def individuals(self, genomes: Any) -> list[Individual]:
        return [
            _make_individual(
                genome, self.decoder, self.problem, self.individual_cls
            )
            for genome in genomes
        ]

    def record(
        self,
        population: list[Individual],
        evaluated: list[Individual],
        std: np.ndarray,
    ) -> GenerationRecord:
        """Close record ``self.generation`` and move to the next."""
        record = GenerationRecord(
            generation=self.generation,
            population=list(population),
            evaluated=list(evaluated),
            std=std,
            n_failures=sum(not ind.is_viable for ind in evaluated),
        )
        self.generation += 1
        return record


def run_driver(
    driver: Driver,
    generations: int,
    client: Any = None,
    dedup: bool = False,
    engine: Optional[EvaluationEngine] = None,
    tracer: Optional[NullTracer | Tracer] = None,
    journal: Any = None,
    callback: Optional[Callable[[GenerationRecord], None]] = None,
    stopper: Any = None,
    chunk_size: Optional[int] = None,
    pipeline: bool = False,
    resume_from: Optional[RestoredRun] = None,
) -> list[GenerationRecord]:
    """The one completion loop: records ``0..generations`` of ``driver``.

    Ask, submit to one :class:`repro.engine.EvaluationEngine` at
    ``chunk_size`` (None: the backend's hint), and tell the driver what
    comes back — per :attr:`Driver.barrier`, its whole ask at once or
    one completion at a time — until it closes a record, all inside a
    ``driver.span_name`` span on ``tracer`` (default: the process-wide
    tracer), tagged with the engine's fresh / cache-hit / dedup-hit
    counts over it.  The engine is ``engine``, else built from
    ``client``/``dedup``, which collapses genome-identical candidates —
    per record with a barrier (so bit-identical resume holds), per run
    without.

    ``stopper`` (duck-typed ``observe(record) -> bool``) sees each
    record right after the tell that closed it, before the next ask;
    once it fires nothing more is asked and what is in flight is still
    told, so a stopped run's records are a prefix of the unstopped
    run's.  Every record then goes through one commit: ``journal`` (a
    :class:`repro.store.journal.CampaignJournal`, duck-typed) with the
    post-record RNG state and the driver's ``driver_state``, then the
    returned list, the convergence telemetry and ``callback``.  Without
    a barrier the journal also gets each evaluation as it is told.
    ``resume_from`` continues a journaled run; the returned list then
    holds only the *new* records.

    ``pipeline`` submits the next record before the previous one
    commits, overlapping the commit with evaluation.  Records, journaled
    states and where a stop lands are unchanged (all settled before the
    next ask); only the instant the callback fires moves.
    """
    from repro.store.journal import rng_state_of  # imports this module

    trc = tracer if tracer is not None else get_tracer()
    #: campaign-fixed reference point → comparable hypervolume gauges
    telemetry = ConvergenceTelemetry()
    eng = (
        engine
        if engine is not None
        else EvaluationEngine(
            client=client,
            dedup=dedup,
            dedup_scope="batch" if driver.barrier else "run",
            tracer=trc,
        )
    )
    records: list[GenerationRecord] = []

    def finish(record: GenerationRecord) -> tuple[Any, ...]:
        """The stopper's verdict and the states to journal, taken right
        after the tell that closed ``record`` — before the next ask
        draws or moves, even if the commit waits (pipeline)."""
        if stopper is not None and not driver.halted:
            driver.halted = bool(stopper.observe(record))
        return (
            record,
            rng_state_of(driver.rng),
            driver.driver_state() if journal is not None else None,
        )

    def commit(
        record: GenerationRecord, rng_state: Any, driver_state: Any
    ) -> None:
        """Journal → list → telemetry → callback (write-ahead: the
        journal sees each record before the in-memory list)."""
        if journal is not None:
            # duck-typed journals need not know the keyword
            extra = (
                {} if driver_state is None else {"driver_state": driver_state}
            )
            journal.append_generation(record, rng_state=rng_state, **extra)
        records.append(record)
        telemetry.observe_generation(
            record.generation,
            record.population,
            evaluated=len(record.evaluated),
            failures=record.n_failures,
        )
        if callback is not None:
            callback(record)

    if resume_from is not None:
        for record in driver.restore(resume_from) or ():
            commit(*finish(record))
        eng.remember(resume_from.evaluations)

    def may_ask() -> bool:
        return not driver.halted and driver.generation <= generations

    asked: list[Individual] = []  # submitted, not yet told
    back: list[Individual] = []  # handed back, not yet told
    pending = None  # pipeline: the finished record still to commit
    while asked or may_ask():
        with trc.span(
            driver.span_name, generation=driver.generation
        ) as span:
            before = eng.stats.copy()
            record = None
            while record is None:
                if may_ask():
                    candidates = driver.ask()
                    eng.submit_batch(
                        candidates,
                        chunk_size=chunk_size,
                        new_batch=driver.barrier,
                    )
                    asked += candidates
                if pending is not None:
                    commit(*pending)
                    pending = None
                need = len(asked) if driver.barrier else 1
                while len(back) < need:
                    back += eng.wait_any()
                if driver.barrier:
                    told, asked, back = asked, [], []
                else:
                    told = [back.pop(0)]
                    asked.remove(told[0])
                    if journal is not None:
                        journal.append_evaluation(told[0])
                record = driver.tell(told)
            used = eng.stats.delta(before)
            span.tag(
                evaluated=len(record.evaluated),
                failures=record.n_failures,
                fresh=used.fresh,
                cache_hits=used.cache_hits,
                dedup_hits=used.dedup_hits,
                **driver.span_tags,
            )
        if pipeline:
            pending = finish(record)
        else:
            commit(*finish(record))
    if pending is not None:
        commit(*pending)
    return records


@dataclass(eq=False, kw_only=True)
class NSGA2Driver(Driver):
    """The Listing 1 pipeline plus the ×``anneal_factor`` decay as an
    ask/tell driver: record 0 is the random initial population, every
    later one an offspring pool merged into the parents."""

    initial_std: np.ndarray
    anneal_factor: float = 0.85
    sort_algorithm: str = "rank_ordinal"
    context: Optional[Context] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.context is None:
            self.context = Context()
        self.parents: list[Individual] = []
        self._anneal(self.initial_std)

    def _anneal(self, std: np.ndarray) -> None:
        self.schedule = AnnealingSchedule(
            std, factor=self.anneal_factor, context=self.context
        )

    def ask(self) -> list[Individual]:
        if self.generation == 0:
            return random_initial_population(
                self.pop_size,
                self.init_ranges,
                self.problem,
                decoder=self.decoder,
                individual_cls=self.individual_cls,
                rng=self.rng,
            )
        return ops.pipe(
            self.parents,
            lambda pop: ops.random_selection(pop, rng=self.rng),
            ops.clone,
            ops.mutate_gaussian(
                std=self.context["std"],
                expected_num_mutations="isotropic",
                hard_bounds=self.hard_bounds,
                rng=self.rng,
            ),
            ops.pool(len(self.parents)),
        )

    def tell(self, evaluated: list[Individual]) -> GenerationRecord:
        if self.generation == 0:
            self.parents = list(evaluated)
        else:
            combined = rank_ordinal_sort_op(
                parents=self.parents, algorithm=self.sort_algorithm
            )(evaluated)
            crowded = crowding_distance_calc(combined)
            self.parents = ops.truncation_selection(
                size=self.pop_size, key=lambda x: (-x.rank, x.distance)
            )(crowded)
            self.schedule.step()
        return self.record(
            self.parents, evaluated, self.schedule.current.copy()
        )

    def restore(self, run: RestoredRun) -> None:
        """The last population are the parents, its ``std`` the
        annealed deviations."""
        super().restore(run)
        self.parents = list(run.records[-1].population)
        self._anneal(run.records[-1].std)


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
    resume_from: Optional[RestoredRun] = None,
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

    The run is an :class:`NSGA2Driver` under :func:`run_driver`, which
    documents ``client``/``dedup``/``engine``, ``tracer`` (each
    generation is an ``ea.generation`` span), ``journal``,
    ``resume_from``, ``callback`` and ``stopper``.

    ``batch`` picks the chunk size each generation crosses the backend
    at (:meth:`~repro.engine.EvaluationEngine.evaluate_batch`):
    ``batch_chunk`` or the backend's hint, instead of the default 1 —
    one backend task per individual.  Fronts, journal records, and
    engine statistics are bit-identical either way; batch is purely a
    throughput choice for pool and fleet backends.  In-process it
    changes nothing: the inline backend runs a generation's chunks, of
    any size, as one problem call.  ``pipeline`` (implies ``batch``)
    additionally overlaps each generation's commit with the next one's
    evaluations.
    """
    driver = NSGA2Driver(
        problem,
        init_ranges,
        pop_size,
        hard_bounds,
        decoder,
        individual_cls,
        rng,
        initial_std=initial_std,
        anneal_factor=anneal_factor,
        sort_algorithm=sort_algorithm,
        context=context,
    )
    return run_driver(
        driver,
        generations,
        client=client,
        dedup=dedup,
        engine=engine,
        tracer=tracer,
        journal=journal,
        callback=callback,
        stopper=stopper,
        chunk_size=batch_chunk if batch or pipeline else 1,
        pipeline=pipeline,
        resume_from=resume_from,
    )
