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

That pipeline is one :class:`NSGA2Driver` (``ask`` breeds, ``tell``
selects and anneals); the loop around it — ask, submit, tell what comes
back, the write-ahead commit, resume from a journaled prefix — is a
:class:`DriverLoop`, which steps, so one thread can drive many runs;
:func:`run_driver` steps one until it is done.  Every run is
``run_driver(SomeDriver(...), generations, ...)``: the particle swarm,
the surrogate search and the
barrier-free steady-state scheme of :mod:`repro.evo.pso` /
:mod:`repro.evo.surrogate` / :mod:`repro.evo.asynchronous` too, as are
the fixed designs (:class:`DesignDriver`) of the baselines.
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


class DriverLoop:
    """The one completion loop, one step at a time: records
    ``0..generations`` of ``driver``.

    Ask, submit to one :class:`repro.engine.EvaluationEngine` at
    ``chunk_size`` (None: the backend's hint), and tell the driver what
    comes back — per :attr:`Driver.barrier`, its whole ask at once or
    one completion at a time — until it closes a record, inside a
    ``driver.span_name`` span on ``tracer`` (default: the process-wide
    tracer) tagged with the engine's fresh / cache-hit / dedup-hit
    counts over it.  :meth:`step` goes as far as the next tell:
    ``step(None)`` blocks until there is something to tell,
    ``step(0)`` only polls, so one thread can step many loops; the
    span is current only within a step.  With a barrier the chunk size
    changes no result, only the throughput on a pool; a driver without
    one always crosses one candidate per task, since the order its
    candidates complete in is part of its bits.  The engine is
    ``engine``, else built from ``client``/``dedup``, which collapses
    genome-identical candidates — per record with a barrier (so
    bit-identical resume holds), per run without; it and the
    convergence telemetry publish into ``status`` (default: the
    process-wide one).

    ``stopper`` (duck-typed ``observe(record) -> bool``) sees each
    record right after the tell that closed it, before the next ask;
    once it fires nothing more is asked and what is in flight is still
    told, so a stopped run's records are a prefix of the unstopped
    run's.  Every record then goes through one commit: ``journal`` (a
    :class:`repro.store.journal.CampaignJournal`, duck-typed) with the
    post-record RNG state and the driver's ``driver_state``, then
    :attr:`records`, the telemetry and ``callback``.  Without a barrier
    the journal also gets each evaluation as it is told.
    ``resume_from`` continues a journaled run; :attr:`records` then
    holds only the *new* records.
    """

    def __init__(
        self,
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
        resume_from: Optional[RestoredRun] = None,
        status: Any = None,
    ) -> None:
        self.driver = driver
        self.generations = generations
        self.tracer = tracer if tracer is not None else get_tracer()
        self.journal = journal
        self.callback = callback
        self.stopper = stopper
        #: campaign-fixed reference point → comparable hypervolume gauges
        self.telemetry = ConvergenceTelemetry(status=status)
        self.engine = (
            engine
            if engine is not None
            else EvaluationEngine(
                client=client,
                dedup=dedup,
                dedup_scope="batch" if driver.barrier else "run",
                tracer=self.tracer,
                status=status,
            )
        )
        self.chunk_size = 1 if not driver.barrier else chunk_size
        self.records: list[GenerationRecord] = []
        self._asked: list[Individual] = []  # submitted, not yet told
        self._back: list[Individual] = []  # handed back, not yet told
        #: the open record's span and the engine stats at its start
        self._span: Any = None
        self._before: Any = None
        #: this tell's candidates are asked for; waiting for completions
        self._waiting = False
        if resume_from is not None:
            for record in driver.restore(resume_from) or ():
                self._commit(record)
            self.engine.remember(resume_from.evaluations)

    @property
    def done(self) -> bool:
        """Every record is committed (or the stopper fired and what was
        in flight has been told)."""
        return self._span is None and not (self._asked or self._may_ask())

    def _may_ask(self) -> bool:
        driver = self.driver
        return not driver.halted and driver.generation <= self.generations

    def run(self) -> list[GenerationRecord]:
        """Step until done; the new records."""
        while not self.done:
            self.step(None)
        return self.records

    def step(self, timeout: Optional[float] = None) -> bool:
        """Advance to the next tell, waiting at most ``timeout`` seconds
        for completions (None: as long as it takes); whether anything
        was asked or told."""
        if self.done:
            return False
        driver, eng = self.driver, self.engine
        if self._span is None:
            self._span = self.tracer.span(
                driver.span_name, generation=driver.generation
            ).start()
            self._before = eng.stats.copy()
        moved = False
        with self._span.current():
            if not self._waiting:
                if self._may_ask():
                    candidates = driver.ask()
                    eng.submit_batch(
                        candidates,
                        chunk_size=self.chunk_size,
                        new_batch=driver.barrier,
                    )
                    self._asked += candidates
                self._waiting = moved = True
            need = len(self._asked) if driver.barrier else 1
            while len(self._back) < need:
                back = eng.wait_any(timeout=timeout)
                if not back and timeout is not None:
                    return moved
                self._back += back
            self._waiting = False
            if driver.barrier:
                told, self._asked, self._back = self._asked, [], []
            else:
                told = [self._back.pop(0)]
                self._asked.remove(told[0])
                if self.journal is not None:
                    self.journal.append_evaluation(told[0])
            record = driver.tell(told)
            if record is None:
                return True
            used = eng.stats.delta(self._before)
            self._span.tag(
                evaluated=len(record.evaluated),
                failures=record.n_failures,
                fresh=used.fresh,
                cache_hits=used.cache_hits,
                dedup_hits=used.dedup_hits,
                **driver.span_tags,
            )
        span, self._span = self._span, None
        span.end()
        self._commit(record)
        return True

    def _commit(self, record: GenerationRecord) -> None:
        """Stopper → journal → records → telemetry → callback, right
        after the tell that closed ``record`` (write-ahead: the journal
        sees each record, with the post-record RNG state and the
        driver's ``driver_state``, before the in-memory list)."""
        from repro.store.journal import rng_state_of  # imports this module

        driver = self.driver
        if self.stopper is not None and not driver.halted:
            driver.halted = bool(self.stopper.observe(record))
        if self.journal is not None:
            state = driver.driver_state()
            # duck-typed journals need not know the keyword
            extra = {} if state is None else {"driver_state": state}
            self.journal.append_generation(
                record, rng_state=rng_state_of(driver.rng), **extra
            )
        self.records.append(record)
        self.telemetry.observe_generation(
            record.generation,
            record.population,
            evaluated=len(record.evaluated),
            failures=record.n_failures,
        )
        if self.callback is not None:
            self.callback(record)


def run_driver(
    driver: Driver, generations: int, **loop: Any
) -> list[GenerationRecord]:
    """Run ``driver`` to its last record: a :class:`DriverLoop` (which
    takes the keyword arguments ``loop``) stepped until done; the new
    records."""
    return DriverLoop(driver, generations, **loop).run()


@dataclass(eq=False, kw_only=True)
class NSGA2Driver(Driver):
    """The Listing 1 pipeline plus the ×``anneal_factor`` decay as an
    ask/tell driver: record 0 is the random initial population, every
    later one an offspring pool merged into the parents.

    Under :func:`run_driver`, ``generations`` counts EA steps after the
    random initialization, as the paper does ("Generation 0 was the
    initial random population": 7 generations of trainings for 6 EA
    steps).
    """

    initial_std: np.ndarray
    anneal_factor: float = 0.85
    context: Optional[Context] = None

    #: how ``ask`` draws each parent to clone (Listing 1: uniformly)
    select: ClassVar[Callable[..., Any]] = staticmethod(ops.random_selection)

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
            lambda pop: self.select(pop, rng=self.rng),
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
            self.parents = self.survivors(evaluated)
            self.schedule.step()
        return self.record(
            self.parents, evaluated, self.schedule.current.copy()
        )

    def survivors(self, offspring: list[Individual]) -> list[Individual]:
        """The next parents out of the parents and ``offspring``: rank,
        crowding distance, truncation (Listing 1)."""
        combined = rank_ordinal_sort_op(parents=self.parents)(offspring)
        return ops.truncation_selection(
            size=self.pop_size, key=lambda x: (-x.rank, x.distance)
        )(crowding_distance_calc(combined))

    def restore(self, run: RestoredRun) -> None:
        """The last population are the parents, its ``std`` the
        annealed deviations."""
        super().restore(run)
        self.parents = list(run.records[-1].population)
        self._anneal(run.records[-1].std)


@dataclass(eq=False, kw_only=True)
class DesignDriver(Driver):
    """A fixed, pre-drawn list of ``genomes`` as one record: ``ask``
    hands them all out (run it for ``generations=0``), ``tell`` closes
    the record with them as its population."""

    genomes: list[np.ndarray]

    def ask(self) -> list[Individual]:
        return self.individuals(self.genomes)

    def tell(self, evaluated: list[Individual]) -> GenerationRecord:
        return self.record(evaluated, evaluated, np.zeros(len(self.ranges)))
