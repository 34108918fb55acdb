"""Asynchronous steady-state multiobjective EA.

The paper's deployment is generational: all 100 evaluations of a
generation must finish before the next starts, so fast trainings idle
while the slowest (large-``rcut``) training holds the barrier.  The
authors' own prior work (Scott, Coletti et al., "Avoiding excess
computation in asynchronous evolutionary algorithms", cited in §2.2.5)
replaces the barrier with a steady-state scheme: whenever *any*
evaluation finishes, one new offspring is bred from the current
population and submitted immediately, keeping every node busy.

:class:`SteadyStateDriver` is that scheme as a :class:`Driver` without
a barrier, under the same loop as every other driver
(:func:`repro.evo.algorithm.run_driver`): run-scoped genome dedup,
cache probing, per-evaluation journaling, the record commit, telemetry,
callback, stopper, and resume by record replay.  The
``bench_async_vs_generational`` benchmark quantifies the barrier cost
the paper's synchronous deployment pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.context import Context
from repro.evo.algorithm import (
    Driver,
    GenerationRecord,
    RestoredRun,
    random_initial_population,
)
from repro.evo.annealing import AnnealingSchedule
from repro.evo.individual import Individual
from repro.evo.nsga2 import nsga2_select
from repro.exceptions import StoreError


@dataclass(eq=False, kw_only=True)
class SteadyStateDriver(Driver):
    """Breed-on-completion as an ask/tell driver.

    ``ask`` fills the free slots (``pop_size`` minus what is in flight,
    within ``max_evaluations``): the first ``pop_size`` candidates are
    uniform random, later ones Gaussian mutants of a random member of
    the live population.  ``tell`` folds a completion into it (NSGA-II
    truncation once it overflows) and closes a record every
    ``pop_size`` completions, annealing ×``anneal_factor``, and at the
    final completion, with the final selection.

    Inline (``client=None``) the engine hands candidates back in
    submission order, cache hits or not, so a warm re-run breeds the
    cold run's genomes; on a process pool the completion order — and
    so the bred genomes — is the pool's.
    """

    initial_std: np.ndarray
    max_evaluations: int
    anneal_factor: float = 0.85

    span_name = "ea.steady_state"
    barrier = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_evaluations < self.pop_size:
            raise ValueError("budget must cover the initial population")
        self.span_tags = dict(
            budget=self.max_evaluations, pop_size=self.pop_size
        )
        self.schedule = AnnealingSchedule(
            self.initial_std, factor=self.anneal_factor, context=Context()
        )
        self.population: list[Individual] = []
        self.window: list[Individual] = []
        self.n_asked = self.n_told = 0
        #: asked before a resume but never journaled: handed out first
        self.unsent: list[Individual] = []

    @property
    def last_generation(self) -> int:
        """The ``generations`` to run it for: the budget closes records
        ``0..⌈max_evaluations / pop_size⌉ - 1``."""
        return -(-self.max_evaluations // self.pop_size) - 1

    def ask(self) -> list[Individual]:
        free = min(
            self.pop_size - (self.n_asked - self.n_told),
            self.max_evaluations - self.n_asked,
        )
        n_random = max(0, min(free, self.pop_size - self.n_asked))
        candidates = random_initial_population(
            n_random, self.init_ranges, self.problem, self.decoder,
            self.individual_cls, self.rng,
        )
        candidates += [self._breed() for _ in range(free - n_random)]
        self.n_asked += len(candidates)
        out, self.unsent = self.unsent + candidates, []
        return out

    def _breed(self) -> Individual:
        parent = self.population[int(self.rng.integers(len(self.population)))]
        child = parent.clone()
        sigmas = np.broadcast_to(self.schedule.current, child.genome.shape)
        child.genome = child.genome + self.rng.normal(
            0.0, 1.0, size=child.genome.shape
        ) * sigmas
        if self.hard_bounds is not None:
            child.genome = np.clip(
                child.genome, self.bounds[:, 0], self.bounds[:, 1]
            )
        return child

    def tell(self, evaluated: list[Individual]) -> Optional[GenerationRecord]:
        for individual in evaluated:
            self.n_told += 1
            self.window.append(individual)
            self.population.append(individual)
            if len(self.population) > self.pop_size:
                self.population = nsga2_select(self.population, self.pop_size)
        population = self.population
        if self.n_told == self.n_asked and (
            self.halted or self.n_asked == self.max_evaluations
        ):
            population = nsga2_select(population, len(population))
        elif len(self.window) < self.pop_size:
            return None
        std = self.schedule.current.copy()
        self.schedule.step()
        window, self.window = self.window, []
        return self.record(population, window, std)

    def restore(self, run: RestoredRun) -> list[GenerationRecord]:
        """Record replay: re-run from the seed the driver was built
        with, telling it each journaled outcome in journaled order in
        place of the earliest pending candidate with its genome.  What
        was asked but never journaled goes out with the next ``ask``;
        records past ``run.records`` are returned for the loop."""
        pending: list[Individual] = []
        late: list[GenerationRecord] = []
        for done in run.evaluations:
            pending += self.ask()
            genomes = [candidate.genome.tobytes() for candidate in pending]
            if done.genome.tobytes() not in genomes:
                raise StoreError(
                    f"journaled evaluation {done.uuid} is no candidate "
                    "this run asks for; cannot replay it"
                )
            del pending[genomes.index(done.genome.tobytes())]
            record = self.tell([done])
            if record is not None and record.generation >= len(run.records):
                late.append(record)
        self.unsent = pending
        return late
