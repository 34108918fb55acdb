"""Multi-objective particle-swarm optimization on the evaluation engine.

Natarajan & Caro tune GAP interatomic potentials with PSO instead of an
EA; this driver brings that scheme to the same seven-gene DeePMD space
behind the *unchanged* engine contract: every particle evaluation flows
through :class:`repro.engine.EvaluationEngine` (dedup → cache probe →
execute → MAXINT failure policy → journal), each iteration is rendered
as a :class:`~repro.evo.algorithm.GenerationRecord`, and the journal
carries enough swarm state (velocities + personal bests, via the
generation record's ``driver_state``) for a killed run to resume
bit-identically.

The multi-objective scheme is the standard MOPSO shape:

* a bounded external **archive** of nondominated viable solutions
  supplies social leaders, selected per particle by binary tournament
  on crowding distance (computed by the same NSGA-II kernels the other
  drivers use);
* each particle keeps a **personal best**, replaced when the new
  position dominates it (mutual nondominance flips a seeded coin);
* velocities follow the canonical update
  ``v ← w·v + c1·r1·(pbest − x) + c2·r2·(leader − x)``, clamped per
  gene to a fraction of the hard-bound width, positions clipped to the
  hard bounds.

Every stochastic draw goes through the single run RNG in a fixed
order, so the whole trajectory is a pure function of (seed, problem) —
the property kill/resume bit-identity rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.evo.algorithm import (
    Driver,
    GenerationRecord,
    RestoredRun,
)
from repro.evo.individual import Individual
from repro.evo.nsga2 import nsga2_select
from repro.exceptions import StoreError
from repro.mo.dominance import dominates, non_dominated_mask


def _viable(individuals: list[Individual]) -> list[Individual]:
    return [ind for ind in individuals if ind.is_viable]


def _update_archive(
    archive: list[Individual],
    newcomers: list[Individual],
    capacity: int,
) -> list[Individual]:
    """Fold newly evaluated viable individuals into the leader archive:
    keep the nondominated subset of the combined pool, crowd-truncated
    to ``capacity`` (which also refreshes rank/distance attributes used
    by tournament leader selection)."""
    pool = archive + _viable(newcomers)
    if not pool:
        return []
    F = np.asarray([ind.fitness for ind in pool])
    pool = [ind for ind, keep in zip(pool, non_dominated_mask(F)) if keep]
    return nsga2_select(pool, min(capacity, len(pool)))


@dataclass(eq=False, kw_only=True)
class PSODriver(Driver):
    """The swarm as an ask/tell driver: ``ask`` moves the particles
    (record 0: scatters them), ``tell`` updates personal bests, the
    leader archive and the elitist pool the record reports.

    Each record's ``population`` is the crowd-truncated elitist pool of
    everything seen so far (so the §3 analysis stack reads PSO runs
    unchanged), ``evaluated`` the swarm at that iteration, and ``std``
    the per-gene mean absolute velocity — the swarm's mobility, the
    closest analogue of the EA's annealed deviations.  The journal
    keeps the swarm's :meth:`driver_state` beside each record.
    """

    inertia: float = 0.6
    cognitive: float = 1.6
    social: float = 1.6
    velocity_clamp: float = 0.2
    archive_capacity: Optional[int] = None

    span_name = "pso.iteration"

    def __post_init__(self) -> None:
        super().__post_init__()
        self.vmax = self.velocity_clamp * (
            self.bounds[:, 1] - self.bounds[:, 0]
        )
        self.capacity = int(self.archive_capacity or 2 * self.pop_size)
        #: scattered by the first ``ask``
        self.positions = np.empty((0, self.ranges.shape[0]))
        self.velocities = np.zeros((self.pop_size, self.ranges.shape[0]))
        self.pbest: list[Individual] = []
        self.archive: list[Individual] = []
        self.population: list[Individual] = []

    def ask(self) -> list[Individual]:
        if self.generation == 0:
            self.positions = self.uniform_genomes(self.pop_size)
        else:
            self._move()
        return self.individuals(self.positions)

    def _move(self) -> None:
        """One canonical velocity/position update of every particle,
        in place."""
        n_genes = self.ranges.shape[0]
        gen_rng, archive, pbest = self.rng, self.archive, self.pbest
        positions, velocities = self.positions, self.velocities
        for i in range(self.pop_size):
            if archive:
                if len(archive) == 1:
                    leader = archive[0]
                else:
                    a, b = gen_rng.integers(len(archive), size=2)
                    la, lb = archive[int(a)], archive[int(b)]
                    da = la.distance if la.distance is not None else 0.0
                    db = lb.distance if lb.distance is not None else 0.0
                    leader = la if da >= db else lb
            else:
                leader = pbest[i]
            r1 = gen_rng.uniform(size=n_genes)
            r2 = gen_rng.uniform(size=n_genes)
            velocities[i] = (
                self.inertia * velocities[i]
                + self.cognitive * r1 * (pbest[i].genome - positions[i])
                + self.social * r2 * (leader.genome - positions[i])
            )
            velocities[i] = np.clip(velocities[i], -self.vmax, self.vmax)
            positions[i] = np.clip(
                positions[i] + velocities[i],
                self.bounds[:, 0],
                self.bounds[:, 1],
            )

    def tell(self, swarm: list[Individual]) -> GenerationRecord:
        if self.generation == 0:
            self.pbest = list(swarm)
        else:
            for i, candidate in enumerate(swarm):
                if not candidate.is_viable:
                    continue
                incumbent = self.pbest[i]
                if not incumbent.is_viable or dominates(
                    candidate.fitness, incumbent.fitness
                ):
                    self.pbest[i] = candidate
                elif not dominates(
                    incumbent.fitness, candidate.fitness
                ) and self.rng.random() < 0.5:
                    self.pbest[i] = candidate
        self.archive = _update_archive(self.archive, swarm, self.capacity)
        self.population = nsga2_select(
            list(self.population) + list(swarm), self.pop_size
        )
        return self.record(
            self.population, swarm, np.abs(self.velocities).mean(axis=0)
        )

    def driver_state(self) -> dict[str, Any]:
        """Velocities and personal bests: with the last record's swarm
        positions and the archive re-folded over the records, all a
        killed run needs to move on."""
        from repro.store.journal import _group_doc

        return {
            "velocities": [[float(v) for v in row] for row in self.velocities],
            "pbest": _group_doc(self.pbest),
        }

    def restore(self, run: RestoredRun) -> None:
        """Positions are the last record's swarm, velocities and
        personal bests the journaled ``driver_state``, and the archive
        the same fold the live run performs, replayed over the records
        — so it matches the uninterrupted one member-for-member (order
        included)."""
        from repro.store.journal import _group_individuals

        super().restore(run)
        last, state = run.records[-1], run.driver_state or {}
        if "velocities" not in state or "pbest" not in state:
            raise StoreError(
                f"generation {last.generation} journaled no swarm "
                "driver_state; cannot resume a PSO run deterministically"
            )
        self.positions = np.asarray(
            [ind.genome for ind in last.evaluated], dtype=np.float64
        )
        self.velocities = np.asarray(state["velocities"], dtype=np.float64)
        self.pbest = _group_individuals(
            state["pbest"], decoder=self.decoder, problem=self.problem
        )
        self.population = list(last.population)
        self.archive = []
        for record in run.records:
            self.archive = _update_archive(
                self.archive, record.evaluated, self.capacity
            )
