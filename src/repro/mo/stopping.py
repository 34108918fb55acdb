"""Hypervolume-based early stopping for any optimizer driver.

The paper runs a fixed 6 EA steps; with hypervolume now a first-class
telemetry signal, drivers can instead stop when the front demonstrably
stops moving: :class:`HypervolumeStopper` tracks the dominated
hypervolume of each committed generation's selected population and
fires once the *relative* gain stays below ``eps`` for ``patience``
consecutive generations.

The stopper is purely observational — it never mutates the run, so a
stopped run's records are bit-identical to the same-length prefix of
an unstopped one (the kill/resume invariant extends to early stops).
All drivers thread it the same way: observe the generation record
right after it is built, break out of the loop when ``observe``
returns True.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

from repro.mo.metrics import default_reference, hypervolume
from repro.mo.pareto import viable_fitness_rows


class HypervolumeStopper:
    """Stop when the relative hypervolume gain stalls.

    Parameters
    ----------
    eps:
        Minimum relative gain ``(hv - prev) / max(prev, tiny)`` that
        counts as progress.  Generations below it are "stalled".
    patience:
        Consecutive stalled generations required before stopping.
    reference:
        Hypervolume reference point.  ``None`` (default) resolves to
        :func:`repro.mo.metrics.default_reference` for the observed
        front's dimensionality, i.e. the same campaign-fixed corner the
        live telemetry measures against.
    min_generations:
        Never stop before this many generations have been observed
        (generation 0, the random initialization, counts).

    ``observe`` accepts a :class:`~repro.evo.algorithm.GenerationRecord`
    (duck-typed: ``generation`` + ``population``); ``observe_front``
    takes the pieces directly.  Both return True once the stop
    condition holds; the decision is sticky.
    """

    def __init__(
        self,
        eps: float = 1e-3,
        patience: int = 2,
        reference: Optional[Sequence[float]] = None,
        min_generations: int = 3,
    ) -> None:
        if eps < 0:
            raise ValueError("eps must be non-negative")
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.eps = float(eps)
        self.patience = int(patience)
        self.reference = (
            None
            if reference is None
            else tuple(float(r) for r in np.ravel(reference))
        )
        self.min_generations = int(min_generations)
        self.stopped = False
        self.stalled = 0
        #: (generation, hypervolume) per observation — the audit trail
        self.history: list[tuple[int, float]] = []

    # ------------------------------------------------------------------
    def observe(self, record: Any) -> bool:
        """Observe one committed generation record; True = stop now."""
        return self.observe_front(record.generation, record.population)

    def observe_front(self, generation: int, individuals: Any) -> bool:
        if self.stopped:
            return True
        F = viable_fitness_rows(individuals)
        if len(F):
            reference = self.reference
            if reference is None or len(reference) != F.shape[1]:
                reference = default_reference(F.shape[1])
            hv = hypervolume(F, reference)
        else:
            hv = 0.0
        if not math.isfinite(hv):
            hv = 0.0
        prev = self.history[-1][1] if self.history else None
        self.history.append((int(generation), float(hv)))
        if prev is None:
            return False
        gain = (hv - prev) / max(prev, 1e-12)
        if gain < self.eps:
            self.stalled += 1
        else:
            self.stalled = 0
        if (
            len(self.history) >= self.min_generations
            and self.stalled >= self.patience
        ):
            self.stopped = True
        return self.stopped
