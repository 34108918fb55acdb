"""Objective selection: promote training cost to a first-class
objective.

The paper optimizes two validation losses (energy RMSE, force RMSE).
The follow-up literature trades accuracy against *training cost*; this
module makes that a configuration choice rather than a new problem
class: ``--objectives loss,time`` (or any alias spelling) appends a
deterministic runtime-minutes objective to the base two, and every
driver, journal record, cache entry, and telemetry gauge downstream is
already N-D-safe.

Canonical objective names (in fitness-vector order):

``energy``, ``force``
    The base problem's two validation losses — always present, always
    first.
``runtime``
    Expected training wall-clock minutes from the calibrated
    :class:`repro.hpc.runtime_model.TrainingRuntimeModel` — the
    *deterministic* mean (``rcut``-driven, no jitter), so identical
    genomes always receive identical fitness vectors and cache /
    kill-resume bit-identity is preserved.  The *sampled* runtime with
    jitter still lands in ``metadata["runtime_minutes"]``, unchanged.

Aliases accepted by :func:`parse_objectives`: ``loss`` expands to
``energy,force``; ``time`` and ``cost`` are synonyms of ``runtime``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.evo.problem import BatchProblem, Problem
from repro.hpc.runtime_model import TrainingRuntimeModel
from repro.mo.metrics import default_reference

#: the base problem's objective names, in fitness order
BASE_OBJECTIVES: tuple[str, ...] = ("energy", "force")

#: every canonical objective this layer knows how to produce
KNOWN_OBJECTIVES: tuple[str, ...] = ("energy", "force", "runtime")

#: alias → canonical expansion
_ALIASES: dict[str, tuple[str, ...]] = {
    "loss": ("energy", "force"),
    "time": ("runtime",),
    "cost": ("runtime",),
    "runtime": ("runtime",),
    "energy": ("energy",),
    "force": ("force",),
}


def parse_objectives(
    spec: Optional[str | Sequence[str]],
) -> tuple[str, ...]:
    """Normalize an objective selection to canonical names.

    Accepts a comma-separated string (``"loss,time"``), a sequence of
    names/aliases, or None (→ the base two objectives).  The result
    always starts with ``energy, force`` (the base problem emits them
    unconditionally); ``runtime`` may follow.  Unknown names raise.
    """
    if spec is None:
        return BASE_OBJECTIVES
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",") if p.strip()]
    else:
        parts = [str(p).strip() for p in spec if str(p).strip()]
    if not parts:
        return BASE_OBJECTIVES
    expanded: list[str] = []
    for part in parts:
        canon = _ALIASES.get(part.lower())
        if canon is None:
            raise ValueError(
                f"unknown objective {part!r}; known: "
                f"{sorted(_ALIASES)} (canonical: {KNOWN_OBJECTIVES})"
            )
        for name in canon:
            if name not in expanded:
                expanded.append(name)
    for name in BASE_OBJECTIVES:
        if name not in expanded:
            expanded.insert(BASE_OBJECTIVES.index(name), name)
    ordered = tuple(
        name for name in KNOWN_OBJECTIVES if name in expanded
    )
    return ordered


def reference_point(objectives: Sequence[str]) -> tuple[float, ...]:
    """The campaign-fixed hypervolume reference for an objective
    selection (the canonical order means this is just the first
    ``len(objectives)`` entries of the default corner)."""
    names = parse_objectives(tuple(objectives))
    return default_reference(len(names))


class RuntimeCostProblem(BatchProblem):
    """Append expected training minutes as a third minimization
    objective.

    Wraps any two-objective DeePMD problem (surrogate or real) and
    extends each fitness vector with the deterministic
    ``mean_runtime_minutes(rcut)`` of the calibrated runtime model —
    the same ``rcut^3`` law the sampled ``runtime_minutes`` metadata
    follows, minus the jitter, so the objective is a pure function of
    the genome.  Failures pass through untouched (the engine's MAXINT
    policy then fills all three objectives).
    """

    n_objectives = 3

    def __init__(
        self,
        problem: Problem,
        runtime_model: Optional[TrainingRuntimeModel] = None,
    ) -> None:
        self.problem = problem
        self.runtime_model = (
            runtime_model
            if runtime_model is not None
            else TrainingRuntimeModel()
        )

    # ------------------------------------------------------------------
    def cost_minutes(self, phenome: Any) -> float:
        """The deterministic cost objective for one phenome."""
        return float(
            self.runtime_model.mean_runtime_minutes(
                float(phenome["rcut"])
            )
        )

    def _extend(self, fitness, meta, phenome):
        cost = self.cost_minutes(phenome)
        extended = np.concatenate(
            [np.atleast_1d(np.asarray(fitness, dtype=np.float64)), [cost]]
        )
        meta = dict(meta)
        meta["cost_minutes"] = cost
        return extended, meta

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        """Extend each slot of the inner batch outcome; failed slots
        (exception instances) pass through untouched."""
        from repro.engine.invoke import call_problem_batch

        inner = call_problem_batch(self.problem, phenomes, uuids=uuids)
        return [
            slot
            if isinstance(slot, BaseException)
            else self._extend(slot[0], slot[1], phenome)
            for slot, phenome in zip(inner, phenomes)
        ]

    def cache_fingerprint(self) -> dict[str, Any]:
        """The inner problem's fingerprint plus the objective set —
        two- and three-objective campaigns must never share cache
        entries (their fitness vectors differ)."""
        inner = getattr(self.problem, "cache_fingerprint", None)
        doc = dict(inner() if inner is not None else {"problem": "unknown"})
        doc["objectives"] = ",".join(KNOWN_OBJECTIVES[:3])
        return doc


def problem_spec_for(
    spec: dict[str, Any], objectives: Optional[str | Sequence[str]]
) -> dict[str, Any]:
    """``spec`` with a non-base objective selection threaded in, so the
    evaluator built from it (and any later resume) is the matching
    extended problem.  An explicit ``objectives`` key in ``spec`` wins."""
    spec = dict(spec)
    names = parse_objectives(objectives)
    if names != BASE_OBJECTIVES:
        spec.setdefault("objectives", list(names))
    return spec


def with_objectives(
    problem: Problem, objectives: Optional[str | Sequence[str]]
) -> Problem:
    """Apply an objective selection to a base two-objective problem.

    The base selection returns the problem unchanged; a selection
    including ``runtime`` wraps it in :class:`RuntimeCostProblem`.
    This is the single seam the CLI, the journal's problem spec, the
    resume engine, and the campaign service all route through.
    """
    names = parse_objectives(objectives)
    if names == BASE_OBJECTIVES:
        return problem
    return RuntimeCostProblem(problem)
