"""The unified evaluation engine.

Every optimizer in this package — the paper's generational NSGA-II, the
asynchronous steady-state variant of §2.2.5, the grid/random/weighted-sum
baselines, sensitivity screening, and the NAS extension — ultimately does
the same expensive thing: turn a candidate's phenome into a fitness
vector by training a model.  Related HPO-for-MLIP work swaps the
*optimizer* while keeping that evaluation loop fixed (PSO in
arXiv:2101.00049, ACE tuning in arXiv:2408.00656); this package makes
the seam explicit.

:class:`EvaluationEngine` owns the full lifecycle of one candidate
evaluation:

* genome deduplication (batch- or run-scoped);
* cache serving (any problem exposing ``serve``, e.g. a
  :class:`repro.store.cache.CachedProblem`) so a hit never crosses the
  execution backend or occupies a worker;
* dispatch through a small :class:`ExecutionBackend` protocol —
  :class:`InlineBackend` for in-process evaluation (one problem call
  per wave of queued chunks),
  :class:`ProcessPoolBackend` for real process-level parallelism on
  one machine — with its fleet policy on, an elastic fleet that
  autoscales, speculates on stragglers and survives losing every
  worker;
* the §2.2.4 exception→``MAXINT`` failure policy, in exactly one place;
* tracer spans, metrics counters, and per-evaluation journal hooks;
* :class:`EngineStats` so drivers report cache hits and duplicate
  genomes distinctly from fresh trainings.

Search strategies stay pure control flow on top: they breed candidates
and rank results, and never touch ``Problem.evaluate`` directly (a
static-analysis guard test enforces this).
"""

from repro.engine.backends import (
    ExecutionBackend,
    InlineBackend,
    SlotFuture,
    as_backend,
    evaluate_individual,
    evaluate_individuals_batch,
    evaluate_stream,
)
from repro.engine.core import EngineStats, EvaluationEngine
from repro.engine.fleet import ElasticBackend
from repro.engine.invoke import (
    apply_failure,
    call_problem,
    call_problem_batch,
    failure_fitness,
    serve_from_cache,
)
from repro.engine.pool import ProcessFuture, ProcessPoolBackend

__all__ = [
    "ElasticBackend",
    "EngineStats",
    "EvaluationEngine",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessFuture",
    "ProcessPoolBackend",
    "SlotFuture",
    "apply_failure",
    "as_backend",
    "call_problem",
    "call_problem_batch",
    "evaluate_individual",
    "evaluate_individuals_batch",
    "evaluate_stream",
    "failure_fitness",
    "serve_from_cache",
]
