"""The per-layer ledger: what gets a span, and what the spans add up to.

A layer is a module of ``repro``; a metric's full name is
``<layer>.<metric>``.  :data:`PER_LAYER` is the list ``BENCHMARK.json``
declares, :func:`targets` the public callables the traced run wraps,
and :func:`campaign_plane` / :func:`trainer_plane` turn the spans of the
traced units into the declared numbers.  A layer a workload bypasses
reads 0 there — that is the prediction a later change is held to.

Times are means per traced unit (campaign plane) or per evaluation
(trainer plane), in seconds unless the name says ``_ms`` or ``us_``.
"""

from __future__ import annotations

import pickle
import statistics
from typing import Any, Iterable, Sequence

from spans import Span, SpanRecorder, Target, totals

#: (name, unit, better) — the per-layer metrics of BENCHMARK.json
PER_LAYER: list[tuple[str, str, str]] = [
    ("store.cache.insert_s", "s", "lower"),
    ("store.cache.inserts", "count", "lower"),
    ("store.cache.lookup_s", "s", "lower"),
    ("store.cache.lookups", "count", "lower"),
    ("store.cache.hits", "count", "higher"),
    ("store.cache.hit_ratio", "1", "higher"),
    ("store.cache.key_s", "s", "lower"),
    ("store.cache.files_created", "count", "lower"),
    ("store.cache.bytes_written", "B", "lower"),
    ("store.journal.append_s", "s", "lower"),
    ("store.journal.appends", "count", "lower"),
    ("store.journal.fsyncs", "count", "lower"),
    ("store.journal.bytes_written", "B", "lower"),
    ("store.journal.read_s", "s", "lower"),
    ("store.resume.replay_s", "s", "lower"),
    ("store.resume.restored_generations", "count", "higher"),
    ("io.save_campaign_s", "s", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("hpo.campaign.self_s", "s", "lower"),
    ("engine.core.self_s", "s", "lower"),
    ("engine.core.submitted", "count", "lower"),
    ("engine.core.fresh", "count", "lower"),
    ("engine.core.cache_hits", "count", "higher"),
    ("engine.core.dedup_hits", "count", "higher"),
    ("engine.core.failed", "count", "lower"),
    ("engine.core.useful_ratio", "1", "higher"),
    ("engine.pool.spawn_s", "s", "lower"),
    ("engine.pool.dispatch_self_s", "s", "lower"),
    ("engine.pool.wait_s", "s", "lower"),
    ("engine.pool.worker_busy_s", "s", "lower"),
    ("engine.pool.worker_utilization", "1", "higher"),
    ("engine.pool.segment_bytes", "B", "lower"),
    ("engine.pool.payload_bytes_per_eval", "B", "lower"),
    ("engine.pool.eval_latency_p50_ms", "ms", "lower"),
    ("engine.pool.eval_latency_p90_ms", "ms", "lower"),
    ("engine.pool.requeues", "count", "lower"),
    ("engine.pool.worker_deaths", "count", "lower"),
    ("engine.pool.dispatch_evals_per_s", "1/s", "higher"),
    ("engine.fleet.dispatch_evals_per_s", "1/s", "higher"),
    ("distributed.dispatch_evals_per_s", "1/s", "higher"),
    ("service.dispatch_evals_per_s", "1/s", "higher"),
    ("evo.driver_self_s", "s", "lower"),
    ("evo.select_s", "s", "lower"),
    ("evo.select_calls", "count", "lower"),
    ("evo.variation_s", "s", "lower"),
    ("evo.generational.us_per_eval", "us", "lower"),
    ("evo.generational_batch.us_per_eval", "us", "lower"),
    ("evo.steady_state.us_per_eval", "us", "lower"),
    ("evo.pso.us_per_eval", "us", "lower"),
    ("evo.surrogate.us_per_eval", "us", "lower"),
    ("mo.hypervolume_s", "s", "lower"),
    ("mo.hypervolume_calls", "count", "lower"),
    ("hpo.landscape.self_s", "s", "lower"),
    ("hpo.landscape.evals", "count", "lower"),
    ("hpo.landscape.us_per_eval", "us", "lower"),
    ("hpo.evaluator.self_s", "s", "lower"),
    ("hpo.evaluator.evals", "count", "lower"),
    ("deepmd.data.neighbor_build_s", "s", "lower"),
    ("deepmd.data.neighbor_build_calls", "count", "lower"),
    ("deepmd.data.neighbors_per_atom", "count", "lower"),
    ("deepmd.model.forward_ms_per_step", "ms", "lower"),
    ("deepmd.model.env_matrix_ms_per_step", "ms", "lower"),
    ("autodiff.double_backward_ms_per_step", "ms", "lower"),
    ("autodiff.force_backward_ms_per_step", "ms", "lower"),
    ("autodiff.tensors_per_step", "count", "lower"),
    ("nn.loss_ms_per_step", "ms", "lower"),
    ("nn.optimizer_ms_per_step", "ms", "lower"),
    ("deepmd.training.self_s", "s", "lower"),
    ("deepmd.training.validation_s", "s", "lower"),
    ("deepmd.training.step_ms_p50", "ms", "lower"),
    ("deepmd.training.step_ms_p90", "ms", "lower"),
    ("deepmd.training.steps", "count", "higher"),
    ("md.dataset_generate_s", "s", "lower"),
    ("obs.telemetry_s", "s", "lower"),
    ("obs.tracer_overhead_ratio", "1", "lower"),
    ("obs.spans_emitted", "count", "lower"),
    ("harness.units", "count", "higher"),
    ("harness.unit_wall_median_s", "s", "lower"),
    ("harness.unit_wall_max_s", "s", "lower"),
    ("harness.unit_spread", "1", "lower"),
    ("harness.trace_overhead_ratio", "1", "lower"),
    ("harness.attributed_ratio", "1", "higher"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


# ----------------------------------------------------------------------
# observers: counts read where the work happens
# ----------------------------------------------------------------------
def _engine_built(rec: SpanRecorder, span: Span, result: Any, engine: Any,
                  *args: Any, **kwargs: Any) -> None:
    rec.seen["engines"].append(engine)


def _landscape_batch(rec: SpanRecorder, span: Span, result: Any,
                     *args: Any, **kwargs: Any) -> None:
    rec.counts["hpo.landscape.batched_evals"] += len(result)


def _training_done(rec: SpanRecorder, span: Span, result: Any,
                   *args: Any, **kwargs: Any) -> None:
    rec.counts["deepmd.training.steps"] += result.steps_completed


def _batches_built(rec: SpanRecorder, span: Span, result: Any,
                   *args: Any, **kwargs: Any) -> None:
    for batch in result:
        rec.counts["deepmd.data.neighbors"] += float(batch.mask.sum())
        rec.counts["deepmd.data.atoms"] += batch.n_frames * batch.n_atoms


def _forward_kind(rec: SpanRecorder, span: Span, result: Any, model: Any,
                  batch: Any, create_graph: bool = False) -> None:
    # the validation passes share the callable; only training steps
    # (create_graph=True) count towards the per-step numbers
    if not create_graph:
        span.name = "deepmd.model.forward_eval"


def _chunk_shipped(rec: SpanRecorder, span: Span, result: Any, pool: Any,
                   individuals: Iterable[Any]) -> None:
    """What ``ProcessPoolBackend.submit_batch`` puts on the pipes,
    recomputed from its arguments: the per-chunk payload, and — the
    first time a problem is seen — the shared segment every worker gets."""
    members = list(individuals)
    if not members:
        return
    first = members[0]
    rec.counts["engine.pool.payload_evals"] += len(members)
    rec.counts["engine.pool.payload_bytes"] += len(
        pickle.dumps(
            ("seg0-00000000", [(ind.genome, ind.uuid) for ind in members]),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    if all(first.problem is not known for known in rec.seen["segments"]):
        rec.seen["segments"].append(first.problem)
        rec.counts["engine.pool.segment_bytes"] += pool.n_workers * len(
            pickle.dumps(
                (first.problem, first.decoder, type(first)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )


def targets() -> list[Target]:
    """Every public callable the traced run wraps, by layer."""
    T = Target
    journal = "repro.store.journal:CampaignJournal."
    engine = "repro.engine.core:EvaluationEngine."
    out = [
        # store
        T("repro.store.cache:EvaluationCache.insert", "store.cache.insert", "store.cache"),
        T("repro.store.cache:EvaluationCache.lookup", "store.cache.lookup", "store.cache"),
        T("repro.store.cache:EvaluationCache.contains", "store.cache.lookup", "store.cache"),
        T("repro.store.cache:evaluation_key", "store.cache.key", "store.cache"),
        T("repro.store.cache:CachedProblem.evaluate_with_metadata", "store.cache.problem", "store.cache"),
        T("repro.store.cache:CachedProblem.evaluate_batch_with_metadata", "store.cache.problem", "store.cache"),
        T("os:fsync", "store.journal.fsync", "store.journal"),
        T("repro.store.journal:read_journal", "store.journal.read", "store.journal"),
        T("repro.store.resume:resume_campaign", "store.resume.replay", "store.resume"),
        T("repro.io.campaign_store:save_campaign", "io.save_campaign", "io"),
        # campaign, drivers, selection kernels
        T("repro.hpo.campaign:Campaign.run", "hpo.campaign.run", "hpo.campaign"),
        T("repro.evo.ops:pipe", "evo.variation", "evo"),
        T("repro.evo.nsga2:rank_ordinal_sort_op", "evo.select.sort", "evo", factory=True),
        T("repro.evo.nsga2:crowding_distance_calc", "evo.select.crowd", "evo"),
        T("repro.evo.ops:truncation_selection", "evo.select.truncate", "evo", factory=True),
        T("repro.evo.nsga2:nsga2_select", "evo.select.nsga2", "evo"),
        T("repro.mo.metrics:hypervolume", "mo.hypervolume", "mo"),
        T("repro.obs.live:ConvergenceTelemetry.observe_generation", "obs.telemetry", "obs"),
        # engine and pool
        T(engine + "__init__", "engine.core.init", "engine.core", observe=_engine_built),
        T(engine + "drain", "engine.core.drain", "engine.core"),
        T("repro.engine.pool:ProcessPoolBackend.submit", "engine.pool.dispatch", "engine.pool"),
        T("repro.engine.pool:ProcessPoolBackend.submit_batch", "engine.pool.dispatch", "engine.pool", observe=_chunk_shipped),
        T("repro.engine.pool:ProcessFuture.done", "engine.pool.dispatch", "engine.pool"),
        T("repro.engine.pool:ProcessFuture.result", "engine.pool.dispatch", "engine.pool"),
        # problems
        T("repro.hpo.landscape:SurrogateDeepMDProblem.evaluate_with_metadata", "hpo.landscape.eval", "hpo.landscape"),
        T("repro.hpo.landscape:SurrogateDeepMDProblem.evaluate_batch_with_metadata", "hpo.landscape.eval_batch", "hpo.landscape", observe=_landscape_batch),
        T("repro.hpo.evaluator:DeepMDProblem.evaluate_with_metadata", "hpo.evaluator.eval", "hpo.evaluator"),
        T("repro.deepmd.runner:run_training", "deepmd.runner.run", "hpo.evaluator"),
        # trainer
        T("repro.deepmd.data:prepare_batches", "deepmd.data.neighbor_build", "deepmd.data", observe=_batches_built),
        T("repro.md.neighbors:NeighborList.build", "md.neighbors.build", "deepmd.data"),
        T("repro.deepmd.training:Trainer.__init__", "deepmd.training.init", "deepmd.training"),
        T("repro.deepmd.training:Trainer.train", "deepmd.training.loop", "deepmd.training", observe=_training_done),
        T("repro.deepmd.training:Trainer.evaluate_validation", "deepmd.training.validation", "deepmd.training"),
        T("repro.deepmd.model:DeepPotModel.energy_and_forces", "deepmd.model.forward", "deepmd.model", observe=_forward_kind),
        T("repro.deepmd.descriptor:SmoothDescriptor.environment_matrix", "deepmd.descriptor.env_matrix", "deepmd.model"),
        T("repro.autodiff.tensor:grad", "autodiff.force_backward", "autodiff"),
        T("repro.autodiff.tensor:Tensor.backward", "autodiff.double_backward", "autodiff"),
        T("repro.nn.loss:EnergyForceLoss.__call__", "nn.loss", "nn"),
        T("repro.nn.optimizer:Adam.step", "nn.optimizer", "nn"),
        T("repro.nn.optimizer:Optimizer.zero_grad", "nn.optimizer", "nn"),
    ]
    out += [
        T(journal + method, "store.journal.append", "store.journal")
        for method in (
            "begin_campaign",
            "begin_run",
            "resume_run",
            "append_generation",
            "append_evaluation",
            "end_run",
            "end_campaign",
        )
    ]
    out += [
        T(f"repro.hpo.driver:run_deepmd_{driver}", "evo.driver", "evo")
        for driver in ("nsga2", "steady_state", "pso", "surrogate")
    ]
    out += [
        T(engine + method, "engine.core", "engine.core")
        for method in (
            "evaluate",
            "evaluate_batch",
            "submit",
            "submit_batch",
            "finish_batch",
            "wait_any",
        )
    ]
    return out


# ----------------------------------------------------------------------
# spans -> declared numbers
# ----------------------------------------------------------------------
def blank() -> dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def nested_total(spans: Sequence[Span], parent: str, child: str) -> float:
    """Inclusive time of ``child`` spans opened directly under a
    ``parent`` span."""
    by_key = {(s.thread, s.index): s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != child:
            continue
        above = by_key.get((s.thread, s.parent))
        if above is not None and above.name == parent:
            total += s.duration
    return total


def campaign_plane(
    spans: Sequence[Span],
    counts: dict[str, float],
    engines: Sequence[Any],
    facts: Sequence[dict[str, float]],
) -> dict[str, float]:
    """Store, engine, pool and driver numbers of ``len(facts)`` traced
    units, as means per unit."""
    n = len(facts)
    name, layer = totals(spans)
    out: dict[str, float] = {}
    for key in {k for unit_facts in facts for k in unit_facts}:
        out[key] = sum(f.get(key, 0.0) for f in facts) / n
    out["store.cache.insert_s"] = name["store.cache.insert"].total_s / n
    out["store.cache.lookup_s"] = name["store.cache.lookup"].total_s / n
    out["store.cache.key_s"] = name["store.cache.key"].total_s / n
    # parent-side calls stand in where the unit holds no cache stats
    # (behind a pool the workers do the inserting)
    out.setdefault(
        "store.cache.inserts", name["store.cache.insert"].calls / n
    )
    out.setdefault(
        "store.cache.lookups", name["store.cache.lookup"].calls / n
    )
    lookups = out.get("store.cache.lookups", 0.0)
    if lookups:
        out["store.cache.hit_ratio"] = (
            out.get("store.cache.hits", 0.0) / lookups
        )
    out["store.journal.append_s"] = name["store.journal.append"].total_s / n
    out["store.journal.appends"] = name["store.journal.append"].calls / n
    out["store.journal.fsyncs"] = name["store.journal.fsync"].calls / n
    out["store.journal.read_s"] = name["store.journal.read"].total_s / n
    out["store.resume.replay_s"] = name["store.resume.replay"].self_s / n
    out["io.save_campaign_s"] = name["io.save_campaign"].total_s / n
    out["hpo.campaign.self_s"] = name["hpo.campaign.run"].self_s / n

    pooled = name["engine.pool.dispatch"].calls > 0
    drain_s = name["engine.core.drain"].self_s / n
    out["engine.core.self_s"] = layer["engine.core"].self_s / n - (
        drain_s if pooled else 0.0
    )
    if pooled:
        # with a pool behind it, the drain loop is the parent waiting
        out["engine.pool.wait_s"] = drain_s
        out["engine.pool.dispatch_self_s"] = (
            name["engine.pool.dispatch"].self_s / n
        )
        out["engine.pool.segment_bytes"] = (
            counts.get("engine.pool.segment_bytes", 0.0) / n
        )
        shipped = counts.get("engine.pool.payload_evals", 0.0)
        if shipped:
            out["engine.pool.payload_bytes_per_eval"] = (
                counts["engine.pool.payload_bytes"] / shipped
            )
    for field, metric in (
        ("submitted", "submitted"),
        ("fresh", "fresh"),
        ("cache_hits", "cache_hits"),
        ("dedup_hits", "dedup_hits"),
        ("failures", "failed"),
    ):
        out[f"engine.core.{metric}"] = (
            sum(getattr(e.stats, field) for e in engines) / n
        )
    if out["engine.core.submitted"]:
        out["engine.core.useful_ratio"] = (
            out["engine.core.fresh"] / out["engine.core.submitted"]
        )

    out["evo.driver_self_s"] = name["evo.driver"].self_s / n
    out["evo.select_s"] = (
        sum(
            name[f"evo.select.{k}"].self_s
            for k in ("sort", "crowd", "truncate", "nsga2")
        )
        / n
    )
    out["evo.select_calls"] = name["evo.select.sort"].calls / n
    out["evo.variation_s"] = name["evo.variation"].total_s / n
    out["mo.hypervolume_s"] = name["mo.hypervolume"].total_s / n
    out["mo.hypervolume_calls"] = name["mo.hypervolume"].calls / n
    out["obs.telemetry_s"] = name["obs.telemetry"].self_s / n
    # a scalar call is one evaluation even when it raises (a designed
    # failure); a batch call reports its own size
    evals = name["hpo.landscape.eval"].calls + counts.get(
        "hpo.landscape.batched_evals", 0.0
    )
    landscape_s = layer["hpo.landscape"].self_s
    out["hpo.landscape.self_s"] = landscape_s / n
    out["hpo.landscape.evals"] = evals / n
    if evals:
        out["hpo.landscape.us_per_eval"] = landscape_s / evals * 1e6
    unit = name["harness.unit"]
    if unit.total_s:
        out["harness.attributed_ratio"] = 1.0 - unit.self_s / unit.total_s
    return out


def trainer_plane(
    spans: Sequence[Span], counts: dict[str, float]
) -> dict[str, float]:
    """Trainer numbers of the evaluations in ``spans``: seconds per
    evaluation, milliseconds per training step."""
    name, layer = totals(spans)
    evals = name["hpo.evaluator.eval"].calls
    steps = counts.get("deepmd.training.steps", 0.0)
    if not evals or not steps:
        return {}
    forward = name["deepmd.model.forward"].total_s
    force_backward = nested_total(
        spans, "deepmd.model.forward", "autodiff.force_backward"
    )
    env_matrix = nested_total(
        spans, "deepmd.model.forward", "deepmd.descriptor.env_matrix"
    )
    per_step = 1e3 / steps
    return {
        "hpo.evaluator.self_s": layer["hpo.evaluator"].self_s / evals,
        "hpo.evaluator.evals": float(evals),
        "deepmd.data.neighbor_build_s": (
            name["deepmd.data.neighbor_build"].total_s / evals
        ),
        "deepmd.data.neighbor_build_calls": (
            name["md.neighbors.build"].calls / evals
        ),
        "deepmd.data.neighbors_per_atom": (
            counts["deepmd.data.neighbors"] / counts["deepmd.data.atoms"]
        ),
        "deepmd.model.forward_ms_per_step": (
            (forward - force_backward) * per_step
        ),
        "deepmd.model.env_matrix_ms_per_step": env_matrix * per_step,
        "autodiff.force_backward_ms_per_step": force_backward * per_step,
        "autodiff.double_backward_ms_per_step": (
            name["autodiff.double_backward"].total_s * per_step
        ),
        "nn.loss_ms_per_step": name["nn.loss"].total_s * per_step,
        "nn.optimizer_ms_per_step": name["nn.optimizer"].total_s * per_step,
        "deepmd.training.self_s": layer["deepmd.training"].self_s / evals,
        "deepmd.training.validation_s": (
            name["deepmd.training.validation"].total_s / evals
        ),
    }


def pool_plane(
    records: Sequence[dict[str, Any]], workers: int, wall_s: float, units: int
) -> dict[str, float]:
    """Worker-side numbers from the program's own trace: the
    ``worker.task`` spans the pool ships back, and the submit/done
    events around them.  A chunk's latency is the latency of each of
    its evaluations."""
    busy = sum(
        r["dur"]
        for r in records
        if r["type"] == "span" and r["name"] == "worker.task"
    )
    submitted: dict[str, tuple[float, int]] = {}
    latencies: list[float] = []
    for r in records:
        if r["type"] != "event":
            continue
        task = r["tags"].get("task")
        if r["name"] == "task.submit":
            submitted[task] = (r["mono"], int(r["tags"].get("n", 1)))
        elif r["name"] == "task.done" and task in submitted:
            since, n = submitted.pop(task)
            latencies += [(r["mono"] - since) * 1e3] * n
    out = {
        "engine.pool.worker_busy_s": busy / units,
        "engine.pool.worker_utilization": busy / (workers * wall_s),
    }
    if len(latencies) >= 2:
        deciles = statistics.quantiles(latencies, n=10)
        out["engine.pool.eval_latency_p50_ms"] = deciles[4]
        out["engine.pool.eval_latency_p90_ms"] = deciles[8]
    return out
