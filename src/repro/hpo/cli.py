"""The campaign command-line interface (``repro-hpo``).

Runs an NSGA-II campaign — surrogate (paper scale, seconds) or real
(scaled-down trainings, minutes) — and prints every reproduced table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.evo.problem import BatchProblem


class _KillAfterJournaledEvaluations:
    """Test/CI harness for out-of-process backends: hard-kill the
    *campaign* process after N journaled evaluations.

    Under ``--backend pool``/``fleet`` the problem's ``evaluate`` runs
    inside a worker, so the problem-wrapping
    :class:`_KillAfterEvaluations` would kill a worker instead of the
    campaign.  Every completed evaluation is journaled in the campaign
    process, so wrapping the journal gives the same semantics (the Nth
    result is durably persisted, then SIGKILL) wherever the evaluation
    executed.  An evaluation counts once, whether it became durable in
    its own ``evaluation`` record (drivers without a barrier) or in a
    generation record — which, for those drivers, repeats evaluations
    already counted.
    """

    def __init__(self, journal: Any, limit: int) -> None:
        self.journal = journal
        self.limit = int(limit)
        self._seen: set[str] = set()

    def __getattr__(self, name: str) -> Any:
        try:
            inner = self.__dict__["journal"]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(inner, name)

    def _count(self, individuals: Any) -> None:
        self._seen.update(ind.uuid for ind in individuals)
        if len(self._seen) >= self.limit:
            import os

            sys.stderr.write(
                f"kill-after-evals: {len(self._seen)} evaluations "
                "journaled, exiting 137\n"
            )
            sys.stderr.flush()
            os._exit(137)

    def append_evaluation(self, individual: Any) -> None:
        self.journal.append_evaluation(individual)
        self._count([individual])

    def append_generation(self, record: Any, **kwargs: Any) -> None:
        self.journal.append_generation(record, **kwargs)
        self._count(record.evaluated)


class _KillAfterEvaluations(BatchProblem):
    """Test/CI harness: hard-kill the process after N evaluations.

    Wraps a problem (outside its :class:`~repro.store.cache.CachedProblem`
    layer, so the Nth result is already persisted) and calls
    ``os._exit(137)`` once ``limit`` evaluations have *finished* —
    simulating a SIGKILL mid-generation for crash-resume smoke tests.
    Failed evaluations count too (they also hit the cache/journal
    machinery being exercised).
    """

    def __init__(self, problem: Any, limit: int) -> None:
        self.problem = problem
        self.n_objectives = problem.n_objectives
        self.limit = int(limit)
        self._done = 0

    def __getattr__(self, name: str) -> Any:
        try:
            inner = self.__dict__["problem"]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(inner, name)

    def _count(self, n: int) -> None:
        self._done += n
        if self._done >= self.limit:
            import os

            sys.stderr.write(
                f"kill-after-evals: {self._done} evaluations done, "
                "exiting 137\n"
            )
            sys.stderr.flush()
            os._exit(137)

    def serve(self, phenome: Any) -> Any:
        """The inner cache's probe, a hit counted as a finished
        evaluation: a warm rerun is killed where a cold one is."""
        serve = getattr(self.problem, "serve", None)
        outcome = None if serve is None else serve(phenome)
        if outcome is not None:
            self._count(1)
        return outcome

    def evaluate_batch_with_metadata(self, phenomes, uuids=None):
        """Sub-batches never exceed the remaining budget, so exactly
        ``limit`` evaluations finish (and persist) before the process
        exits — a batch cannot overshoot the kill count."""
        from repro.engine import call_problem_batch

        phenome_list = list(phenomes)
        uuid_list = (
            list(uuids)
            if uuids is not None
            else [None] * len(phenome_list)
        )
        outcomes: list[Any] = []
        while len(outcomes) < len(phenome_list):
            i = len(outcomes)
            remaining = max(1, self.limit - self._done)
            outcomes += call_problem_batch(
                self.problem,
                phenome_list[i : i + remaining],
                uuids=uuid_list[i : i + remaining],
            )
            self._count(len(outcomes) - i)
        return outcomes


def _open_cache(args: argparse.Namespace, directory: Any = None):
    """The evaluation cache for this invocation, or None.

    Explicit ``--cache-dir`` wins; otherwise a campaign directory
    (``--save`` / the resume dir) hosts the cache at ``<dir>/cache``;
    ``--no-cache`` disables caching entirely.
    """
    if args.no_cache:
        return None
    cache_dir = args.cache_dir
    if cache_dir is None and directory is not None:
        from pathlib import Path

        cache_dir = Path(directory) / "cache"
    if cache_dir is None:
        return None
    from repro.store import EvaluationCache

    return EvaluationCache(
        cache_dir,
        cache_failures=args.cache_failures,
    )


def _chaos_injector(args: argparse.Namespace, directory: Any = None):
    """The chaos injector for this invocation, or None.

    ``--chaos-seed N`` draws a seed-deterministic plan of store-layer
    faults (cache-entry corruption, journal torn writes) — the kinds a
    single-process CLI campaign can both inject and recover from
    without changing its result.  The plan is saved next to the
    journal in ``directory`` so a failing run can be replayed exactly.
    """
    seed = args.chaos_seed
    revoke = args.chaos_revoke
    if seed is None and not revoke:
        return None
    from repro.chaos import STORE_KINDS, Fault, FaultPlan

    faults = []
    if seed is not None:
        faults = list(
            FaultPlan.random(
                seed,
                kinds=STORE_KINDS,
                n_faults=4,
                horizon={"cache_corrupt": 24, "journal_truncate": 12},
            )
        )
    if revoke:
        # preemption storm: revoke a worker at these task-pickup
        # ordinals (--chaos-revoke's help says what each backend does)
        faults += [
            Fault("revoke_worker", at=int(at))
            for at in str(revoke).split(",")
            if at.strip()
        ]
    plan = FaultPlan(faults, seed=seed)
    if directory:
        from pathlib import Path

        tag = seed if seed is not None else "revoke"
        plan.save(Path(directory) / f"chaos_plan_{tag}.json")
    return plan.injector()


def _print_chaos_report(injector, directory) -> None:
    """Post-run chaos accounting: what fired, and whether every
    invariant held on the artifacts the campaign left behind."""
    if injector is None:
        return
    fired = [f"{f.kind}@{f.index}" for f in injector.log]
    print(f"chaos: {len(fired)} fault(s) fired: {fired or 'none'}")
    if not directory:
        return
    from pathlib import Path

    from repro.chaos import InvariantChecker
    from repro.store import journal_path

    directory = Path(directory)
    jpath = journal_path(directory)
    if not jpath.exists():
        return
    cache_dir = directory / "cache"
    report = InvariantChecker(
        journal=jpath,
        cache_dir=cache_dir if cache_dir.exists() else None,
        injected=injector.log,
        # a resumed campaign's journal may carry tears from faults
        # injected before the kill, which this injector never saw
        expect_torn=True,
    ).check()
    print(report.summary())


def _execution_backend(stack, args: argparse.Namespace):
    """Build the execution backend for ``Campaign(client=...)``, or None.

    ``inline`` evaluates in-process; ``pool`` spawns a real
    ``multiprocessing`` worker pool (``--pool-workers``, with an
    optional per-evaluation ``--pool-deadline``); ``fleet`` is that
    pool with its fleet policy on: autoscale from ``--pool-workers`` to
    ``--max-workers``, ``--speculate``, and the in-process last resort.
    Under ``serve`` the pool's queue is the service's only one: it
    orders the tenants' evaluations by fair share.  Its lifetime is
    tied to ``stack`` so workers are torn down even when the campaign
    raises.
    Constructed inside the chaos scope so dispatch-time fault hooks
    bind to the active plan.
    """
    backend = args.backend
    workers = getattr(args, "pool_workers", None) or 4
    if backend == "inline":
        return None
    from repro.engine import ProcessPoolBackend

    deadline = getattr(args, "pool_deadline", None)
    if backend == "pool":
        return stack.enter_context(
            ProcessPoolBackend(workers=workers, deadline=deadline)
        )
    return stack.enter_context(
        ProcessPoolBackend(
            workers=workers,
            deadline=deadline,
            max_workers=getattr(args, "max_workers", None) or workers,
            speculate=bool(getattr(args, "speculate", False)),
        )
    )


def _start_observability(stack, args: argparse.Namespace, tracer):
    """Start the live /metrics + /status plane, or return None.

    Enabled by ``--serve-metrics PORT``: installs a process-wide
    :class:`~repro.obs.live.CampaignStatus` (scoped to ``stack``) so
    the drivers/engine/pool publish into it, and serves it together
    with the registry's Prometheus export over HTTP.  The server is
    torn down when ``stack`` unwinds; ``--serve-linger`` holds it open
    after a completed campaign (see :func:`_finish_observability`).
    """
    port = getattr(args, "serve_metrics", None)
    if port is None:
        return None
    from repro.obs import (
        CampaignStatus,
        ObservabilityServer,
        use_status,
    )

    campaign_id = getattr(tracer, "campaign_id", None)
    if campaign_id is None:  # untraced run: still identify the campaign
        import uuid

        campaign_id = uuid.uuid4().hex[:12]
    status = CampaignStatus(campaign_id=campaign_id)
    stack.enter_context(use_status(status))
    server = ObservabilityServer(
        port=port,
        status=status,
        tracer=tracer if getattr(tracer, "enabled", False) else None,
    )
    stack.callback(server.close)
    server.start()
    print(
        f"serving live observability at {server.url} "
        "(/metrics, /status)",
        file=sys.stderr,
    )
    return status, server


def _finish_observability(serve, args: argparse.Namespace) -> None:
    """Campaign completed: mark the status done and optionally hold
    the endpoint open so scrapers/monitors can read the final state."""
    if serve is None:
        return
    status, server = serve
    status.mark_done()
    linger = getattr(args, "serve_linger", None) or 0.0
    if linger > 0:
        import time

        print(
            f"campaign done; serving {server.url} for "
            f"{linger:g}s more (--serve-linger)",
            file=sys.stderr,
        )
        time.sleep(linger)


def _print_report(result, plot: bool, export_csv: str | None) -> None:
    """The §3 tables (and optional figures) for a campaign result —
    shared by ``campaign`` and ``resume``."""
    from repro.analysis import (
        format_table,
        frontier_table,
        generation_level_plots,
        table3_rows,
    )

    print(f"total trainings: {result.n_trainings}")
    print(f"failures by generation: {result.failures_by_generation()}")
    print()
    panels = generation_level_plots(result)
    print(
        format_table(
            [p.summary() for p in panels],
            title="Fig. 1 — pooled loss distributions per generation",
        )
    )
    print()
    table = frontier_table(result)
    print(
        format_table(
            table.rows(),
            title=f"Table 2 — Pareto frontier ({len(table)} solutions)",
        )
    )
    print()
    rows = [r.as_dict() for r in table3_rows(result)]
    print(format_table(rows, title="Table 3 — selected solutions"))
    if plot:
        from repro.analysis import ascii_scatter

        final = [
            ind
            for ind in result.last_generation_individuals()
            if ind.is_viable
        ]
        print()
        print("final solutions (.) and frontier (O):")
        print(
            ascii_scatter(
                [(i.fitness[0], i.fitness[1]) for i in final],
                highlight=[
                    (i.fitness[0], i.fitness[1]) for i in table.members
                ],
                x_label="energy loss (eV/atom)",
                y_label="force loss (eV/A)",
            )
        )
    if export_csv:
        from pathlib import Path

        from repro.io import (
            export_frontier_csv,
            export_level_plot_csv,
            export_parallel_coordinates_csv,
        )

        out = Path(export_csv)
        out.mkdir(parents=True, exist_ok=True)
        export_level_plot_csv(result, out / "fig1_levels.csv")
        export_frontier_csv(result, out / "fig2_frontier.csv")
        export_parallel_coordinates_csv(result, out / "fig3_parallel.csv")
        print(f"figure data exported to {out}")


def _run_session(args: argparse.Namespace, directory: Any, run, saved: str):
    """One ``campaign`` / ``resume`` session around ``run(client, cache,
    tracer)``, which returns the campaign result.

    Shared by both subcommands, which differ only in ``run`` and in the
    ``saved`` message: chaos injector, tracer scope, live plane,
    execution backend and cache, then the trace / cache / chaos / §3
    report, and the snapshot saved to ``directory`` (if any).
    """
    import contextlib

    from repro.injection import use_injector
    from repro.obs import NULL_TRACER, Tracer, use_tracer

    injector = _chaos_injector(args, directory)
    tracer = Tracer(args.trace) if args.trace else NULL_TRACER
    with use_injector(injector), contextlib.ExitStack() as stack:
        # the tracer scope must wrap backend construction: the pool
        # binds get_tracer() when built, so entering it later would
        # leave pool events on the null tracer
        stack.enter_context(use_tracer(tracer))
        serve = _start_observability(stack, args, tracer)
        # cache + journal + execution backend are built inside the
        # chaos scope so their injection hooks bind to the active plan
        client = _execution_backend(stack, args)
        cache = _open_cache(args, directory=directory)
        result = run(client, cache, tracer)
        _finish_observability(serve, args)
    if args.trace:
        tracer.close()
        print(
            f"trace written to {args.trace} "
            f"(campaign {tracer.campaign_id}); render it with: "
            f"repro-hpo trace {args.trace}"
        )
    if cache is not None:
        print(f"evaluation cache: {cache.stats()}")
    _print_chaos_report(injector, directory)
    _print_report(result, args.plot, args.export_csv)
    if directory:
        from repro.io import save_campaign

        save_campaign(result, directory)
        print(f"\n{saved} {directory}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.hpo.campaign import Campaign, CampaignConfig
    from repro.hpo.objectives import problem_spec_for
    from repro.store import cached_problem_factory, problem_factory_from_spec

    config = CampaignConfig(
        n_runs=args.runs,
        pop_size=args.pop_size,
        generations=args.generations,
        base_seed=args.seed,
        mode=args.mode,
        objectives=args.objectives,
        hv_stop_eps=args.hv_stop_eps,
        hv_stop_patience=args.hv_stop_patience,
        batch_evals=args.batch_evals,
    )
    problem_spec: dict[str, Any] = {"backend": args.problem}
    if args.problem == "real":
        problem_spec.update(
            frames=args.frames, seed=args.seed, steps=args.steps
        )
    # journaled, so resume rebuilds the same (extended) evaluator
    problem_spec = problem_spec_for(problem_spec, config.objectives)
    base_factory = problem_factory_from_spec(problem_spec)
    if args.save:
        from pathlib import Path

        Path(args.save).mkdir(parents=True, exist_ok=True)
    kill = args.kill_after_evals
    inline = args.backend == "inline"

    # A fresh campaign stays Campaign.run rather than a resume over a
    # begin record: without --save there is no journal to resume from,
    # and under pool/fleet --kill-after-evals wraps the journal
    # the campaign writes.
    def run(client, cache, tracer):
        factory = cached_problem_factory(base_factory, cache)
        if kill and inline:
            inner_factory = factory
            factory = lambda seed: _KillAfterEvaluations(  # noqa: E731
                inner_factory(seed), kill
            )
        journal = None
        if args.save:
            from repro.store import CampaignJournal, journal_path

            journal = CampaignJournal(
                journal_path(args.save), problem_spec=problem_spec
            )
            if kill and not inline:
                # out-of-process backends: evaluate() runs in workers,
                # so kill on the Nth *journaled* evaluation instead —
                # that hook runs in the campaign process
                journal = _KillAfterJournaledEvaluations(journal, kill)
        try:
            return Campaign(
                factory, config, tracer=tracer, journal=journal, client=client
            ).run()
        finally:
            if journal is not None:
                journal.close()

    return _run_session(args, args.save, run, "campaign saved to")


def _cmd_resume(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.exceptions import StoreError
    from repro.store import resume_campaign

    directory = Path(args.directory)

    def run(client, cache, tracer):
        return resume_campaign(
            directory, cache=cache, tracer=tracer, client=client
        )

    try:
        return _run_session(
            args, directory, run, "campaign snapshot refreshed in"
        )
    except StoreError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import read_trace, render_trace_report

    path = Path(args.file)
    if not path.exists():
        print(f"trace file not found: {path}", file=sys.stderr)
        return 1
    records = read_trace(path)
    if not records:
        print(f"no trace records in {path}", file=sys.stderr)
        return 1
    print(render_trace_report(records, top=args.top))
    return 0


def _render_dashboard(snapshot: dict) -> str:
    """One frame of the ``repro-hpo monitor`` dashboard.

    A snapshot carrying a ``service`` key comes from the multi-tenant
    campaign server and gets the multi-campaign view; anything else is
    a solo campaign's ``--serve-metrics`` endpoint.
    """
    from repro.analysis import format_table, sparkline

    if snapshot.get("service") is not None:
        return _render_service_dashboard(snapshot)
    lines: list[str] = []
    lines.append(
        f"campaign {snapshot.get('campaign') or '?'}  "
        f"mode {snapshot.get('mode') or '?'}  "
        f"state {snapshot.get('state', '?')}  "
        f"run {snapshot.get('run')}  "
        f"generation {snapshot.get('generation')}"
    )
    lines.append(
        f"elapsed {snapshot.get('elapsed_s', 0.0):g}s  "
        f"evals/sec {snapshot.get('evals_per_sec', 0.0):g}  "
        f"cache-hit {100 * snapshot.get('cache_hit_rate', 0.0):.1f}%  "
        f"dedup {100 * snapshot.get('dedup_rate', 0.0):.1f}%"
    )
    series = snapshot.get("hypervolume_series") or []
    if series:
        values = [
            float(entry.get("hypervolume") or 0.0) for entry in series
        ]
        last = series[-1]
        lines.append("")
        lines.append(
            f"hypervolume {sparkline(values)}  "
            f"latest {values[-1]:.6g} "
            f"(front {last.get('front_size', 0)}, "
            f"{len(series)} point(s))"
        )
    front = snapshot.get("front") or []
    if front:
        lines.append(f"nondominated front: {len(front)} solution(s)")
    engine = snapshot.get("engine") or {}
    if engine:
        line = (
            "engine: "
            f"submitted {engine.get('submitted', 0)}  "
            f"completed {engine.get('completed', 0)}  "
            f"fresh {engine.get('fresh', 0)}  "
            f"failures {engine.get('failures', 0)}"
        )
        if engine.get("batches"):
            line += (
                f"  batches {engine.get('batches', 0)}"
                f" (last {engine.get('last_batch_size', 0)})"
            )
        if engine.get("evals_per_sec"):
            line += f"  evals/sec {engine.get('evals_per_sec', 0.0):g}"
        lines.append(line)
    fleet = snapshot.get("fleet") or {}
    if fleet:
        lines.append(_format_fleet_line(fleet))
    workers = snapshot.get("workers") or {}
    if workers:
        rows = [
            {
                "worker": name,
                "state": info.get("state", "?"),
                "task": info.get("task") or "-",
                "dispatched": info.get("tasks_dispatched", 0),
                "respawns": info.get("respawns", 0),
            }
            for name, info in sorted(workers.items())
        ]
        lines.append("")
        lines.append(format_table(rows, title="workers"))
    stragglers = snapshot.get("stragglers") or {}
    slowest = stragglers.get("slowest") or []
    if slowest:
        lines.append("")
        lines.append(format_table(slowest, title="slowest tasks"))
        lines.append(
            f"requeued: {stragglers.get('requeued', 0)}  "
            f"pool deaths: {stragglers.get('pool_worker_deaths', 0)}  "
            f"pool respawns: {stragglers.get('pool_respawns', 0)}"
        )
    return "\n".join(lines)


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Poll a live campaign's ``/status`` and render a dashboard."""
    import json
    import time
    import urllib.error
    import urllib.request

    url = args.url
    if "://" not in url:
        url = f"http://{url}"
    url = url.rstrip("/")
    if url.endswith("/status"):
        url = url[: -len("/status")]
    status_url = f"{url}/status"
    failures = 0
    while True:
        try:
            with urllib.request.urlopen(
                status_url, timeout=args.timeout
            ) as resp:
                snapshot = json.loads(resp.read().decode("utf-8"))
            failures = 0
        except (urllib.error.URLError, OSError, ValueError) as exc:
            failures += 1
            print(
                f"monitor: cannot read {status_url}: {exc}",
                file=sys.stderr,
            )
            if args.once or failures > args.max_failures:
                return 1
            time.sleep(args.interval)
            continue
        if not args.once:
            # ANSI clear + home: a live dashboard, not a scrolling log
            sys.stdout.write("\x1b[2J\x1b[H")
        print(_render_dashboard(snapshot))
        sys.stdout.flush()
        if args.once or snapshot.get("state") == "done":
            return 0
        time.sleep(args.interval)


def _render_service_dashboard(snapshot: dict) -> str:
    """One frame of the multi-campaign (service) monitor view."""
    from repro.analysis import format_table

    service = snapshot.get("service") or {}
    scheduler = service.get("scheduler") or {}
    lines: list[str] = []
    lines.append(
        f"campaign service  state {snapshot.get('state', '?')}  "
        f"campaigns {len(service.get('campaigns') or [])}  "
        f"in-flight {scheduler.get('in_flight', 0)}"
    )
    campaigns = service.get("campaigns") or []
    if campaigns:
        rows = [
            {
                "id": c.get("id", "?"),
                "name": c.get("name", "?"),
                "tenant": c.get("tenant", "?"),
                "state": c.get("state", "?"),
                "run": c.get("run"),
                "gen": c.get("generation"),
                "hv": (
                    f"{c['hypervolume']:.5g}"
                    if c.get("hypervolume") is not None
                    else "-"
                ),
                "front": c.get("front_size", "-"),
                "cache-hit %": round(
                    100 * (c.get("cache_hit_rate") or 0.0), 1
                ),
            }
            for c in campaigns
        ]
        lines.append("")
        lines.append(format_table(rows, title="campaigns"))
    tenants = scheduler.get("tenants") or {}
    if tenants:
        rows = [
            {
                "tenant": name,
                "weight": t.get("weight", 1.0),
                "priority": t.get("priority", 0),
                "in-flight": t.get("in_flight", 0),
                "peak": t.get("peak_in_flight", 0),
                "quota": t.get("max_in_flight", "?"),
                "dispatched": t.get("dispatched", 0),
            }
            for name, t in sorted(tenants.items())
        ]
        lines.append("")
        lines.append(format_table(rows, title="tenants (fair share)"))
    cache = service.get("cache") or {}
    if cache:
        lines.append("")
        lines.append(
            "shared cache: "
            f"hits {cache.get('hits', 0)}  "
            f"misses {cache.get('misses', 0)}  "
            f"inserts {cache.get('inserts', 0)}"
        )
    fleet = service.get("fleet") or {}
    if fleet:
        lines.append("")
        lines.append(_format_fleet_line(fleet))
    return "\n".join(lines)


def _format_fleet_line(fleet: dict) -> str:
    """One-line fleet-policy summary shared by both monitor views."""
    bounds = (
        f"{fleet.get('min_workers') or '?'}"
        f"-{fleet.get('max_workers') or '?'}"
    )
    line = (
        "fleet: "
        f"workers {fleet.get('workers', '?')} ({bounds})  "
        f"in-flight {fleet.get('in_flight', 0)}  "
        f"queued {fleet.get('queue_depth', 0)}  "
        f"requeued {fleet.get('requeued', 0)}  "
        f"scale +{fleet.get('scale_ups', 0)}/-{fleet.get('scale_downs', 0)}"
    )
    if fleet.get("speculate"):
        line += (
            f"  spec {fleet.get('speculations', 0)}"
            f" (wins {fleet.get('speculative_wins', 0)},"
            f" dup {fleet.get('duplicates_discarded', 0)})"
        )
    return line


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant campaign server until SIGTERM/SIGINT."""
    import contextlib

    from repro.service import CampaignServer, CampaignService

    with contextlib.ExitStack() as stack:
        backend = _execution_backend(stack, args)
        service = CampaignService(
            args.root,
            backend=backend,
            max_active=args.max_active,
            cache_failures=getattr(args, "cache_failures", False),
        )
        recovered = service.recover()
        if recovered:
            print(
                f"recovered {len(recovered)} campaign(s): "
                + " ".join(c.id for c in recovered),
                file=sys.stderr,
            )
        server = CampaignServer(
            service, port=args.port, host=args.host
        ).start()
        print(
            f"campaign service at {server.url} "
            "(POST /campaigns, /status, /metrics); SIGTERM drains "
            "gracefully",
            file=sys.stderr,
        )
        sys.stderr.flush()
        server.install_signal_handlers()
        try:
            server.serve_until_shutdown(timeout=args.drain_timeout)
        finally:
            # serve_until_shutdown already drained; the stack now tears
            # down the backend the service was lent
            print("campaign service stopped", file=sys.stderr)
    return 0


def _load_submission(args: argparse.Namespace) -> dict:
    """Build the POST /campaigns body from a spec file plus flags.

    The file may be a full submission (``{"tenant": ..., "config":
    ...}``) or a bare campaign config (``{"n_runs": 4, ...}``);
    command-line tenant/name flags override the file.
    """
    import json
    from pathlib import Path

    spec: dict = {}
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            print("error: spec file must hold a JSON object", file=sys.stderr)
            raise SystemExit(2)
        spec = doc if "config" in doc else {"config": doc}
    spec.setdefault("config", {})
    if args.name:
        spec["name"] = args.name
    if args.tenant or not spec.get("tenant"):
        tenant = spec.get("tenant")
        tenant = (
            dict(tenant)
            if isinstance(tenant, dict)
            else ({"name": tenant} if tenant else {})
        )
        if args.tenant:
            tenant["name"] = args.tenant
        if args.weight is not None:
            tenant["weight"] = args.weight
        if args.max_in_flight is not None:
            tenant["max_in_flight"] = args.max_in_flight
        if args.priority is not None:
            tenant["priority"] = args.priority
        if tenant:
            spec["tenant"] = tenant
    return spec


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.exceptions import ServiceError
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    try:
        summary = _submit_and_maybe_watch(client, args)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    return 0 if summary.get("state") != "failed" else 1


def _submit_and_maybe_watch(client, args: argparse.Namespace) -> dict:
    import time

    summary = client.submit(_load_submission(args))
    print(
        f"campaign {summary['id']} submitted "
        f"(tenant {summary.get('tenant')}, state {summary.get('state')})"
    )
    if not args.watch:
        return summary
    terminal = {"done", "failed", "cancelled", "interrupted"}
    while summary.get("state") not in terminal:
        time.sleep(args.interval)
        summary = client.campaign(summary["id"])
    print(f"campaign {summary['id']}: {summary['state']}")
    if summary.get("error"):
        print(f"error: {summary['error']}", file=sys.stderr)
    if summary["state"] == "done":
        front = client.front(summary["id"]).get("front") or []
        print(f"pareto front: {len(front)} solution(s)")
        for member in front:
            print(f"  fitness {member.get('fitness')}")
    return summary


def _cmd_campaigns(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.exceptions import ServiceError
    from repro.service import ServiceClient

    try:
        campaigns = ServiceClient(args.url).campaigns()
    except ServiceError as exc:
        print(f"cannot list campaigns: {exc}", file=sys.stderr)
        return 1
    if not campaigns:
        print("no campaigns")
        return 0
    rows = [
        {
            "id": c.get("id", "?"),
            "name": c.get("name", "?"),
            "tenant": c.get("tenant", "?"),
            "state": c.get("state", "?"),
            "mode": c.get("mode", "?"),
            "runs": c.get("n_runs", "?"),
            "pop": c.get("pop_size", "?"),
            "gens": c.get("generations", "?"),
            "error": c.get("error") or "-",
        }
        for c in campaigns
    ]
    print(format_table(rows, title="campaigns"))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.exceptions import ServiceError
    from repro.service import ServiceClient

    try:
        summary = ServiceClient(args.url).cancel(args.id)
    except ServiceError as exc:
        print(f"cannot cancel: {exc}", file=sys.stderr)
        return 1
    print(f"campaign {summary['id']}: {summary['state']}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.hpo.landscape import SurrogateDeepMDProblem
    from repro.hpo.sensitivity import morris_screening, one_at_a_time

    problem = SurrogateDeepMDProblem(
        seed=args.seed, simulate_runtime=False
    )
    profiles = one_at_a_time(problem, n_points=args.points)
    rows = [
        {
            "gene": p.gene,
            "force range over sweep": p.force_range(),
        }
        for p in profiles
    ]
    rows.sort(key=lambda r: -r["force range over sweep"])
    print(format_table(rows, title="one-at-a-time sensitivity"))
    result = morris_screening(
        problem, n_trajectories=args.trajectories, rng=args.seed
    )
    print(
        "\nMorris ranking (force): "
        + " > ".join(result.ranking_by_force())
    )
    return 0


def _cmd_nas(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis import format_table
    from repro.hpo.chemical import filter_chemically_accurate
    from repro.hpo.nas import (
        NASRepresentation,
        NASSurrogateProblem,
        run_nas_nsga2,
    )

    records = run_nas_nsga2(
        NASSurrogateProblem(seed=args.seed),
        pop_size=args.pop_size,
        generations=args.generations,
        rng=args.seed,
    )
    final = [i for i in records[-1].population if i.is_viable]
    accurate = filter_chemically_accurate(final)
    print(
        f"NAS search: {len(final)} final solutions, "
        f"{len(accurate)} chemically accurate"
    )
    best = sorted(accurate or final, key=lambda i: float(i.fitness[1]))
    rows = []
    for ind in best[:5]:
        phenome = ind.metadata["phenome"]
        arch = NASRepresentation.architecture_of(phenome)
        rows.append(
            {
                "embedding": str(arch["embedding_widths"]),
                "fitting": str(arch["fitting_widths"]),
                "rcut": phenome["rcut"],
                "force loss": float(ind.fitness[1]),
                "energy loss": float(ind.fitness[0]),
                "runtime (min)": float(
                    ind.metadata.get("runtime_minutes", np.nan)
                ),
            }
        )
    print(format_table(rows, title="best architectures found"))
    return 0


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=["inline", "pool", "fleet"],
        default="inline",
        help=(
            "execution backend: inline (in-process, default), pool "
            "(multiprocessing worker pool), or fleet (the pool with "
            "autoscale, and with an in-process last resort once every "
            "worker is revoked; see --max-workers/--speculate)"
        ),
    )
    parser.add_argument(
        "--pool-workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker count for --backend pool, and the fleet's "
            "autoscale floor (default: 4)"
        ),
    )
    parser.add_argument(
        "--pool-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "pool backend: hard per-evaluation deadline; overruns are "
            "killed (SIGKILL) and scored MAXINT"
        ),
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fleet backend: autoscale ceiling (default: --pool-workers)"
        ),
    )
    parser.add_argument(
        "--speculate",
        action="store_true",
        help=(
            "fleet backend: copy a straggling evaluation to an idle "
            "pool worker; the first result wins, the other is "
            "discarded"
        ),
    )


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve live observability over HTTP while the campaign "
            "runs: /metrics (Prometheus text) and /status (JSON "
            "snapshot with the hypervolume series); PORT 0 binds an "
            "ephemeral port (printed on stderr)"
        ),
    )
    parser.add_argument(
        "--serve-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "keep the --serve-metrics endpoint up this long after the "
            "campaign completes (lets scrapers and 'repro-hpo "
            "monitor' read the final state)"
        ),
    )


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``campaign`` and ``resume`` share around the run."""
    parser.add_argument(
        "--plot", action="store_true", help="render the Fig. 2 scatter"
    )
    parser.add_argument(
        "--export-csv", default=None, help="export figure data as CSV"
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="capture a span/event trace to this JSONL file",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help=(
            "testing: inject a seed-deterministic plan of store-layer "
            "faults (cache corruption, journal torn writes) and print "
            "an invariant report afterwards"
        ),
    )
    parser.add_argument(
        "--chaos-revoke",
        default=None,
        metavar="AT[,AT...]",
        help=(
            "testing: revoke (spot-preempt) a worker at these "
            "task-pickup ordinals; --backend pool requeues its "
            "in-flight work onto a surviving worker and scores it "
            "MAXINT only once the pool's last worker is revoked; "
            "--backend fleet then runs it in-process instead"
        ),
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "evaluation-cache directory (default: <save-dir>/cache "
            "when --save / resuming, else no cache)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the evaluation cache entirely",
    )
    parser.add_argument(
        "--cache-failures",
        action="store_true",
        help=(
            "also memoize failed evaluations (default: failures are "
            "re-run, in case they were environmental)"
        ),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-hpo",
        description=(
            "NSGA-II hyperparameter optimization campaign for deep "
            "potential training (paper reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "campaign",
        aliases=["run"],
        help="run a multi-run EA campaign",
    )
    p.add_argument(
        "--problem",
        choices=["surrogate", "real"],
        default="surrogate",
        help=(
            "fitness landscape: the paper-scale surrogate (default) "
            "or real scaled-down trainings"
        ),
    )
    _add_backend_flags(p)
    p.add_argument(
        "--mode",
        choices=["generational", "steady-state", "pso", "surrogate"],
        default="generational",
        help=(
            "deployment scheme: the paper's barrier-synchronized "
            "generational NSGA-II, the §2.2.5 asynchronous "
            "steady-state variant (same budget, breed-on-completion), "
            "multi-objective particle swarm, or RBF-surrogate-"
            "assisted acquisition"
        ),
    )
    p.add_argument(
        "--objectives",
        default=None,
        metavar="SPEC",
        help=(
            "comma-separated objective selection: 'loss' (the paper's "
            "energy+force pair, default) optionally extended with "
            "'time'/'cost' to minimize predicted training runtime as "
            "a third objective (e.g. 'loss,time')"
        ),
    )
    p.add_argument(
        "--hv-stop-eps",
        type=float,
        default=None,
        metavar="EPS",
        help=(
            "stop a run early once its relative hypervolume gain "
            "stays below EPS for --hv-stop-patience consecutive "
            "generations (stopped runs are bit-identical prefixes of "
            "unstopped ones)"
        ),
    )
    p.add_argument(
        "--hv-stop-patience",
        type=int,
        default=2,
        metavar="K",
        help="generations of stalled hypervolume before stopping",
    )
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--pop-size", type=int, default=100)
    p.add_argument("--generations", type=int, default=6)
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument(
        "--frames", type=int, default=60, help="real backend: MD frames"
    )
    p.add_argument(
        "--steps", type=int, default=100, help="real backend: training steps"
    )
    p.add_argument(
        "--save",
        default=None,
        help=(
            "persist the campaign to a directory (also write-ahead "
            "journals there, making the campaign resumable with "
            "'repro-hpo resume')"
        ),
    )
    p.add_argument(
        "--batch-evals",
        action="store_true",
        help=(
            "dispatch each generation in chunks of the backend's hint "
            "(ceil(n/workers) on --backend pool) instead of one task "
            "per individual; results bit-identical.  Changes nothing "
            "in-process: --backend inline already evaluates each "
            "generation in one problem call"
        ),
    )
    _add_session_flags(p)
    _add_serve_flags(p)
    _add_cache_flags(p)
    p.add_argument(
        "--kill-after-evals",
        type=int,
        default=0,
        metavar="N",
        help=(
            "testing: hard-exit (137) after N finished evaluations, "
            "simulating a mid-generation crash; under --backend "
            "pool/fleet the kill fires on the Nth *journaled* "
            "evaluation instead (requires --save), since evaluate() "
            "runs in workers there"
        ),
    )
    p.set_defaults(func=_cmd_campaign)

    p_resume = sub.add_parser(
        "resume",
        help=(
            "continue a killed campaign from its directory (journal + "
            "evaluation cache), bit-identically"
        ),
    )
    p_resume.add_argument(
        "directory", help="campaign directory written by --save"
    )
    _add_backend_flags(p_resume)
    _add_session_flags(p_resume)
    _add_serve_flags(p_resume)
    _add_cache_flags(p_resume)
    p_resume.set_defaults(func=_cmd_resume)

    p_trace = sub.add_parser(
        "trace",
        help=(
            "render a wall-clock breakdown, worker utilization, and "
            "straggler summary from a trace file"
        ),
    )
    p_trace.add_argument("file", help="trace JSONL written by a Tracer")
    p_trace.add_argument(
        "--top", type=int, default=5, help="how many stragglers to list"
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_mon = sub.add_parser(
        "monitor",
        help=(
            "live ASCII dashboard for a campaign serving "
            "--serve-metrics (polls its /status endpoint)"
        ),
    )
    p_mon.add_argument(
        "url",
        help=(
            "base URL of the campaign's observability endpoint, e.g. "
            "http://127.0.0.1:9100 (a /status suffix is accepted)"
        ),
    )
    p_mon.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="poll period (default: 1s)",
    )
    p_mon.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    p_mon.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-request HTTP timeout",
    )
    p_mon.add_argument(
        "--max-failures",
        type=int,
        default=5,
        metavar="N",
        help=(
            "give up after this many consecutive unreachable polls "
            "(the campaign probably exited)"
        ),
    )
    p_mon.set_defaults(func=_cmd_monitor)

    p_serve = sub.add_parser(
        "serve",
        help=(
            "run the multi-tenant campaign server: accepts JSON "
            "submissions over HTTP and schedules many campaigns "
            "fairly over one shared worker fleet"
        ),
    )
    p_serve.add_argument(
        "root",
        help=(
            "service state directory (campaign journals, specs, and "
            "the shared cross-campaign evaluation cache live here)"
        ),
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="HTTP port (0 binds an ephemeral port, printed on stderr)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    _add_backend_flags(p_serve)
    p_serve.add_argument(
        "--max-active",
        type=int,
        default=4,
        metavar="N",
        help="campaigns running concurrently; the rest queue (default 4)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "graceful-shutdown budget: how long SIGTERM waits for "
            "running campaigns to reach a generation boundary"
        ),
    )
    p_serve.add_argument(
        "--cache-failures",
        action="store_true",
        help="also memoize failed evaluations in the shared cache",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a campaign to a running 'repro-hpo serve' server",
    )
    p_submit.add_argument(
        "config",
        nargs="?",
        default=None,
        help=(
            "JSON spec file: either a full submission ({tenant, "
            "config, problem}) or a bare campaign config ({n_runs, "
            "pop_size, ...}); omit to submit the defaults"
        ),
    )
    p_submit.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="campaign server base URL",
    )
    p_submit.add_argument(
        "--name", default=None, help="display name for the campaign"
    )
    p_submit.add_argument(
        "--tenant", default=None, help="tenant name to submit as"
    )
    p_submit.add_argument(
        "--weight",
        type=float,
        default=None,
        help="tenant fair-share weight (relative dispatch rate)",
    )
    p_submit.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        metavar="N",
        help="tenant quota: concurrent evaluations across its campaigns",
    )
    p_submit.add_argument(
        "--priority",
        type=int,
        default=None,
        help="tenant priority class (lower dispatches first)",
    )
    p_submit.add_argument(
        "--watch",
        action="store_true",
        help="poll until the campaign finishes and print its front",
    )
    p_submit.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="--watch poll period",
    )
    p_submit.set_defaults(func=_cmd_submit)

    p_list = sub.add_parser(
        "campaigns", help="list campaigns on a running server"
    )
    p_list.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="campaign server base URL",
    )
    p_list.set_defaults(func=_cmd_campaigns)

    p_cancel = sub.add_parser(
        "cancel",
        help=(
            "cancel a campaign (stops at its next generation "
            "boundary; journaled work stays valid)"
        ),
    )
    p_cancel.add_argument("id", help="campaign id")
    p_cancel.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="campaign server base URL",
    )
    p_cancel.set_defaults(func=_cmd_cancel)

    p_sens = sub.add_parser(
        "sensitivity", help="OAT + Morris screening of the genes"
    )
    p_sens.add_argument("--seed", type=int, default=0)
    p_sens.add_argument("--points", type=int, default=11)
    p_sens.add_argument("--trajectories", type=int, default=25)
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_nas = sub.add_parser(
        "nas", help="neural-architecture search (11-gene extension)"
    )
    p_nas.add_argument("--seed", type=int, default=0)
    p_nas.add_argument("--pop-size", type=int, default=60)
    p_nas.add_argument("--generations", type=int, default=6)
    p_nas.set_defaults(func=_cmd_nas)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
