"""The client: the user-facing submit/map/gather interface.

Mirrors ``dask.distributed.Client`` closely enough that
:func:`repro.evo.ops.eval_pool` works with either.  The
:class:`LocalCluster` convenience stands up a scheduler plus N workers
in one call — the reproduction analogue of the paper's batch script
launching the Dask scheduler and one worker per Summit node.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from repro.distributed.faults import FaultPolicy
from repro.distributed.future import Future
from repro.distributed.scheduler import Scheduler
from repro.distributed.worker import Nanny, Worker
from repro.engine.invoke import land, serve_from_cache
from repro.injection import FaultInjector


class Client:
    """Submit tasks to a scheduler and gather their results.

    ``map`` fan-outs and ``gather`` waits are traced (on the
    scheduler's tracer) so a campaign trace shows how long the EA loop
    blocked on each generation's evaluations.

    When an item is an individual whose problem serves from an
    evaluation cache (a ``serve`` method, as on
    :class:`repro.store.cache.CachedProblem`), ``map`` lands a cache hit
    on the item inline — as :func:`repro.engine.evaluate_individual`
    would return it, a memoized failure as MAXINT — instead of
    submitting it: a hit never crosses the scheduler queue, occupies a
    worker, or waits behind a 2-hour training.
    """

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler

    @property
    def n_workers(self) -> int:
        """Live worker count — the fleet capacity a multi-campaign
        scheduler sizes its dispatch window against."""
        return self.scheduler.n_workers

    def submit(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Future:
        return self.scheduler.submit(fn, *args, **kwargs)

    def _cached_future(self, item: Any) -> Optional[Future]:
        """A future resolved to ``item`` with its cache hit landed on it,
        by the engine's rule (None = submit)."""
        outcome = serve_from_cache(item)
        if outcome is None:
            return None
        land(item, outcome)
        future = Future(f"cached-{getattr(item, 'uuid', id(item))}")
        future.set_result(item)
        self.scheduler.task_cached(future.key)
        return future

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[Future]:
        with self.scheduler.tracer.span("client.map") as span:
            futures = []
            n_cached = 0
            for item in items:
                future = self._cached_future(item)
                if future is not None:
                    n_cached += 1
                else:
                    future = self.scheduler.submit(fn, item)
                futures.append(future)
            span.tag(n_tasks=len(futures), n_cached=n_cached)
        return futures

    def gather(
        self, futures: Sequence[Future], timeout: Optional[float] = None
    ) -> list[Any]:
        """Block for all results; task exceptions re-raise here."""
        with self.scheduler.tracer.span(
            "client.gather", n_futures=len(futures)
        ):
            return [f.result(timeout=timeout) for f in futures]


class LocalCluster:
    """Scheduler + N workers (optionally nannied), context-managed.

    Parameters
    ----------
    n_workers:
        One per simulated node (the paper used 100).
    use_nannies:
        Restart dead workers; the paper's production setting is False.
    fault_policy:
        Shared fault-injection policy for all workers.
    tracer / metrics:
        Forwarded to the :class:`Scheduler`; the tracer defaults to
        the process-wide one and the registry to a private instance.
    """

    def __init__(
        self,
        n_workers: int = 4,
        use_nannies: bool = False,
        fault_policy: Optional[FaultPolicy] = None,
        max_retries: int = 2,
        tracer: Any = None,
        metrics: Any = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        # a chaos Injector is both a FaultPolicy (worker deaths) and a
        # FaultInjector (scheduler-side delays): hand it to both layers
        self.scheduler = Scheduler(
            max_retries=max_retries,
            tracer=tracer,
            metrics=metrics,
            fault_injector=(
                fault_policy
                if isinstance(fault_policy, FaultInjector)
                else None
            ),
        )
        self.use_nannies = use_nannies
        self._members: list[Any] = []
        for i in range(n_workers):
            name = f"node-{i:03d}"
            if use_nannies:
                self._members.append(
                    Nanny(self.scheduler, name, fault_policy)
                )
            else:
                self._members.append(
                    Worker(self.scheduler, name, fault_policy)
                )

    def start(self) -> "LocalCluster":
        self.scheduler.tracer.event(
            "cluster.start",
            n_workers=len(self._members),
            nannies=self.use_nannies,
        )
        for member in self._members:
            member.start()
        return self

    def client(self) -> Client:
        return Client(self.scheduler)

    def shutdown(self) -> None:
        self.scheduler.tracer.event(
            "cluster.shutdown", n_alive=self.scheduler.n_workers
        )
        self.scheduler.close()
        for member in self._members:
            member.stop()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def n_alive(self) -> int:
        return self.scheduler.n_workers
