"""Fleet-policy property suite (Hypothesis).

Three properties the pool's fleet policy must hold under *any* schedule
of revocations, stragglers and speculation (DESIGN.md §9):

(a) **journal uniqueness** — however often a chunk is requeued or
    speculatively copied, the engine hands each uuid back — and so the
    driver loop journals it — exactly once (the pool resolves one
    future per chunk; the slower copy's reply finds none);
(b) **quota safety under rescale** — per-tenant ``max_in_flight`` and
    the fleet-wide ``total_slots`` are never exceeded, however the
    backend's ``n_workers`` grows or shrinks between ticks (work past
    the live size waits in the backend's queue, where a policy pool's
    autoscale sees it);
(c) **result equivalence** — the policy's (genome → fitness) map and
    Pareto front are bit-identical to inline evaluation: revocations,
    copies and the in-process last resort move work, never change it.

(a) and (c) run real 2-worker pools with the policy on, the schedule
drawn as a chaos plan; (b) is the fair-share scheduler's, over a
scripted backend.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import Fault, FaultPlan
from repro.engine import EvaluationEngine, ProcessPoolBackend
from repro.evo.individual import Individual
from repro.injection import use_injector
from repro.mo.pareto import pareto_front
from repro.obs.metrics import MetricsRegistry
from repro.service.fair_share import FairShareScheduler
from repro.service.tenancy import Tenant
from tests.pool_problems import Echo

FAST = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _individuals(genomes):
    return [
        Individual(np.asarray(genome, dtype=np.float64), problem=Echo())
        for genome in genomes
    ]


#: chunks that warm a pool up before the drawn schedule starts
WARM = 8

#: a drawn fault: a revocation, or a straggler the policy can copy, at
#: a dispatch ordinal of the whole pool past the warm-up
fault_st = st.one_of(
    st.builds(
        lambda at: Fault("revoke_worker", at=WARM + at), st.integers(0, 8)
    ),
    st.builds(
        lambda at, s: Fault("slow_worker", at=WARM + at, seconds=s),
        st.integers(0, 8),
        st.sampled_from([0.1, 0.2]),
    ),
)
genomes_st = st.lists(
    st.tuples(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=8,
    unique=True,
)


def _run(genomes, faults, speculate):
    """Evaluate ``genomes`` in chunks of one on a policy pool under the
    drawn plan; what the driver loop would journal, in order.  The
    pool's books must close: nothing queued, in flight or held."""
    with use_injector(FaultPlan(list(faults)).injector()):
        with ProcessPoolBackend(
            workers=2,
            max_workers=2,
            speculate=speculate,
            metrics=MetricsRegistry(),
        ) as pool:
            for future in [
                pool.submit_batch(_individuals([(100.0 + i, 0.0)]))
                for i in range(WARM)
            ]:
                future.result(timeout=30)
            engine = EvaluationEngine(
                client=pool, dedup=False, metrics=MetricsRegistry()
            )
            individuals = _individuals(genomes)
            engine.submit_batch(individuals, chunk_size=1)
            handed_back = []
            while engine.has_pending():
                handed_back += engine.wait_any()
            assert not pool._tasks and not pool._policy.queue and not pool._policy.attempts
    return individuals, handed_back, engine


# ----------------------------------------------------------------------
# (a) no uuid journaled twice
# ----------------------------------------------------------------------
@FAST
@given(
    genomes=genomes_st,
    faults=st.lists(fault_st, max_size=10),
    speculate=st.booleans(),
)
def test_no_uuid_journaled_twice(genomes, faults, speculate):
    individuals, handed_back, engine = _run(genomes, faults, speculate)
    uuids = [ind.uuid for ind in handed_back]
    assert len(uuids) == len(set(uuids))
    assert set(uuids) == {ind.uuid for ind in individuals}
    assert engine.stats.completed == len(individuals)


# ----------------------------------------------------------------------
# (b) tenant quotas hold while the backend rescales
# ----------------------------------------------------------------------
class ScriptedFuture:
    """Resolves after ``delay`` polls."""

    def __init__(self, individuals, delay):
        self.individuals = individuals
        self.delay = int(delay)
        self._polls = 0

    def done(self):
        if self._polls < self.delay:
            self._polls += 1
        return self._polls >= self.delay

    def result(self, timeout=None):
        from repro.engine.backends import evaluate_individuals_batch

        return evaluate_individuals_batch(self.individuals)


class ScriptedBackend:
    """A backend whose size the test moves between ticks, the way
    autoscale and revocation move a pool's ``n_workers``."""

    is_execution_backend = True

    def __init__(self, n_workers=2):
        self.n_workers = n_workers
        self.futures = []

    def submit(self, individual):
        from repro.engine.backends import SlotFuture

        future = ScriptedFuture([individual], 1000000)
        self.futures.append(future)
        return SlotFuture(future)

    def on_cache_hit(self, individual):
        pass


op_st = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 1)),
    st.tuples(st.just("tick"), st.just(0)),
    st.tuples(st.just("finish"), st.just(0)),
    st.tuples(st.just("scale"), st.integers(0, 4)),
)


@FAST
@given(ops=st.lists(op_st, min_size=4, max_size=40))
def test_tenant_quota_holds_during_rescale(ops):
    backend = ScriptedBackend(n_workers=2)
    scheduler = FairShareScheduler(
        backend, total_slots=6, metrics=MetricsRegistry()
    )
    quotas = {"t0": 2, "t1": 3}
    queues = {
        f"c{i}": scheduler.register(
            f"c{i}", Tenant(name=f"t{i}", max_in_flight=quotas[f"t{i}"])
        )
        for i in range(2)
    }
    counter = 0
    for op, arg in ops:
        if op == "submit":
            (ind,) = _individuals([[float(counter), 0.0]])
            counter += 1
            queues[f"c{arg}"].submit(ind)
        elif op == "tick":
            scheduler.tick()
        elif op == "finish":
            pending = [f for f in backend.futures if f._polls < f.delay]
            if pending:
                pending[0].delay = 0
            scheduler.tick()
        elif op == "scale":
            backend.n_workers = arg  # spot churn: even down to zero
        snap = scheduler.snapshot()
        assert snap["in_flight"] <= 6
        for name, tenant in snap["tenants"].items():
            assert tenant["peak_in_flight"] <= quotas[name], (
                name,
                tenant,
            )


# ----------------------------------------------------------------------
# (c) results bit-identical to inline
# ----------------------------------------------------------------------
@FAST
@given(
    genomes=genomes_st,
    faults=st.lists(fault_st, max_size=10),
    speculate=st.booleans(),
)
def test_fleet_front_bit_identical_to_inline(genomes, faults, speculate):
    inline_done = EvaluationEngine(metrics=MetricsRegistry()).evaluate(
        _individuals(genomes)
    )
    _, fleet_done, _ = _run(genomes, faults, speculate)

    def table(individuals):
        return {
            tuple(float(g) for g in ind.genome): tuple(
                float(f) for f in np.atleast_1d(ind.fitness)
            )
            for ind in individuals
        }

    assert table(fleet_done) == table(inline_done)

    def front(individuals):
        return sorted(
            tuple(float(f) for f in ind.fitness)
            for ind in pareto_front(individuals)
        )

    assert front(fleet_done) == front(inline_done)
