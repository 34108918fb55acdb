"""Fleet chaos/property suite (Hypothesis).

Three properties the elastic fleet must hold under *any* schedule of
revocations, delays, and speculation:

(a) **journal uniqueness** — however often a task is requeued or
    speculatively duplicated, the engine hands each uuid back — and so
    the driver loop journals it — exactly once (the engine resolves one
    future per candidate; duplicates die inside the fleet);
(b) **quota safety under rescale** — per-tenant ``max_in_flight`` is
    never exceeded, and a tick never dispatches past the *live* fleet
    capacity, no matter how members grow or shrink between ticks;
(c) **result equivalence** — when no evaluation permanently fails, the
    fleet's (genome → fitness) map and Pareto front are bit-identical
    to inline evaluation: revocations and speculation move work, never
    change it.

Everything runs on in-process scripted members (no interpreter
startup), so hundreds of drawn schedules stay fast.
"""


import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ElasticBackend, EvaluationEngine
from repro.evo.individual import Individual
from repro.exceptions import WorkerRevoked
from repro.mo.pareto import pareto_front
from repro.obs.metrics import MetricsRegistry
from repro.service.fair_share import FairShareScheduler
from repro.service.tenancy import Tenant

FAST = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class IdentityDecoder:
    def decode(self, genome):
        return genome


class SumProblem:
    """Deterministic two-objective toy: cheap and pure."""

    n_objectives = 2

    def evaluate_with_metadata(self, phenome, uuid=None):
        x = float(np.sum(np.asarray(phenome, dtype=np.float64)))
        return np.array([x, -x]), {}


def _individuals(genomes, problem):
    out = []
    for genome in genomes:
        ind = Individual(
            np.asarray(genome, dtype=np.float64),
            decoder=IdentityDecoder(),
            problem=problem,
        )
        ind.n_objectives = problem.n_objectives
        out.append(ind)
    return out


class ScriptedFuture:
    """Resolves after ``delay`` polls; outcome decided by the script."""

    def __init__(self, individuals, outcome, delay):
        self.individuals = individuals
        self.outcome = outcome  # "ok" | "revoke"
        self.delay = int(delay)
        self._polls = 0
        self.cancelled = False

    def done(self):
        if self._polls < self.delay:
            self._polls += 1
        return self._polls >= self.delay

    def result(self, timeout=None):
        if self.outcome == "revoke":
            raise WorkerRevoked("scripted", "spot preemption")
        from repro.engine.backends import evaluate_individuals_batch

        return evaluate_individuals_batch(self.individuals)

    def cancel(self):
        self.cancelled = True


class ScriptedMember:
    """A member whose per-submission outcome/delay comes from a drawn
    schedule (cycled when submissions outnumber script entries)."""

    is_execution_backend = True

    def __init__(self, script, n_workers=2):
        self.script = list(script) or [("ok", 0)]
        self.n_workers = n_workers
        self.futures = []

    def _next(self):
        outcome, delay = self.script[len(self.futures) % len(self.script)]
        return outcome, delay

    def submit_batch(self, individuals):
        outcome, delay = self._next()
        future = ScriptedFuture(list(individuals), outcome, delay)
        self.futures.append(future)
        return future

    def on_cache_hit(self, individual):
        pass


def _fleet(flaky_script, speculate):
    """A flaky member plus an always-reliable one: any revocation is
    recoverable, so no evaluation permanently fails."""
    flaky = ScriptedMember(flaky_script)
    reliable = ScriptedMember([("ok", 1)])
    fleet = ElasticBackend(
        [flaky, reliable],
        speculate=speculate,
        min_history=1,
        straggler_factor=0.0,
        min_speculate_s=0.0,
        autoscale_interval=None,
        metrics=MetricsRegistry(),
    )
    return fleet, flaky, reliable


outcome_st = st.tuples(
    st.sampled_from(["ok", "ok", "ok", "revoke"]),
    st.integers(min_value=0, max_value=4),
)
genomes_st = st.lists(
    st.lists(
        st.floats(
            min_value=-10,
            max_value=10,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=2,
        max_size=2,
    ),
    min_size=1,
    max_size=8,
    unique_by=tuple,
)


# ----------------------------------------------------------------------
# (a) no uuid journaled twice
# ----------------------------------------------------------------------
@FAST
@given(
    genomes=genomes_st,
    script=st.lists(outcome_st, min_size=1, max_size=10),
    speculate=st.booleans(),
)
def test_no_uuid_journaled_twice(genomes, script, speculate):
    fleet, _, _ = _fleet(script, speculate)
    engine = EvaluationEngine(
        client=fleet, dedup=False, metrics=MetricsRegistry()
    )
    individuals = _individuals(genomes, SumProblem())
    engine.submit_batch(individuals, chunk_size=1)
    # what the driver loop journals: each candidate the engine hands back
    uuids = []
    while engine.has_pending():
        uuids += [ind.uuid for ind in engine.wait_any()]
    assert len(uuids) == len(set(uuids))
    assert set(uuids) == {ind.uuid for ind in individuals}
    assert engine.stats.completed == len(individuals)


# ----------------------------------------------------------------------
# (b) tenant quotas hold while the fleet rescales
# ----------------------------------------------------------------------
op_st = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 1)),
    st.tuples(st.just("tick"), st.just(0)),
    st.tuples(st.just("finish"), st.just(0)),
    st.tuples(st.just("scale"), st.integers(0, 4)),
)


@FAST
@given(ops=st.lists(op_st, min_size=4, max_size=40))
def test_tenant_quota_holds_during_rescale(ops):
    member = ScriptedMember([("ok", 1000000)], n_workers=2)
    fleet = ElasticBackend(
        [member],
        autoscale_interval=None,
        metrics=MetricsRegistry(),
    )
    scheduler = FairShareScheduler(
        fleet, total_slots=6, metrics=MetricsRegistry()
    )
    quotas = {"t0": 2, "t1": 3}
    queues = {
        f"c{i}": scheduler.register(
            f"c{i}", Tenant(name=f"t{i}", max_in_flight=quotas[f"t{i}"])
        )
        for i in range(2)
    }
    problem = SumProblem()
    counter = 0
    for op, arg in ops:
        if op == "submit":
            (ind,) = _individuals([[float(counter), 0.0]], problem)
            counter += 1
            queues[f"c{arg}"].submit(ind)
        elif op == "tick":
            before = len(member.futures)
            limit = min(6, max(1, fleet.capacity()))
            scheduler.tick()
            dispatched = len(member.futures) - before
            # a tick drains, then dispatches only while below the
            # *live* fleet capacity — so whenever it dispatched at
            # all, the resulting in-flight level respects the limit
            # (a shrink below already-dispatched work only stops new
            # dispatches; it cannot recall them)
            if dispatched > 0:
                assert scheduler.snapshot()["in_flight"] <= limit
        elif op == "finish":
            pending = [
                f
                for f in member.futures
                if f._polls < f.delay and not f.cancelled
            ]
            if pending:
                pending[0].delay = 0
            scheduler.tick()
        elif op == "scale":
            member.n_workers = arg  # spot churn: even down to zero
        snap = scheduler.snapshot()
        for name, tenant in snap["tenants"].items():
            assert tenant["peak_in_flight"] <= quotas[name], (
                name,
                tenant,
            )


# ----------------------------------------------------------------------
# (c) fleet results bit-identical to inline
# ----------------------------------------------------------------------
@FAST
@given(
    genomes=genomes_st,
    script=st.lists(outcome_st, min_size=1, max_size=10),
    speculate=st.booleans(),
)
def test_fleet_front_bit_identical_to_inline(genomes, script, speculate):
    problem = SumProblem()
    inline_done = EvaluationEngine(metrics=MetricsRegistry()).evaluate(
        _individuals(genomes, problem)
    )
    fleet, _, _ = _fleet(script, speculate)
    fleet_done = EvaluationEngine(
        client=fleet, metrics=MetricsRegistry()
    ).evaluate(_individuals(genomes, problem))

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
    # nothing may be left on the fleet's books
    assert sum(m.inflight for m in fleet.members) == 0
