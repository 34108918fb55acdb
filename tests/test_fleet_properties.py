"""Fleet-policy property suite (Hypothesis).

Three properties the pool's fleet policy must hold under *any* schedule
of revocations, stragglers and speculation (DESIGN.md §9):

(a) **journal uniqueness** — however often a chunk is requeued or
    speculatively copied, the engine hands each uuid back — and so the
    driver loop journals it — exactly once (the pool resolves one
    future per chunk; the slower copy's reply finds none);
(b) **quota safety under rescale** — a tenant's tasks running on the
    pool's workers never exceed its ``max_in_flight``, however the
    pool grows, shrinks, loses or revokes workers between its events;
(c) **result equivalence** — the policy's (genome → fitness) map and
    Pareto front are bit-identical to inline evaluation: revocations,
    copies and the in-process last resort move work, never change it.

(a) and (c) run real 2-worker pools with the policy on, the schedule
drawn as a chaos plan; (b) drives the pure :class:`Policy` the pool
runs, which holds the tenants' queue.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import Fault, FaultPlan
from repro.engine import EvaluationEngine, ProcessPoolBackend
from repro.engine.policy import Fleet, Policy, Spawn, Tag
from repro.evo.individual import Individual
from repro.injection import use_injector
from repro.mo.pareto import pareto_front
from repro.obs.metrics import MetricsRegistry
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
# (b) tenant quotas hold while the pool rescales
# ----------------------------------------------------------------------
#: two tenants' caps; tenant 1 queues in two lanes
CAPS = {"t0": 2, "t1": 3}

op_st = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 2)),
    st.tuples(st.just("reply"), st.integers(0, 7)),
    st.tuples(st.just("death"), st.integers(0, 7)),
    st.tuples(st.just("revoke"), st.integers(0, 7)),
    st.tuples(st.just("scale_to"), st.integers(0, 6)),
)


@FAST
@given(ops=st.lists(op_st, min_size=4, max_size=60), speculate=st.booleans())
def test_tenant_quota_holds_during_rescale(ops, speculate):
    """The pure policy under drawn submissions, replies, deaths,
    revocations and rescales (down to no worker: the last resort):
    after every op each tenant runs at most its cap, and only live
    tasks keep their tags."""
    policy = Policy(4, fleet=Fleet(1, 6, speculate=speculate))
    tags = [
        Tag("t0", "c0", cap=CAPS["t0"]),
        Tag("t1", "c1", weight=2.0, cap=CAPS["t1"]),
        Tag("t1", "c2", weight=2.0, cap=CAPS["t1"]),
    ]
    now = 0.0

    def apply(actions):
        for action in actions:
            if isinstance(action, Spawn):
                apply(policy.spawned(action.worker, now))

    for task, (op, arg) in enumerate(ops):
        now += 0.1
        names = list(policy.workers)
        busy = [n for n in names if policy.workers[n].task is not None]
        if op == "submit":
            apply(policy.submit(task, now, tags[arg]))
        elif op == "reply" and busy:
            name = busy[arg % len(busy)]
            apply(policy.reply(name, policy.workers[name].task, True, now))
        elif op == "death" and names:
            apply(policy.death(names[arg % len(names)], "drawn"))
        elif op == "revoke" and names:
            apply(policy.revoke(names[arg % len(names)]))
        elif op == "scale_to":
            apply(policy.scale_to(arg))
        apply(policy.tick(now))
        for name, share in policy.shares.items():
            assert policy.running(share) <= share.peak <= CAPS[name], share
        assert policy.tags.keys() <= policy.attempts.keys()


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
