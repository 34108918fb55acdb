"""Property-based tests (hypothesis) on the N-D multiobjective metrics.

The N-D generalization of :mod:`repro.mo.metrics` carries hard
contracts the 2-objective stack depends on: the d=2 path of
``hypervolume`` must be *bit-identical* to the historical
``hypervolume_2d`` (the live telemetry gauge feeds from it), the exact
d=3 slicing must agree with inclusion-exclusion and with the
Monte-Carlo fallback, hypervolume must be monotone and
permutation-invariant, and the d≥3 NSGA-II kernels must stay
implementation-equivalent.  Fixed-input degenerate-front regressions
(the ``_as_front`` bugfix) ride along.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.evo.nsga2 import (
    crowding_distance,
    fast_nondominated_sort,
    rank_ordinal_sort,
)
from repro.exceptions import MAXINT
from repro.mo.metrics import (
    DEFAULT_OBJECTIVE_REFERENCES,
    default_reference,
    hypervolume,
    hypervolume_2d,
    spread,
    spread_2d,
)
from repro.mo.stopping import HypervolumeStopper

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
fronts_2d = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 30), st.just(2)),
    elements=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)

fronts_3d = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 20), st.just(3)),
    elements=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)

matrices_3d = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 40), st.just(3)),
    elements=st.floats(
        min_value=-100.0, max_value=100.0, allow_nan=False
    ),
)

REF2 = (2.5, 2.5)
REF3 = (2.5, 2.5, 2.5)


def _hv_3d_inclusion_exclusion(F: np.ndarray, ref) -> float:
    """Oracle: inclusion-exclusion over the dominated boxes (O(2^n),
    keep fronts tiny)."""
    pts = F[np.all(F < np.asarray(ref), axis=1)]
    n = len(pts)
    total = 0.0
    for mask in range(1, 1 << n):
        chosen = pts[[i for i in range(n) if mask >> i & 1]]
        corner = chosen.max(axis=0)
        vol = float(np.prod(np.asarray(ref) - corner))
        total += vol if bin(mask).count("1") % 2 == 1 else -vol
    return total


class TestHypervolume2dEquivalence:
    @given(fronts_2d)
    @settings(max_examples=200, deadline=None)
    def test_nd_entry_point_is_bit_identical_to_2d(self, F):
        a = hypervolume(F, REF2)
        b = hypervolume_2d(F, REF2)
        # bit-identical, not just close: the N-D entry point must share
        # the historical 2-D float-operation order
        assert np.float64(a).view(np.uint64) == np.float64(b).view(
            np.uint64
        )


class TestHypervolume3dExactness:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 8), st.just(3)),
            elements=st.floats(
                min_value=0.0, max_value=2.0, allow_nan=False
            ),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_slicing_matches_inclusion_exclusion(self, F):
        exact = hypervolume(F, REF3)
        oracle = _hv_3d_inclusion_exclusion(F, REF3)
        assert math.isclose(exact, oracle, rel_tol=1e-9, abs_tol=1e-12)

    @given(fronts_3d)
    @settings(max_examples=30, deadline=None)
    def test_monte_carlo_agrees_with_exact(self, F):
        from repro.mo.metrics import _as_front, _hv_monte_carlo

        front = _as_front(F, reference=REF3)
        if not len(front):
            return
        exact = hypervolume(F, REF3)
        mc = _hv_monte_carlo(
            front, np.asarray(REF3), n_samples=20_000, seed=2023
        )
        box = float(np.prod(np.asarray(REF3) - front.min(axis=0)))
        assert abs(mc - exact) <= 0.05 * box + 1e-9


class TestHypervolumeAlgebra:
    @given(fronts_3d, st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_added_point(self, F, seed):
        base = hypervolume(F, REF3)
        extra = np.random.default_rng(seed).uniform(0.0, 2.4, size=3)
        grown = hypervolume(np.vstack([F, extra[None, :]]), REF3)
        assert grown >= base - 1e-12

    @given(fronts_3d, st.permutations([0, 1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_objective_permutation(self, F, perm):
        ref = np.asarray([2.2, 2.5, 2.8])
        a = hypervolume(F, tuple(ref))
        b = hypervolume(F[:, perm], tuple(ref[perm]))
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    @given(fronts_2d)
    @settings(max_examples=100, deadline=None)
    def test_dominated_points_never_add_volume(self, F):
        base = hypervolume(F, REF2)
        worst = F.max(axis=0) + 0.1
        grown = hypervolume(np.vstack([F, worst[None, :]]), REF2)
        assert math.isclose(base, grown, rel_tol=1e-12, abs_tol=1e-12)


class TestKernelEquivalence3d:
    @given(matrices_3d)
    @settings(max_examples=100, deadline=None)
    def test_rank_sorts_agree(self, F):
        assert np.array_equal(
            rank_ordinal_sort(F), fast_nondominated_sort(F)
        )

    @given(matrices_3d)
    @settings(max_examples=100, deadline=None)
    def test_crowding_scalar_vectorized_bit_identical(self, F):
        ranks = rank_ordinal_sort(F)
        scalar = crowding_distance(F, ranks, impl="scalar")
        vector = crowding_distance(F, ranks, impl="vectorized")
        assert np.array_equal(
            scalar.view(np.uint64), vector.view(np.uint64)
        )


# ----------------------------------------------------------------------
# degenerate fronts: the _as_front bugfix regressions
# ----------------------------------------------------------------------
class TestDegenerateFronts:
    def test_empty_front_is_zero_not_error(self):
        assert hypervolume([], (1.0, 1.0)) == 0.0
        assert hypervolume(np.empty((0, 3)), (1.0, 1.0, 1.0)) == 0.0

    def test_non_finite_rows_dropped(self):
        F = [[0.5, 0.5], [np.nan, 0.1], [0.1, np.inf]]
        assert hypervolume(F, (1.0, 1.0)) == hypervolume(
            [[0.5, 0.5]], (1.0, 1.0)
        )

    def test_all_rows_beyond_reference_is_zero(self):
        assert hypervolume([[3.0, 3.0], [5.0, 1.5]], (1.0, 1.0)) == 0.0

    def test_single_point_1d(self):
        assert hypervolume([[0.25]], (1.0,)) == pytest.approx(0.75)

    def test_spread_2d_empty_is_nan(self):
        assert np.isnan(spread_2d(np.empty((0, 2))))

    def test_spread_nd_matches_2d_on_two_objectives(self):
        F = np.array([[0.0, 1.0], [0.4, 0.5], [1.0, 0.0]])
        assert spread(F) == spread_2d(F)

    def test_spread_3d_uniform_small(self):
        # evenly spaced points on a 3-D line: near-zero spread
        t = np.linspace(0.0, 1.0, 6)
        F = np.column_stack([t, 1.0 - t, t * 0.5])
        assert spread(F) < 1e-9

    def test_default_reference_padding(self):
        assert default_reference(2) == DEFAULT_OBJECTIVE_REFERENCES[:2]
        assert default_reference(3) == DEFAULT_OBJECTIVE_REFERENCES
        assert default_reference(5) == DEFAULT_OBJECTIVE_REFERENCES + (
            DEFAULT_OBJECTIVE_REFERENCES[-1],
        ) * 2


# ----------------------------------------------------------------------
# the hypervolume early stop
# ----------------------------------------------------------------------
class _FrontRecord:
    def __init__(self, generation, points):
        from repro.evo.individual import RobustIndividual

        self.generation = generation
        self.population = []
        for p in points:
            ind = RobustIndividual(np.zeros(2))
            ind.fitness = np.asarray(p, dtype=np.float64)
            self.population.append(ind)


class TestHypervolumeStopper:
    def test_stops_after_patience_stalled_generations(self):
        stopper = HypervolumeStopper(
            eps=1e-3, patience=2, reference=(1.0, 1.0), min_generations=1
        )
        assert not stopper.observe(_FrontRecord(0, [[0.5, 0.5]]))
        assert not stopper.observe(_FrontRecord(1, [[0.4, 0.4]]))
        # two flat generations: stalled == patience -> stop
        assert not stopper.observe(_FrontRecord(2, [[0.4, 0.4]]))
        assert stopper.observe(_FrontRecord(3, [[0.4, 0.4]]))
        assert stopper.stopped

    def test_improvement_resets_the_stall_counter(self):
        stopper = HypervolumeStopper(
            eps=1e-3, patience=2, reference=(1.0, 1.0), min_generations=1
        )
        stopper.observe(_FrontRecord(0, [[0.5, 0.5]]))
        stopper.observe(_FrontRecord(1, [[0.5, 0.5]]))
        # a real gain wipes the stall streak
        assert not stopper.observe(_FrontRecord(2, [[0.2, 0.2]]))
        assert not stopper.observe(_FrontRecord(3, [[0.2, 0.2]]))
        assert stopper.observe(_FrontRecord(4, [[0.2, 0.2]]))

    def test_min_generations_holds_the_stop_back(self):
        stopper = HypervolumeStopper(
            eps=1e-3, patience=1, reference=(1.0, 1.0), min_generations=5
        )
        for g in range(4):
            assert not stopper.observe(_FrontRecord(g, [[0.5, 0.5]]))
        assert stopper.observe(_FrontRecord(4, [[0.5, 0.5]]))

    def test_sticky_once_stopped(self):
        stopper = HypervolumeStopper(
            eps=1e-3, patience=1, reference=(1.0, 1.0), min_generations=1
        )
        stopper.observe(_FrontRecord(0, [[0.5, 0.5]]))
        stopper.observe(_FrontRecord(1, [[0.5, 0.5]]))
        assert stopper.observe(_FrontRecord(2, [[0.5, 0.5]]))
        # even a huge improvement cannot un-stop a stopped run
        assert stopper.observe(_FrontRecord(3, [[0.01, 0.01]]))

    def test_three_objective_fronts_use_default_reference(self):
        stopper = HypervolumeStopper(eps=1e-3, patience=1)
        rec = _FrontRecord(0, [[0.01, 0.1, 100.0]])
        stopper.observe(rec)
        assert stopper.history[-1][1] > 0.0


# ----------------------------------------------------------------------
# the viable front the telemetry and the stopper measure
# ----------------------------------------------------------------------
def _rows_one_by_one(individuals):
    """The per-individual filter both callers carried before."""
    rows = []
    for ind in individuals:
        fitness = getattr(ind, "fitness", None)
        if fitness is None or not getattr(ind, "is_viable", True):
            continue
        arr = np.asarray(fitness, dtype=np.float64).ravel()
        if arr.size and np.all(np.isfinite(arr)):
            rows.append(arr)
    return rows


_entries = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e300, MAXINT]),
)


class TestViableFitnessRows:
    def _population(self, fitnesses, duck=()):
        from types import SimpleNamespace

        from repro.evo.individual import RobustIndividual

        out = []
        for i, fitness in enumerate(fitnesses):
            if i in duck:
                out.append(SimpleNamespace(fitness=fitness))
                continue
            ind = RobustIndividual(np.zeros(2))
            ind.fitness = None if fitness is None else np.asarray(fitness)
            out.append(ind)
        return out

    def _check(self, individuals):
        from repro.mo.pareto import viable_fitness_rows

        got = viable_fitness_rows(individuals)
        want = _rows_one_by_one(individuals)
        assert len(got) == len(want)
        for row, expected in zip(got, want):
            assert row.tobytes() == expected.tobytes()
        if want:
            assert got.tobytes() == np.asarray(want).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(1, 4),
        data=st.data(),
    )
    def test_same_rows_in_the_same_order(self, width, data):
        fitnesses = data.draw(
            st.lists(
                st.one_of(
                    st.none(), st.lists(_entries, min_size=width, max_size=width)
                ),
                max_size=12,
            )
        )
        self._check(self._population(fitnesses))

    @settings(max_examples=60, deadline=None)
    @given(
        fitnesses=st.lists(
            st.one_of(st.none(), st.lists(_entries, max_size=4)), max_size=8
        ),
        duck=st.sets(st.integers(0, 7), max_size=3),
    )
    def test_ragged_empty_and_duck_typed_take_the_row_path(
        self, fitnesses, duck
    ):
        individuals = self._population(fitnesses, duck)
        widths = {len(f) for f in fitnesses if f is not None}
        try:
            self._check(individuals)
        except ValueError:
            # ragged viable rows do not stack, as they never did
            assert len(widths) > 1

    def test_no_rows(self):
        from repro.mo.pareto import viable_fitness_rows

        assert len(viable_fitness_rows([])) == 0
        all_failed = self._population([[MAXINT, MAXINT]] * 3)
        assert len(viable_fitness_rows(all_failed)) == 0
