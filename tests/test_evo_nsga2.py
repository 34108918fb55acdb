"""Tests for NSGA-II sorting, crowding, annealing, and the driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import Context
from repro.evo.algorithm import (
    generational_nsga2,
    random_initial_population,
)
from repro.evo.annealing import AnnealingSchedule, OneFifthSuccessRule
from repro.evo.individual import MAXINT, Individual, RobustIndividual
from repro.evo.nsga2 import (
    crowding_distance,
    crowding_distance_calc,
    dominates,
    fast_nondominated_sort,
    nsga2_select,
    rank_ordinal_sort,
    rank_ordinal_sort_op,
)
from repro.evo.problem import ConstantProblem, FunctionProblem


class TestDominance:
    def test_strictly_better_dominates(self):
        assert dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))

    def test_equal_does_not_dominate(self):
        assert not dominates(np.array([1.0, 1.0]), np.array([1.0, 1.0]))

    def test_partial_better_does_not_dominate(self):
        assert not dominates(np.array([1.0, 3.0]), np.array([2.0, 2.0]))

    def test_one_axis_equal_one_better(self):
        assert dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))


class TestFastNondominatedSort:
    def test_single_front(self):
        # all mutually non-dominated along a line
        F = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        assert np.array_equal(fast_nondominated_sort(F), [1, 1, 1, 1])

    def test_chain_of_fronts(self):
        F = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert np.array_equal(fast_nondominated_sort(F), [1, 2, 3])

    def test_duplicates_share_front(self):
        F = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert np.array_equal(fast_nondominated_sort(F), [1, 1, 2])

    def test_empty(self):
        assert len(fast_nondominated_sort(np.zeros((0, 2)))) == 0

    def test_nan_rejected(self):
        F = np.array([[np.nan, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="NaN"):
            fast_nondominated_sort(F)

    def test_maxint_sorts_last(self):
        F = np.array([[1.0, 2.0], [MAXINT, MAXINT], [2.0, 1.0]])
        ranks = fast_nondominated_sort(F)
        assert ranks[1] == ranks.max()

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            fast_nondominated_sort(np.array([1.0, 2.0]))


class TestRankOrdinalSort:
    def test_matches_fast_sort_random(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            F = rng.normal(size=(n, 2))
            assert np.array_equal(
                rank_ordinal_sort(F), fast_nondominated_sort(F)
            )

    def test_matches_fast_sort_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            F = rng.integers(0, 5, size=(n, 2)).astype(float)
            assert np.array_equal(
                rank_ordinal_sort(F), fast_nondominated_sort(F)
            )

    def test_matches_fast_sort_three_objectives(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(2, 40))
            F = rng.integers(0, 4, size=(n, 3)).astype(float)
            assert np.array_equal(
                rank_ordinal_sort(F), fast_nondominated_sort(F)
            )

    def test_single_objective(self):
        F = np.array([[3.0], [1.0], [2.0], [1.0]])
        assert np.array_equal(rank_ordinal_sort(F), [3, 1, 2, 1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            rank_ordinal_sort(np.array([[np.nan, 1.0]]))

    def test_all_identical(self):
        F = np.ones((5, 2))
        assert np.array_equal(rank_ordinal_sort(F), np.ones(5))

    def test_maxint_failures_rank_behind_everything(self):
        F = np.array(
            [[0.01, 0.1], [MAXINT, MAXINT], [0.02, 0.05], [MAXINT, MAXINT]]
        )
        ranks = rank_ordinal_sort(F)
        assert ranks[0] == ranks[2] == 1
        assert ranks[1] == ranks[3] == 2


class TestCrowdingDistance:
    def test_boundaries_infinite(self):
        F = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        ranks = np.ones(4, dtype=int)
        d = crowding_distance(F, ranks)
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])

    def test_uniform_spacing_equal_interior(self):
        F = np.column_stack(
            [np.linspace(0, 1, 5), np.linspace(1, 0, 5)]
        )
        d = crowding_distance(F, np.ones(5, dtype=int))
        assert np.isclose(d[1], d[2]) and np.isclose(d[2], d[3])

    def test_small_front_all_infinite(self):
        F = np.array([[1.0, 2.0], [2.0, 1.0]])
        d = crowding_distance(F, np.ones(2, dtype=int))
        assert np.isinf(d).all()

    def test_fronts_independent(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0], [5.0, 6.0], [6.0, 5.0]])
        ranks = np.array([1, 1, 2, 2])
        d = crowding_distance(F, ranks)
        assert np.isinf(d).all()

    def test_degenerate_objective_no_nan(self):
        F = np.array([[1.0, 0.0], [1.0, 0.5], [1.0, 1.0], [1.0, 0.2]])
        d = crowding_distance(F, np.ones(4, dtype=int))
        assert not np.isnan(d).any()

    def test_denser_region_smaller_distance(self):
        F = np.array(
            [[0.0, 1.0], [0.1, 0.9], [0.15, 0.85], [0.6, 0.4], [1.0, 0.0]]
        )
        d = crowding_distance(F, np.ones(5, dtype=int))
        assert d[2] < d[3]


class TestOperators:
    def _evaluated(self, fitnesses):
        out = []
        for f in fitnesses:
            ind = Individual([0.0], problem=ConstantProblem(f))
            ind.evaluate()
            out.append(ind)
        return out

    def test_rank_op_assigns_ranks(self):
        pop = self._evaluated([[0.0, 0.0], [1.0, 1.0]])
        ranked = rank_ordinal_sort_op()(pop)
        assert ranked[0].rank == 1
        assert ranked[1].rank == 2

    def test_rank_op_merges_parents(self):
        parents = self._evaluated([[0.0, 0.0]])
        offspring = self._evaluated([[1.0, 1.0]])
        combined = rank_ordinal_sort_op(parents=parents)(offspring)
        assert len(combined) == 2
        assert {ind.rank for ind in combined} == {1, 2}

    def test_rank_op_unevaluated_raises(self):
        with pytest.raises(ValueError, match="evaluated"):
            rank_ordinal_sort_op()([Individual([0.0])])

    def test_rank_op_unknown_algorithm(self):
        with pytest.raises(ValueError):
            rank_ordinal_sort_op(algorithm="bogo")

    def test_crowding_op_requires_ranks(self):
        pop = self._evaluated([[0.0, 0.0]])
        with pytest.raises(ValueError, match="rank"):
            crowding_distance_calc(pop)

    def test_crowding_op_sets_distance(self):
        pop = self._evaluated([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        ranked = rank_ordinal_sort_op()(pop)
        crowded = crowding_distance_calc(ranked)
        assert all(ind.distance is not None for ind in crowded)

    def test_nsga2_select_keeps_first_front(self):
        pop = self._evaluated(
            [[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [5.0, 5.0], [6.0, 6.0]]
        )
        chosen = nsga2_select(pop, size=3)
        fits = {tuple(ind.fitness) for ind in chosen}
        assert fits == {(0.0, 3.0), (1.0, 2.0), (2.0, 1.0)}

    def test_nsga2_select_ties_break_by_crowding(self):
        # one big front; selection should keep the extremes
        F = [[0.0, 1.0], [0.01, 0.99], [0.02, 0.98], [1.0, 0.0]]
        pop = self._evaluated(F)
        chosen = nsga2_select(pop, size=2)
        fits = {tuple(np.round(ind.fitness, 3)) for ind in chosen}
        assert (0.0, 1.0) in fits and (1.0, 0.0) in fits


class TestAnnealing:
    def test_fixed_schedule_decays(self):
        sched = AnnealingSchedule(np.array([1.0, 2.0]), factor=0.85)
        sched.step()
        assert np.allclose(sched.current, [0.85, 1.7])

    def test_reset_restores_initial(self):
        sched = AnnealingSchedule(np.array([1.0]), factor=0.5)
        sched.step()
        sched.reset()
        assert np.allclose(sched.current, [1.0])

    def test_min_std_floor(self):
        sched = AnnealingSchedule(
            np.array([1.0]), factor=0.1, min_std=0.5
        )
        sched.step()
        sched.step()
        assert np.allclose(sched.current, [0.5])

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(np.array([1.0]), factor=0.0)

    def test_paper_schedule_after_six_generations(self):
        sched = AnnealingSchedule(np.array([0.0625]), factor=0.85)
        for _ in range(6):
            sched.step()
        assert np.isclose(sched.current[0], 0.0625 * 0.85**6)

    def test_context_shared_with_mutation(self):
        ctx = Context()
        sched = AnnealingSchedule(np.array([1.0]), context=ctx)
        assert "std" in ctx
        sched.step()
        assert np.allclose(ctx["std"], [0.85])

    def test_one_fifth_rule_grows_on_success(self):
        rule = OneFifthSuccessRule(np.array([1.0]), factor=0.85)
        rule.step(success_rate=0.5)
        assert rule.current[0] > 1.0

    def test_one_fifth_rule_shrinks_on_failure(self):
        rule = OneFifthSuccessRule(np.array([1.0]), factor=0.85)
        rule.step(success_rate=0.05)
        assert rule.current[0] < 1.0

    def test_one_fifth_rule_holds_at_target(self):
        rule = OneFifthSuccessRule(np.array([1.0]), target_rate=0.2)
        rule.step(success_rate=0.2)
        assert np.allclose(rule.current, [1.0])

    def test_one_fifth_rule_without_rate_decays(self):
        rule = OneFifthSuccessRule(np.array([1.0]), factor=0.85)
        rule.step()
        assert np.isclose(rule.current[0], 0.85)


def _sphere_two_objectives(x):
    # module level, so the problem pickles into pool workers
    return np.array([float(np.sum(x**2)), float(np.sum((x - 1.0) ** 2))])


class _SphereTwoObjectives(FunctionProblem):
    """min (||x||^2, ||x - 1||^2): a simple convex biobjective."""

    def __init__(self):
        super().__init__(_sphere_two_objectives, n_objectives=2)


class TestGenerationalNSGA2:
    def _run(self, generations=5, pop=16, **kwargs):
        n = 3
        return generational_nsga2(
            problem=_SphereTwoObjectives(),
            init_ranges=np.tile([-2.0, 2.0], (n, 1)),
            initial_std=np.full(n, 0.3),
            pop_size=pop,
            generations=generations,
            hard_bounds=np.tile([-2.0, 2.0], (n, 1)),
            rng=0,
            **kwargs,
        )

    def test_record_count_includes_generation_zero(self):
        records = self._run(generations=5)
        assert len(records) == 6
        assert records[0].generation == 0

    def test_population_size_constant(self):
        records = self._run()
        assert all(len(r.population) == 16 for r in records)

    def test_all_evaluated(self):
        records = self._run()
        for rec in records:
            assert all(ind.is_evaluated for ind in rec.evaluated)

    def test_std_annealed_between_generations(self):
        records = self._run(generations=3)
        stds = [r.std[0] for r in records]
        assert np.isclose(stds[1], stds[0] * 0.85)
        assert np.isclose(stds[2], stds[1] * 0.85)

    def test_progress_toward_front(self):
        records = self._run(generations=20)
        first = records[0].fitness_matrix()
        last = records[-1].fitness_matrix()
        # total deviation from the ideal point shrinks
        assert last.sum(axis=1).mean() < first.sum(axis=1).mean()

    def test_callback_invoked_per_generation(self):
        seen = []
        self._run(generations=4, callback=lambda rec: seen.append(rec.generation))
        assert seen == [0, 1, 2, 3, 4]

    def test_failures_counted(self):
        class SometimesFails(FunctionProblem):
            def __init__(self):
                self.count = 0
                super().__init__(self._eval, n_objectives=2)

            def _eval(self, x):
                self.count += 1
                if self.count % 3 == 0:
                    raise RuntimeError("boom")
                return np.array([1.0, 1.0])

        records = generational_nsga2(
            problem=SometimesFails(),
            init_ranges=np.array([[0.0, 1.0]]),
            initial_std=np.array([0.1]),
            pop_size=9,
            generations=1,
            rng=0,
        )
        assert records[0].n_failures == 3

    def test_invalid_init_ranges(self):
        with pytest.raises(ValueError):
            random_initial_population(
                4, np.array([1.0, 2.0]), _SphereTwoObjectives()
            )

    def test_selection_is_elitist(self):
        """mu+lambda: a parent on the first front survives mutation noise."""
        records = self._run(generations=8)
        for prev, curr in zip(records, records[1:]):
            prev_best = prev.fitness_matrix().sum(axis=1).min()
            curr_best = curr.fitness_matrix().sum(axis=1).min()
            # scalarized best never gets dramatically worse (elitism keeps
            # non-dominated parents; small wobble possible as the front
            # spreads, none beyond noise)
            assert curr_best <= prev_best + 0.3

    def test_process_pool_evaluation(self):
        from repro.engine import ProcessPoolBackend

        with ProcessPoolBackend(workers=2) as pool:
            records = self._run(generations=2, client=pool)
        assert all(ind.is_evaluated for ind in records[-1].population)


class TestVectorizedKernelEquivalence:
    """The vectorized NSGA-II kernels are pinned bit-for-bit to the
    scalar reference oracle — including duplicate rows and MAXINT
    failure fitnesses, the two inputs a real campaign produces that
    random clouds rarely do."""

    @staticmethod
    def _assert_bit_identical(F):
        from repro.evo import nsga2

        rs = nsga2.rank_ordinal_sort(F, impl="scalar")
        rv = nsga2.rank_ordinal_sort(F, impl="vectorized")
        assert np.array_equal(rs, rv)
        if len(F):
            # fast sort is the second oracle for the ranks themselves
            assert np.array_equal(rs, fast_nondominated_sort(F))
            ds = nsga2.crowding_distance(F, rs, impl="scalar")
            dv = nsga2.crowding_distance(F, rs, impl="vectorized")
            # view as bits: inf==inf and every float is the same float
            assert np.array_equal(
                ds.view(np.uint64), dv.view(np.uint64)
            )

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        ),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_two_objective_random_fronts(self, rows, data):
        F = np.asarray(rows, dtype=np.float64).reshape(len(rows), 2)
        n = len(F)
        if n >= 2:
            # duplicate some rows and fail some individuals at MAXINT
            n_dup = data.draw(st.integers(0, n // 2))
            for _ in range(n_dup):
                src = data.draw(st.integers(0, n - 1))
                dst = data.draw(st.integers(0, n - 1))
                F[dst] = F[src]
            n_fail = data.draw(st.integers(0, n // 2))
            for _ in range(n_fail):
                F[data.draw(st.integers(0, n - 1))] = float(MAXINT)
        self._assert_bit_identical(F)

    @given(
        st.integers(1, 25),
        st.integers(3, 5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_many_objective_crowding(self, n, m, seed):
        """3+ objectives share one sort path, but crowding still has
        two implementations to pin together."""
        from repro.evo import nsga2

        rng = np.random.default_rng(seed)
        F = rng.normal(size=(n, m))
        if n >= 3:
            F[0] = F[n - 1]  # at least one exact duplicate
            F[1] = float(MAXINT)
        ranks = nsga2.rank_ordinal_sort(F)
        ds = nsga2.crowding_distance(F, ranks, impl="scalar")
        dv = nsga2.crowding_distance(F, ranks, impl="vectorized")
        assert np.array_equal(ds.view(np.uint64), dv.view(np.uint64))

    def test_all_identical_rows(self):
        self._assert_bit_identical(np.zeros((9, 2)))

    def test_all_maxint(self):
        self._assert_bit_identical(np.full((5, 2), float(MAXINT)))

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError, match="impl"):
            rank_ordinal_sort(np.zeros((2, 2)), impl="simd")
        with pytest.raises(ValueError, match="impl"):
            crowding_distance(
                np.zeros((2, 2)), np.ones(2, dtype=int), impl="gpu"
            )
