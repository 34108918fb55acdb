"""Property-based tests (hypothesis) on the core invariants.

These cover the algebraic properties that unit tests with fixed inputs
cannot: sorting equivalence on arbitrary fitness matrices, Pareto-front
definitions, decoder totality, switching-function smoothness, periodic
geometry, and hypervolume monotonicity.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff.tensor import Tensor
from repro.deepmd.descriptor import smooth_switch
from repro.evo.decoder import floor_mod_choice
from repro.evo.individual import MAXINT
from repro.evo.nsga2 import (
    crowding_distance,
    fast_nondominated_sort,
    rank_ordinal_sort,
)
from repro.md.cell import PeriodicCell
from repro.mo.dominance import dominates, non_dominated_mask
from repro.mo.metrics import hypervolume_2d

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
fitness_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(1, 40), st.integers(2, 4)
    ),
    elements=st.floats(
        min_value=-100.0, max_value=100.0, allow_nan=False
    ),
)

# heavy-tie matrices: small integer grids force many duplicates
tied_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 30), st.just(2)),
    elements=st.integers(0, 4).map(float),
)


class TestSortingProperties:
    @given(fitness_matrices)
    @settings(max_examples=150, deadline=None)
    def test_rank_ordinal_equals_fast_sort(self, F):
        assert np.array_equal(
            rank_ordinal_sort(F), fast_nondominated_sort(F)
        )

    @given(tied_matrices)
    @settings(max_examples=150, deadline=None)
    def test_rank_ordinal_equals_fast_sort_with_ties(self, F):
        assert np.array_equal(
            rank_ordinal_sort(F), fast_nondominated_sort(F)
        )

    @given(fitness_matrices)
    @settings(max_examples=100, deadline=None)
    def test_rank_one_iff_non_dominated(self, F):
        ranks = rank_ordinal_sort(F)
        mask = non_dominated_mask(F)
        assert np.array_equal(ranks == 1, mask)

    @given(fitness_matrices)
    @settings(max_examples=100, deadline=None)
    def test_ranks_contiguous_from_one(self, F):
        ranks = rank_ordinal_sort(F)
        present = np.unique(ranks)
        assert np.array_equal(present, np.arange(1, len(present) + 1))

    @given(tied_matrices)
    @settings(max_examples=100, deadline=None)
    def test_dominance_implies_strictly_lower_rank(self, F):
        ranks = rank_ordinal_sort(F)
        n = len(F)
        for i in range(min(n, 10)):
            for j in range(min(n, 10)):
                if dominates(F[i], F[j]):
                    assert ranks[i] < ranks[j]

    @given(fitness_matrices)
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, F):
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(F))
        ranks = rank_ordinal_sort(F)
        ranks_perm = rank_ordinal_sort(F[perm])
        assert np.array_equal(ranks[perm], ranks_perm)

    @given(tied_matrices)
    @settings(max_examples=50, deadline=None)
    def test_equal_fitness_equal_rank(self, F):
        ranks = rank_ordinal_sort(F)
        for i in range(len(F)):
            same = np.all(F == F[i], axis=1)
            assert len(set(ranks[same])) == 1

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 20), st.just(2)),
            elements=st.floats(0.0, 10.0, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_maxint_failures_always_worst_front(self, F):
        assume(np.all(F < 1e6))
        failures = np.full((3, 2), MAXINT)
        combined = np.vstack([F, failures])
        ranks = rank_ordinal_sort(combined)
        # every finite row ranks strictly better than the failures
        assert ranks[: len(F)].max() < ranks[len(F) :].min()


class TestCrowdingProperties:
    @given(fitness_matrices)
    @settings(max_examples=100, deadline=None)
    def test_distances_non_negative(self, F):
        ranks = rank_ordinal_sort(F)
        d = crowding_distance(F, ranks)
        assert np.all((d >= 0) | np.isinf(d))

    @given(fitness_matrices)
    @settings(max_examples=100, deadline=None)
    def test_no_nans(self, F):
        ranks = rank_ordinal_sort(F)
        assert not np.isnan(crowding_distance(F, ranks)).any()

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(3, 20), st.just(2)),
            elements=st.floats(0.0, 10.0, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_objective_extremes_infinite(self, F):
        ranks = rank_ordinal_sort(F)
        d = crowding_distance(F, ranks)
        first = ranks == 1
        sub = F[first]
        dsub = d[first]
        if first.sum() >= 2:
            assert np.isinf(dsub[np.argmin(sub[:, 0])])
            assert np.isinf(dsub[np.argmax(sub[:, 0])])


class TestParetoProperties:
    @given(fitness_matrices)
    @settings(max_examples=100, deadline=None)
    def test_front_members_mutually_nondominating(self, F):
        mask = non_dominated_mask(F)
        front = F[mask]
        for i in range(len(front)):
            for j in range(len(front)):
                assert not dominates(front[i], front[j])

    @given(fitness_matrices)
    @settings(max_examples=100, deadline=None)
    def test_every_dominated_point_has_dominator_on_front(self, F):
        mask = non_dominated_mask(F)
        front = F[mask]
        for i in np.where(~mask)[0]:
            assert any(dominates(f, F[i]) for f in front)

    @given(fitness_matrices)
    @settings(max_examples=50, deadline=None)
    def test_front_idempotent(self, F):
        mask = non_dominated_mask(F)
        front = F[mask]
        assert non_dominated_mask(front).all()


class TestHypervolumeProperties:
    points_2d = hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 15), st.just(2)),
        elements=st.floats(0.0, 0.99, allow_nan=False),
    )

    @given(points_2d)
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_reference_box(self, F):
        hv = hypervolume_2d(F, (1.0, 1.0))
        assert 0.0 <= hv <= 1.0

    @given(points_2d, st.integers(0, 14))
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_addition(self, F, k):
        hv_all = hypervolume_2d(F, (1.0, 1.0))
        subset = np.delete(F, k % len(F), axis=0)
        hv_subset = hypervolume_2d(subset, (1.0, 1.0))
        assert hv_all >= hv_subset - 1e-12

    @given(points_2d)
    @settings(max_examples=50, deadline=None)
    def test_dominated_points_contribute_nothing(self, F):
        mask = non_dominated_mask(F)
        assert np.isclose(
            hypervolume_2d(F, (1.0, 1.0)),
            hypervolume_2d(F[mask], (1.0, 1.0)),
        )


class TestDecoderProperties:
    @given(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False
        ),
        st.integers(1, 10),
    )
    def test_floor_mod_total_and_in_range(self, value, n):
        choices = [f"c{i}" for i in range(n)]
        assert floor_mod_choice(value, choices) in choices

    @given(st.integers(0, 9), st.floats(0.0, 0.999))
    def test_floor_mod_stable_within_unit_interval(self, k, frac):
        """All values in [k, k+1) decode identically."""
        choices = ["a", "b", "c"]
        assert floor_mod_choice(k + frac, choices) == floor_mod_choice(
            float(k), choices
        )

    @given(st.floats(-100.0, 100.0, allow_nan=False), st.integers(1, 7))
    def test_floor_mod_periodic(self, value, n):
        # stay away from integer boundaries where value + n can round
        # across the floor step in floating point
        assume(abs(value - round(value)) > 1e-6)
        choices = [f"c{i}" for i in range(n)]
        assert floor_mod_choice(value, choices) == floor_mod_choice(
            value + n, choices
        )


class TestSwitchFunctionProperties:
    @given(
        st.floats(0.01, 20.0),
        st.floats(0.5, 5.0),
        st.floats(0.5, 6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_switch_bounded_and_nonnegative(self, r, rcut_smth, span):
        rcut = rcut_smth + span
        s = smooth_switch(Tensor([r]), rcut, rcut_smth).data[0]
        assert 0.0 <= s <= 1.0 / min(r, rcut_smth) + 1e-9

    @given(st.floats(0.5, 5.0), st.floats(0.5, 6.0))
    @settings(max_examples=100, deadline=None)
    def test_switch_zero_outside(self, rcut_smth, span):
        rcut = rcut_smth + span
        s = smooth_switch(
            Tensor([rcut + 0.1, rcut * 2]), rcut, rcut_smth
        ).data
        assert np.allclose(s, 0.0)

    @given(st.floats(1.0, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_switch_monotone_decreasing(self, rcut_smth):
        rcut = rcut_smth + 3.0
        rs = np.linspace(rcut_smth * 0.5, rcut + 0.5, 200)
        s = smooth_switch(Tensor(rs), rcut, rcut_smth).data
        assert np.all(np.diff(s) <= 1e-12)


class TestPeriodicCellProperties:
    @given(
        st.floats(2.0, 50.0),
        hnp.arrays(
            dtype=np.float64,
            shape=(3,),
            elements=st.floats(-200.0, 200.0, allow_nan=False),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_minimum_image_within_half_box(self, L, d):
        cell = PeriodicCell(L)
        m = cell.minimum_image(d)
        assert np.all(np.abs(m) <= L / 2 + 1e-9)

    @given(
        st.floats(2.0, 50.0),
        hnp.arrays(
            dtype=np.float64,
            shape=(3,),
            elements=st.floats(-200.0, 200.0, allow_nan=False),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_wrap_into_box(self, L, p):
        cell = PeriodicCell(L)
        w = cell.wrap(p)
        assert np.all(w >= 0.0) and np.all(w < L + 1e-9)

    @given(
        st.floats(2.0, 50.0),
        hnp.arrays(
            dtype=np.float64,
            shape=(3,),
            elements=st.floats(-100.0, 100.0, allow_nan=False),
        ),
        hnp.arrays(
            dtype=np.float64,
            shape=(3,),
            elements=st.floats(-2.0, 2.0, allow_nan=False),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_distance_translation_invariant(self, L, a, shift):
        cell = PeriodicCell(L)
        b = a + np.array([1.0, 0.5, 0.25])
        d1 = cell.distance(a, b)
        d2 = cell.distance(a + shift * L, b + shift * L)
        assert np.isclose(d1, d2, atol=1e-6)

    @given(st.floats(2.0, 20.0), st.floats(0.1, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_image_shifts_cover_cutoff(self, L, cutoff):
        cell = PeriodicCell(L)
        shifts = cell.image_shifts(cutoff)
        # the largest shift magnitude must reach at least the cutoff
        max_reach = np.abs(shifts).max() + L / 2
        assert max_reach >= min(cutoff, np.abs(shifts).max() + L / 2)
        # zero shift always included
        assert np.any(np.all(shifts == 0.0, axis=1))


class TestLandscapeProperties:
    @given(
        st.floats(1e-7, 0.0099),
        st.floats(1e-7, 9.9e-5),
        st.floats(6.01, 12.0),
        st.floats(2.0, 5.99),
        st.sampled_from(["linear", "sqrt", "none"]),
        st.sampled_from(
            ["relu", "relu6", "softplus", "sigmoid", "tanh"]
        ),
        st.sampled_from(
            ["relu", "relu6", "softplus", "sigmoid", "tanh"]
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_objectives_positive_or_divergent(
        self, start_lr, stop_lr, rcut, rcut_smth, scale, desc, fit
    ):
        from repro.exceptions import TrainingDivergedError
        from repro.hpo.landscape import SurrogateDeepMDProblem

        prob = SurrogateDeepMDProblem(seed=0)
        phenome = {
            "start_lr": start_lr,
            "stop_lr": stop_lr,
            "rcut": rcut,
            "rcut_smth": rcut_smth,
            "scale_by_worker": scale,
            "desc_activ_func": desc,
            "fitting_activ_func": fit,
        }
        try:
            energy, force = prob.mean_objectives(phenome)
        except TrainingDivergedError:
            return
        assert energy > 0.0 and force > 0.0
        assert np.isfinite(energy) and np.isfinite(force)
