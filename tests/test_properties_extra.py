"""Second round of property-based tests: the vectorized neighbor list
against a brute-force reference, autodiff algebraic identities, and
archive/selection invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import autodiff as ad
from repro.autodiff.tensor import Tensor, grad
from repro.evo.individual import Individual
from repro.evo.nsga2 import nsga2_select
from repro.evo.problem import ConstantProblem
from repro.md.cell import PeriodicCell
from repro.md.neighbors import NeighborList, neighbor_pairs
from repro.mo.pareto import ParetoArchive
from tests.neighbor_reference import image_shifts


def _brute_force_neighbors(positions, cell, cutoff):
    """Reference implementation: O(N^2 * images) python loops."""
    n = len(positions)
    shifts = image_shifts(cell, cutoff)
    out = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for s in shifts:
                if i == j and np.all(s == 0.0):
                    continue
                d = positions[j] + s - positions[i]
                if np.dot(d, d) <= cutoff * cutoff:
                    out[i].append((j, tuple(np.round(d, 9))))
    return out


class TestNeighborListAgainstBruteForce:
    @given(
        st.integers(2, 8),
        st.floats(4.0, 12.0),
        st.floats(0.3, 0.95),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_neighbor_sets(self, n, box, cut_frac, seed):
        # cutoff as a generic fraction of the box: self-image distances
        # are exact multiples of the box length, and a cutoff exactly on
        # such a boundary is ill-posed in floating point (the brute
        # reference and any implementation may legitimately disagree)
        cutoff = box * cut_frac * 1.4
        if abs(cutoff / box - round(cutoff / box)) < 1e-6:
            cutoff *= 1.0001
        rng = np.random.default_rng(seed)
        cell = PeriodicCell(box)
        positions = rng.uniform(0, box, size=(n, 3))
        nl = NeighborList.build(positions, cell, cutoff)
        reference = _brute_force_neighbors(positions, cell, cutoff)
        for i in range(n):
            got = set()
            for k in range(nl.max_neighbors):
                if nl.mask[i, k] > 0:
                    got.add(
                        (
                            int(nl.indices[i, k]),
                            tuple(np.round(nl.displacements[i, k], 9)),
                        )
                    )
            assert got == set(reference[i])

    @given(
        st.integers(2, 8),
        st.floats(4.0, 12.0),
        st.floats(1.5, 7.0),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairs_consistent_with_list(self, n, box, cutoff, seed):
        # the table is built from the canonical pair set, so the 2x
        # relation holds for every cutoff, boundaries included
        rng = np.random.default_rng(seed)
        cell = PeriodicCell(box)
        positions = rng.uniform(0, box, size=(n, 3))
        nl = NeighborList.build(positions, cell, cutoff)
        i, j, d = neighbor_pairs(positions, cell, cutoff)
        # total directed neighbor slots == 2x number of unordered pairs
        assert int(nl.mask.sum()) == 2 * len(i)

    @given(st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_distance_sorted_within_atom(self, n, seed):
        rng = np.random.default_rng(seed)
        cell = PeriodicCell(10.0)
        positions = rng.uniform(0, 10, size=(n, 3))
        nl = NeighborList.build(positions, cell, cutoff=6.0)
        r = np.linalg.norm(nl.displacements, axis=-1)
        for a in range(n):
            valid = nl.mask[a].astype(bool)
            ra = r[a][valid]
            assert np.all(np.diff(ra) >= -1e-12)


_vec = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 8),
    elements=st.floats(-3.0, 3.0, allow_nan=False),
)


class TestAutodiffAlgebra:
    @given(_vec)
    @settings(max_examples=60, deadline=None)
    def test_gradient_of_sum_is_ones(self, x):
        t = Tensor(x, requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, 1.0)

    @given(_vec, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_grad_linearity(self, x, a, b):
        """grad(a f + b g) == a grad(f) + b grad(g)."""
        t = Tensor(x, requires_grad=True)
        f = (t * t).sum()
        g = ad.tanh(t).sum()
        combined = f * a + g * b
        (gc,) = grad(combined, [t])
        (gf,) = grad(f, [t])
        (gg,) = grad(g, [t])
        assert np.allclose(gc.data, a * gf.data + b * gg.data, atol=1e-10)

    @given(_vec)
    @settings(max_examples=60, deadline=None)
    def test_chain_rule_identity(self, x):
        """d/dx tanh(x^2) == (1 - tanh(x^2)^2) * 2x."""
        t = Tensor(x, requires_grad=True)
        y = ad.tanh(t * t).sum()
        (g,) = grad(y, [t])
        expected = (1.0 - np.tanh(x * x) ** 2) * 2.0 * x
        assert np.allclose(g.data, expected, atol=1e-10)

    @given(_vec)
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, x):
        t = Tensor(x, requires_grad=True)
        u = ad.sigmoid(t)
        v = t * 2.0
        (g,) = grad((u * v).sum(), [t])
        s = 1.0 / (1.0 + np.exp(-x))
        expected = s * (1 - s) * 2.0 * x + s * 2.0
        assert np.allclose(g.data, expected, atol=1e-9)

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
            elements=st.floats(-2.0, 2.0, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_reshape_transpose_roundtrip_gradient(self, m):
        t = Tensor(m, requires_grad=True)
        y = (t.T.reshape(m.shape) ** 2.0).sum()
        y.backward()
        # roundtrip is a permutation; gradient of sum of squares of a
        # permutation of t equals 2 * permuted values mapped back = 2t
        assert np.allclose(
            np.sort(t.grad.ravel()), np.sort(2.0 * m.ravel())
        )


class TestSelectionInvariants:
    def _pop(self, F):
        out = []
        for f in F:
            ind = Individual([0.0], problem=ConstantProblem(list(f)))
            out.append(ind.evaluate())
        return out

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(2, 25), st.just(2)),
            elements=st.floats(0.0, 10.0, allow_nan=False),
        ),
        st.integers(1, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_nsga2_select_keeps_all_of_better_fronts(self, F, k):
        size = min(k, len(F))
        pop = self._pop(F)
        chosen = nsga2_select(pop, size)
        assert len(chosen) == size
        chosen_ranks = sorted(ind.rank for ind in chosen)
        all_ranks = sorted(ind.rank for ind in pop)
        # the selected ranks are the best `size` ranks available
        assert chosen_ranks == all_ranks[:size]

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 30), st.just(2)),
            elements=st.floats(0.0, 5.0, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_archive_equals_batch_front(self, F):
        """Incremental archiving reaches the same non-dominated set as
        a batch computation (up to exact duplicates, which the archive
        stores once)."""
        from repro.mo.dominance import non_dominated_mask

        archive = ParetoArchive()
        archive.add_all(self._pop(F))
        batch = {tuple(f) for f in F[non_dominated_mask(F)]}
        incremental = {
            tuple(np.atleast_1d(m.fitness)) for m in archive.members
        }
        assert incremental == batch
