"""The vectorized neighbour search against the loop it replaced.

``neighbor_pairs`` and ``NeighborList.build`` must return the arrays of
the loop over image shifts in ``tests/neighbor_reference.py`` byte for
byte wherever that loop is right — every cell, cutoff and configuration
whose coordinates span at most one box length, distance ties and pairs
exactly on the cutoff included — and, unlike it, must not depend on the
positions having been wrapped into the box.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.deepmd.calculator import DeepPotCalculator
from repro.deepmd.descriptor import DescriptorConfig
from repro.deepmd.model import DeepPotModel, ModelConfig
from repro.md.cell import PeriodicCell
from repro.md.neighbors import NeighborList, neighbor_pairs
from repro.md.system import molten_salt_potential, molten_salt_system
from tests import neighbor_reference as reference


def assert_same_bytes(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_same_as_reference(positions, cell, cutoff):
    assert_same_bytes(
        neighbor_pairs(positions, cell, cutoff),
        reference.neighbor_pairs(positions, cell, cutoff),
    )
    table = NeighborList.build(positions, cell, cutoff)
    expected = reference.build_neighbor_list(positions, cell, cutoff)
    assert_same_bytes(
        (table.indices, table.displacements, table.mask),
        (expected.indices, expected.displacements, expected.mask),
    )


# ----------------------------------------------------------------------
# 1. byte for byte the loop, on everything it handles
# ----------------------------------------------------------------------
@st.composite
def configurations(draw):
    """``(positions, cell, cutoff)``: random, lattice (distance ties) or
    edge coordinates (exactly ``L``, ``-0.0``), with a cutoff from
    0.3 L to 1.5 L or exactly on a pair distance."""
    if draw(st.booleans()):
        lengths = np.full(3, draw(st.floats(4.0, 20.0)))
    else:
        lengths = np.array(
            draw(st.lists(st.floats(4.0, 20.0), min_size=3, max_size=3))
        )
    cell = PeriodicCell(lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["uniform", "lattice", "edges"]))
    if kind == "lattice":
        m = draw(st.integers(2, 4))
        sites = np.stack(
            np.meshgrid(*[np.arange(m)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        chosen = rng.choice(len(sites), size=min(n, len(sites)), replace=False)
        positions = sites[chosen] * (lengths / m)
    else:
        positions = rng.uniform(0.0, 1.0, size=(n, 3)) * lengths
        if kind == "edges":
            edge = rng.uniform(size=positions.shape) < 0.3
            positions[edge] = np.where(
                rng.uniform(size=positions.shape) < 0.5, lengths, -0.0
            )[edge]
    if draw(st.booleans()):
        cutoff = draw(st.floats(0.3, 1.5)) * float(lengths.min())
    else:
        # exactly on a pair distance: d2 <= cutoff^2 decides by rounding
        _, _, d = reference.neighbor_pairs(
            positions, cell, 1.5 * float(lengths.min())
        )
        assume(len(d))
        r = np.sqrt(np.sum(d * d, axis=1))
        cutoff = float(r[draw(st.integers(0, len(r) - 1))])
        assume(cutoff > 0.0)
    return positions, cell, cutoff


class TestSameBytesAsTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(configurations())
    def test_pairs_and_tables(self, config):
        assert_same_as_reference(*config)

    @pytest.mark.parametrize("rcut", [3.0, 4.5, 6.0, 8.0, 8.5, 10.0, 12.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_paper_sized_cell(self, seed, rcut):
        system = molten_salt_system(32, 16, rng=seed)  # 160 atoms, 17.84 A
        assert_same_as_reference(system.positions, system.cell, rcut)

    @pytest.mark.parametrize("rcut", [4.46, 5.0, 6.0, 8.0, 8.92, 12.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scaled_down_cell(self, seed, rcut):
        system = molten_salt_system(4, 2, rng=seed)  # 20 atoms, 8.92 A
        assert_same_as_reference(system.positions, system.cell, rcut)

    @pytest.mark.parametrize("delta", [-1e-9, 0.0, 1e-9])
    def test_cutoff_at_half_the_box(self, delta):
        box = 12.0
        positions = np.random.default_rng(5).uniform(0, box, size=(64, 3))
        assert_same_as_reference(
            positions, PeriodicCell(box), box / 2 + delta
        )

    @pytest.mark.parametrize("cutoff", [1.0, 2.0, np.sqrt(2.0) * 2.0, 4.0, 6.0])
    def test_simple_cubic_lattice_ties(self, cutoff):
        # every distance is a tie, and every cutoff here sits on one
        grid = np.stack(
            np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3) * 2.0
        assert_same_as_reference(grid, PeriodicCell(8.0), cutoff)

    def test_empty_and_single_atom(self):
        cell = PeriodicCell(5.0)
        assert_same_as_reference(np.zeros((1, 3)), cell, 2.0)  # no pair
        assert_same_as_reference(np.zeros((1, 3)), cell, 6.0)  # own images
        i, j, d = neighbor_pairs(np.empty((0, 3)), cell, 2.0)
        assert len(i) == len(j) == len(d) == 0 and d.shape == (0, 3)


# ----------------------------------------------------------------------
# 2. positions outside [0, L): lattice translations change nothing
# ----------------------------------------------------------------------
def pair_set(i, j, d):
    """Unordered pairs as sorted ``(min, max, |d|)`` arrays."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    r = np.sqrt(np.sum(d * d, axis=1))
    order = np.lexsort((r, hi, lo))
    return lo[order], hi[order], r[order]


def translated(positions, cell, rng, max_shift=3):
    moved = positions.copy()
    subset = rng.uniform(size=len(positions)) < 0.5
    shifts = rng.integers(-max_shift, max_shift + 1, size=(len(positions), 3))
    moved[subset] += shifts[subset] * cell.lengths
    return moved


def small_calculator(rcut):
    config = ModelConfig(
        descriptor=DescriptorConfig(rcut=rcut, rcut_smth=1.0),
        embedding_widths=(4, 8),
        axis_neurons=3,
        fitting_widths=(8,),
    )
    return DeepPotCalculator(DeepPotModel(config, rng=0))


class TestUnwrappedPositions:
    def test_eight_atoms_moved_by_lattice_vectors(self):
        """A shift range sized for wrapped coordinates finds 39 of these
        63 pairs at rcut 4 and 158 of 243 at rcut 6."""
        system = molten_salt_system(4, 2, rng=3)
        cell = system.cell
        moved = system.positions.copy()
        lattice_vectors = np.array(
            [
                [1, 0, 0], [0, -1, 0], [0, 0, 2], [1, 1, 0],
                [-1, 0, 1], [0, 2, -1], [2, 0, 0], [-1, -1, -1],
            ]
        )  # fmt: skip
        moved[:8] += lattice_vectors * cell.lengths
        for rcut in (4.0, 6.0):
            wrapped = pair_set(*neighbor_pairs(system.positions, cell, rcut))
            unwrapped = pair_set(*neighbor_pairs(moved, cell, rcut))
            assert np.array_equal(unwrapped[0], wrapped[0])
            assert np.array_equal(unwrapped[1], wrapped[1])
            np.testing.assert_allclose(unwrapped[2], wrapped[2], atol=1e-12)
            table = NeighborList.build(moved, cell, rcut)
            assert table.mask.sum() == 2 * len(wrapped[0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 20),
        st.floats(4.0, 14.0),
        st.floats(0.3, 1.5),
        st.integers(0, 2**32 - 1),
    )
    def test_pair_set_is_translation_invariant(self, n, box, frac, seed):
        rng = np.random.default_rng(seed)
        cell = PeriodicCell(box)
        positions = rng.uniform(0, box, size=(n, 3))
        cutoff = frac * box
        moved = translated(positions, cell, rng)
        lo, hi, r = pair_set(*neighbor_pairs(positions, cell, cutoff))
        lo2, hi2, r2 = pair_set(*neighbor_pairs(moved, cell, cutoff))
        # a pair this close to the cutoff may fall either side of it
        # once the coordinates round differently
        assume(np.all(np.abs(r - cutoff) > 1e-9))
        assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
        np.testing.assert_allclose(r2, r, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_calculators_are_translation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        system = molten_salt_system(4, 2, rng=seed)
        moved = translated(system.positions, system.cell, rng)
        for calculator in (
            small_calculator(rcut=4.0),
            small_calculator(rcut=6.0),
            molten_salt_potential(cutoff=4.4),
        ):
            e, f = calculator.energy_and_forces(
                system.positions, system.species, system.cell
            )
            e2, f2 = calculator.energy_and_forces(
                moved, system.species, system.cell
            )
            assert abs(e2 - e) <= 1e-12 * max(1.0, abs(e))
            assert np.max(np.abs(f2 - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))
