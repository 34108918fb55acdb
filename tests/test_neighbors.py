"""The vectorized neighbour search against the loop it replaced.

``neighbor_pairs`` and ``NeighborList.build`` must return the arrays of
the loop over image shifts in ``tests/neighbor_reference.py`` byte for
byte wherever that loop is right — every cell, cutoff and configuration
whose coordinates span at most one box length, distance ties and pairs
exactly on the cutoff included — and, unlike it, must not depend on the
positions having been wrapped into the box.

``NeighborList.within`` derives the table at a smaller cutoff from a
larger one, and ``prepare_batches`` takes every training's tables that
way from a per-process plane: both must return what a fresh build at
the cutoff returns, byte for byte.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.deepmd import data
from repro.deepmd.calculator import DeepPotCalculator
from repro.deepmd.data import prepare_batches
from repro.deepmd.descriptor import DescriptorConfig
from repro.deepmd.model import DeepPotModel, ModelConfig
from repro.md.cell import PeriodicCell
from repro.md.dataset import Frame
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


# ----------------------------------------------------------------------
# 3. a table at a smaller cutoff is every row's prefix of a larger one
# ----------------------------------------------------------------------
def table_arrays(table):
    return table.indices, table.displacements, table.mask


def on_pair_distances(table, low, count, rng):
    """``count`` cutoffs placed exactly on pair distances of ``table``
    at or above ``low``."""
    d = table.displacements
    r = np.sqrt(np.sum(d * d, axis=-1))[table.mask > 0]
    return [float(x) for x in rng.choice(r[r >= low], count)]


#: two atoms one box length apart along y (a coordinate of exactly L)
#: with a cutoff of one box length: the image two boxes over sits
#: exactly on the cutoff
ONE_BOX_APART = (
    np.array([[1.0, 4.0, 1.0], [1.0, 0.0, 1.0]]),
    PeriodicCell(4.0),
    4.0,
)


class TestPrefixTables:
    @settings(max_examples=200, deadline=None)
    @given(configurations(), st.floats(1.0, 2.0))
    @example(ONE_BOX_APART, 2.0)
    def test_within_a_larger_table_is_the_build_and_the_loop(
        self, config, grow
    ):
        positions, cell, cutoff = config
        plane = NeighborList.build(positions, cell, cutoff * grow)
        table = plane.within(cutoff)
        assert_same_bytes(
            table_arrays(table),
            table_arrays(NeighborList.build(positions, cell, cutoff)),
        )
        assert_same_bytes(
            table_arrays(table),
            table_arrays(reference.build_neighbor_list(positions, cell, cutoff)),
        )

    def test_a_pair_one_box_apart_on_a_cutoff_of_one_box(self):
        positions, cell, cutoff = ONE_BOX_APART
        table = NeighborList.build(positions, cell, cutoff)
        # six self images, and the other atom at y shifts 0, 1 (five
        # images, one coincident) and 2
        assert table.neighbor_counts().tolist() == [13, 13]
        assert_same_bytes(
            table_arrays(NeighborList.build(positions, cell, 8.0).within(cutoff)),
            table_arrays(table),
        )
        assert_same_as_reference(positions, cell, cutoff)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("atoms", [(4, 2), (32, 16)], ids=["20", "160"])
    def test_the_gene_range_from_a_12_angstrom_plane(self, atoms, seed):
        system = molten_salt_system(*atoms, rng=seed)
        plane = NeighborList.build(system.positions, system.cell, 12.0)
        rng = np.random.default_rng(seed)
        cutoffs = list(np.linspace(6.0, 12.0, 7)) + list(rng.uniform(6, 12, 3))
        cutoffs += on_pair_distances(plane, 6.0, 4, rng)
        for cutoff in cutoffs:
            assert_same_bytes(
                table_arrays(plane.within(cutoff)),
                table_arrays(
                    NeighborList.build(system.positions, system.cell, cutoff)
                ),
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_unwrapped_positions(self, seed):
        rng = np.random.default_rng(seed)
        system = molten_salt_system(4, 2, rng=seed)
        moved = translated(system.positions, system.cell, rng)
        assert np.any(np.ptp(moved, axis=0) > system.cell.lengths)
        plane = NeighborList.build(moved, system.cell, 12.0)
        for cutoff in [6.0, 8.5, 11.0] + on_pair_distances(plane, 6.0, 3, rng):
            assert_same_bytes(
                table_arrays(plane.within(cutoff)),
                table_arrays(NeighborList.build(moved, system.cell, cutoff)),
            )

    def test_a_fixed_width_pads_or_refuses_like_build(self):
        system = molten_salt_system(4, 2, rng=0)
        plane = NeighborList.build(system.positions, system.cell, 8.0)
        table = plane.within(6.0, plane.max_neighbors + 5)
        assert_same_bytes(
            table_arrays(table),
            table_arrays(
                NeighborList.build(
                    system.positions,
                    system.cell,
                    6.0,
                    max_neighbors=plane.max_neighbors + 5,
                )
            ),
        )
        with pytest.raises(ValueError, match="max_neighbors=1"):
            plane.within(6.0, 1)


# ----------------------------------------------------------------------
# 4. prepare_batches takes its tables from the plane, byte for byte
# ----------------------------------------------------------------------
def built_batches(frames, rcut, batch_size):
    """The batches' tables as ``prepare_batches`` made them before the
    plane: one build per frame at ``rcut``, zero-padded to the widest."""
    tables = [NeighborList.build(f.positions, f.cell, rcut) for f in frames]
    width = max(t.max_neighbors for t in tables)

    def padded(array):
        widths = [(0, 0)] * array.ndim
        widths[1] = (0, width - array.shape[1])
        return np.pad(array, widths)

    return [
        tuple(
            np.stack([padded(a) for a in arrays])
            for arrays in zip(*map(table_arrays, tables[start : start + batch_size]))
        )
        for start in range(0, len(frames), batch_size)
    ]


def assert_batches_built(frames, rcut, batch_size=4):
    got = prepare_batches(frames, rcut, batch_size)
    expected = built_batches(frames, rcut, batch_size)
    assert len(got) == len(expected)
    for batch, arrays in zip(got, expected):
        assert_same_bytes(
            (batch.neighbor_indices, batch.displacements, batch.mask), arrays
        )


@pytest.fixture
def builds(monkeypatch):
    """An empty plane memo, and the ``NeighborList.build`` calls made."""
    monkeypatch.setattr(data, "_planes", {})
    calls = []
    build = NeighborList.build.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs["cutoff"])
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(NeighborList, "build", classmethod(counted))
    return calls


def frames_of(system, count, rng, box_scale=1.0):
    rng = np.random.default_rng(rng)
    return [
        Frame(
            positions=(system.positions + rng.normal(0, 0.1, system.positions.shape))
            * box_scale,
            species=system.species,
            energy=0.0,
            forces=np.zeros_like(system.positions),
            box=system.cell.lengths * box_scale,
        )
        for _ in range(count)
    ]


class TestPlaneBatches:
    def test_a_plane_grown_from_7_to_12_angstrom(self, small_dataset, builds):
        frames = small_dataset.train
        for rcut in (7.0, 12.0, 9.0, 7.0, 6.0):
            assert_batches_built(frames, rcut)
        n = len(frames)
        # one build per frame for the plane at 7 and at 12, and the
        # oracle's own builds
        assert builds.count(7.0) == n + 2 * n and builds.count(12.0) == 2 * n
        assert builds.count(9.0) == builds.count(6.0) == n
        ((cutoff, plane),) = data._planes.values()
        assert cutoff == 12.0 and len(plane) == n

    def test_frames_of_different_widths(self, builds):
        system = molten_salt_system(4, 2, rng=0)
        frames = frames_of(system, 3, 1) + frames_of(system, 3, 2, box_scale=0.8)
        frames = [frames[i] for i in (3, 0, 4, 1, 5, 2)]
        widths = {
            NeighborList.build(f.positions, f.cell, 7.0).max_neighbors
            for f in frames
        }
        assert max(widths) > 1.5 * min(widths)
        for rcut in (12.0, 7.0, 9.5):
            assert_batches_built(frames, rcut, batch_size=2)

    def test_the_validation_batches_of_four_with_a_short_last(
        self, small_dataset, builds
    ):
        frames = small_dataset.validation[:6]
        for rcut in (8.0, 6.5, 11.0, 9.0):
            batches = prepare_batches(frames, rcut, batch_size=4)
            assert [b.n_frames for b in batches] == [4, 2]
            assert_batches_built(frames, rcut)

    def test_the_memo_keys_on_positions_and_box(self, small_dataset, builds):
        frames = small_dataset.train[:4]
        prepare_batches(frames, 8.0)
        prepare_batches(list(frames), 7.0)  # same content, new list
        assert len(builds) == 4
        moved = frames_of(molten_salt_system(4, 2, rng=0), 4, 3)
        prepare_batches(moved, 7.0)
        assert len(builds) == 8 and len(data._planes) == 2

    def test_threads_racing_on_one_memo_get_the_built_tables(self, builds):
        """Planes grow while other threads read and evict them: every
        training still gets the tables a fresh build gives."""
        system = molten_salt_system(4, 2, rng=0)
        sets = [frames_of(system, 3, seed) for seed in range(data._PLANE_SLOTS + 1)]
        cutoffs = [6.0, 11.5, 7.25, 9.0, 12.0, 6.5]
        expected = {
            (k, rcut): built_batches(frames, rcut, 2)
            for k, frames in enumerate(sets)
            for rcut in cutoffs
        }
        wrong = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(12):
                k = int(rng.integers(len(sets)))
                rcut = cutoffs[int(rng.integers(len(cutoffs)))]
                got = prepare_batches(sets[k], rcut, 2)
                arrays = [
                    (b.neighbor_indices, b.displacements, b.mask) for b in got
                ]
                if any(
                    x.tobytes() != y.tobytes()
                    for batch, want in zip(arrays, expected[k, rcut])
                    for x, y in zip(batch, want)
                ):
                    wrong.append((k, rcut))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(data._planes) <= data._PLANE_SLOTS

    def test_the_memo_keeps_a_few_frame_sets(self, builds):
        system = molten_salt_system(4, 2, rng=0)
        sets = [frames_of(system, 2, seed) for seed in range(data._PLANE_SLOTS + 2)]
        for frames in sets:
            prepare_batches(frames, 6.0)
        assert len(data._planes) == data._PLANE_SLOTS
        # the oldest went first; the newest is still there
        prepare_batches(sets[-1], 6.0)
        prepare_batches(sets[0], 6.0)
        assert len(builds) == 2 * (len(sets) + 1)
