"""Neighbor search with periodic images.

Two entry points:

:func:`neighbor_pairs`
    Flat ``(i, j, displacement)`` pair arrays for pair-potential energy
    and force evaluation (each unordered pair appears once).

:class:`NeighborList`
    Padded per-atom neighbor tables — the layout the DeepPot-SE
    descriptor consumes: for each atom a fixed-width list of neighbor
    indices, displacement vectors and a validity mask.  A table at a
    smaller cutoff is derived from one at a larger cutoff by
    :meth:`NeighborList.within`, without a search.

Both support cutoffs larger than half the box (needed because the HPO
search explores descriptor cutoffs up to 12 Å on boxes that may be
smaller) and positions that were never wrapped into the box.  The
search is one vectorized pass over ``(image shift, i, j)``: a cheap
per-axis test picks the candidates — an image can only hold a neighbor
if every component of the displacement is within the cutoff — and only
the candidates get the exact distance test.  For the few-hundred-atom
systems this reproduction runs, that beats both a per-shift distance
matrix and a Python-loop cell list by a wide margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.cell import PeriodicCell


def _image_range(
    positions: np.ndarray, lengths: np.ndarray, cutoff: float
) -> np.ndarray:
    """Per axis, the largest lattice multiplier ``k`` for which some
    pair can satisfy ``|r_j - r_i + k L| <= cutoff``.

    A pair's component is at most the coordinates' spread, so
    ``|k| L <= cutoff + spread``: sufficient and tight for any spread,
    wrapped coordinates (a coordinate of exactly ``L`` included) or not.
    The distance test rounds, so the reach gets the per-axis test's
    slack (an image a few ulp beyond the cutoff may pass it).
    """
    reach = cutoff + np.ptp(positions, axis=0)
    reach = reach + 1e-12 * (reach + 2.0 * np.abs(positions).max())
    return np.floor(reach / lengths).astype(np.int64)


def neighbor_pairs(
    positions: np.ndarray, cell: PeriodicCell, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All interacting pairs within ``cutoff``.

    Returns ``(i, j, d)`` where ``d[k] = r_j + shift - r_i`` is the
    displacement from atom ``i[k]`` to the (possibly image) atom
    ``j[k]``.  Each unordered pair/image appears exactly once; for
    same-cell pairs this means ``i < j``, and for image pairs the shift
    set is de-duplicated by keeping only the lexicographically positive
    half of the shift vectors.  Pairs come ordered by shift (in
    lexicographic order of its lattice multipliers), then ``i``, then
    ``j``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty((0, 3))
    lengths = cell.lengths
    reach = _image_range(positions, lengths, cutoff)
    ranges = [np.arange(-k, k + 1) for k in reach]
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, 3)
    # the grid is in lexicographic order and symmetric about zero: the
    # zero shift, then the positive half of every +/- pair
    kept = grid[len(grid) // 2 :]
    shifts = kept * lengths
    # the per-axis test rounds differently from the exact test below;
    # this slack (thousands of ulp) keeps its candidates a superset
    bound = cutoff + 1e-12 * (
        cutoff + 2.0 * np.abs(positions).max() + np.abs(shifts).max()
    )
    candidate = np.ones((len(kept), n, n), dtype=bool)
    for axis in range(3):
        x = positions[:, axis]
        delta = x[None, :] - x[:, None]
        images = ranges[axis] * lengths[axis]
        near = np.abs(delta[None] + images[:, None, None]) <= bound
        candidate &= near[kept[:, axis] + reach[axis]]
    candidate[0] &= np.triu(np.ones((n, n), dtype=bool), k=1)
    s, i, j = np.nonzero(candidate)
    d = (positions[j] + shifts[s]) - positions[i]
    within = np.sum(d * d, axis=-1) <= cutoff * cutoff
    return i[within], j[within], d[within]


def _table_width(counts: np.ndarray, max_neighbors: int | None) -> int:
    """A table's width for these per-atom neighbor counts: the observed
    maximum (at least 1), or ``max_neighbors`` if no atom exceeds it."""
    observed_max = int(counts.max()) if len(counts) else 0
    if max_neighbors is None:
        return max(observed_max, 1)
    if observed_max > max_neighbors:
        raise ValueError(
            f"an atom has {observed_max} neighbors, exceeding the "
            f"requested max_neighbors={max_neighbors}"
        )
    return max_neighbors


@dataclass
class NeighborList:
    """Padded per-atom neighbor table for descriptor construction.

    Attributes
    ----------
    indices:
        ``(n_atoms, max_neighbors)`` int array of neighbor atom indices
        (pointing at the *central-cell* copy of each neighbor; forces
        on image atoms fold back onto their central-cell original).
        Padded entries hold 0 and are masked out.
    displacements:
        ``(n_atoms, max_neighbors, 3)`` displacement vectors from the
        central atom to each neighbor (image shifts applied).
    mask:
        ``(n_atoms, max_neighbors)`` float array, 1 for real neighbors.
    """

    indices: np.ndarray
    displacements: np.ndarray
    mask: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.indices.shape[0]

    @property
    def max_neighbors(self) -> int:
        return self.indices.shape[1]

    def neighbor_counts(self) -> np.ndarray:
        return self.mask.sum(axis=1).astype(int)

    @classmethod
    def build(
        cls,
        positions: np.ndarray,
        cell: PeriodicCell,
        cutoff: float,
        max_neighbors: int | None = None,
    ) -> "NeighborList":
        """Construct the padded table from a configuration.

        ``max_neighbors`` defaults to the observed maximum; passing a
        fixed value gives consistent array shapes across frames (and
        raises if any atom exceeds it).
        """
        positions = np.asarray(positions, dtype=np.float64)
        n = len(positions)
        # enumerate each unordered pair/image once and emit both
        # directions with exactly negated displacements, so the table
        # is exactly symmetric even for pairs sitting on the cutoff
        pi, pj, pd = neighbor_pairs(positions, cell, cutoff)
        flat_i = np.concatenate((pi, pj))
        flat_j = np.concatenate((pj, pi))
        flat_d = np.concatenate((pd, -pd))
        counts = np.bincount(flat_i, minlength=n)
        width = _table_width(counts, max_neighbors)
        indices = np.zeros((n, width), dtype=np.int64)
        disp = np.zeros((n, width, 3))
        mask = np.zeros((n, width))
        if len(flat_i):
            # group by central atom, closest-first within each group
            r2 = np.sum(flat_d * flat_d, axis=1)
            order = np.lexsort((r2, flat_i))
            si, sj, sd = flat_i[order], flat_j[order], flat_d[order]
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            slots = np.arange(len(si)) - offsets[si]
            indices[si, slots] = sj
            disp[si, slots] = sd
            mask[si, slots] = 1.0
        return cls(indices=indices, displacements=disp, mask=mask)

    def within(
        self, cutoff: float, max_neighbors: int | None = None
    ) -> "NeighborList":
        """The table :meth:`build` returns for the same configuration at
        a ``cutoff`` no larger than this table's, byte for byte.

        :meth:`build` sorts every row closest-first with a stable sort,
        and the order of two pairs at one distance does not depend on
        the cutoff, so the table at a smaller cutoff is each row's
        prefix of slots within it — by the squared-distance test
        :func:`neighbor_pairs` applies.  ``max_neighbors`` is as for
        :meth:`build`, and may exceed this table's width.
        """
        d = self.displacements
        near = np.sum(d * d, axis=-1) <= cutoff * cutoff
        counts = np.count_nonzero(near & (self.mask > 0.0), axis=1)
        width = _table_width(counts, max_neighbors)
        n, kept = self.n_atoms, min(width, self.max_neighbors)
        indices = np.zeros((n, width), dtype=self.indices.dtype)
        disp = np.zeros((n, width, 3))
        mask = np.zeros((n, width))
        indices[:, :kept] = self.indices[:, :kept]
        disp[:, :kept] = self.displacements[:, :kept]
        mask[:, :kept] = self.mask[:, :kept]
        # zero the slots past each prefix by assignment: multiplying by
        # a mask would leave -0.0 in negative components
        tail = np.arange(kept) >= counts[:, None]
        indices[:, :kept][tail] = 0
        disp[:, :kept][tail] = 0.0
        mask[:, :kept][tail] = 0.0
        return type(self)(indices=indices, displacements=disp, mask=mask)
