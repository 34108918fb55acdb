"""The loop-over-image-shifts neighbour search of commit ``955b4ea``,
kept verbatim as the oracle for :mod:`repro.md.neighbors`.

``neighbor_pairs`` and ``NeighborList.build`` must return the same
arrays as these, byte for byte, on every input whose coordinates are
spread over at most one box length — the inputs this loop handles
correctly (``tests/test_neighbors.py``).
"""

from __future__ import annotations

import numpy as np

from repro.md.cell import PeriodicCell
from repro.md.neighbors import NeighborList


def neighbor_pairs(
    positions: np.ndarray, cell: PeriodicCell, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)  # noqa: F841 - kept verbatim
    shifts = cell.image_shifts(cutoff)
    zero_mask = np.all(shifts == 0.0, axis=1)
    # keep the zero shift plus one representative of each +/- shift pair
    keep = []
    for s, is_zero in zip(shifts, zero_mask):
        if is_zero:
            keep.append(s)
        elif (s[0], s[1], s[2]) > (-s[0], -s[1], -s[2]):
            keep.append(s)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    cut2 = cutoff * cutoff
    for s in keep:
        diff = positions[None, :, :] + s - positions[:, None, :]
        dist2 = np.sum(diff * diff, axis=-1)
        if np.all(s == 0.0):
            ii, jj = np.where(
                np.triu(dist2 <= cut2, k=1)
            )
        else:
            ii, jj = np.where(dist2 <= cut2)
        if len(ii):
            out_i.append(ii)
            out_j.append(jj)
            out_d.append(diff[ii, jj])
    if not out_i:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty((0, 3))
    return (
        np.concatenate(out_i),
        np.concatenate(out_j),
        np.concatenate(out_d),
    )


def build_neighbor_list(
    positions: np.ndarray,
    cell: PeriodicCell,
    cutoff: float,
    max_neighbors: int | None = None,
) -> NeighborList:
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    cut2 = cutoff * cutoff  # noqa: F841 - kept verbatim
    all_i: list[np.ndarray] = []
    all_j: list[np.ndarray] = []
    all_d: list[np.ndarray] = []
    pi, pj, pd = neighbor_pairs(positions, cell, cutoff)
    if len(pi):
        all_i.append(pi)
        all_j.append(pj)
        all_d.append(pd)
        all_i.append(pj)
        all_j.append(pi)
        all_d.append(-pd)
    if all_i:
        flat_i = np.concatenate(all_i)
        flat_j = np.concatenate(all_j)
        flat_d = np.concatenate(all_d)
    else:
        flat_i = np.empty(0, dtype=np.int64)
        flat_j = np.empty(0, dtype=np.int64)
        flat_d = np.empty((0, 3))
    counts = np.bincount(flat_i, minlength=n)
    observed_max = int(counts.max()) if len(counts) else 0
    if max_neighbors is None:
        width = max(observed_max, 1)
    else:
        if observed_max > max_neighbors:
            raise ValueError(
                f"an atom has {observed_max} neighbors, exceeding the "
                f"requested max_neighbors={max_neighbors}"
            )
        width = max_neighbors
    indices = np.zeros((n, width), dtype=np.int64)
    disp = np.zeros((n, width, 3))
    mask = np.zeros((n, width))
    if len(flat_i):
        r2 = np.sum(flat_d * flat_d, axis=1)
        order = np.lexsort((r2, flat_i))
        si, sj, sd = flat_i[order], flat_j[order], flat_d[order]
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        slots = np.arange(len(si)) - offsets[si]
        indices[si, slots] = sj
        disp[si, slots] = sd
        mask[si, slots] = 1.0
    return NeighborList(indices=indices, displacements=disp, mask=mask)
