"""Descriptor-ready batches built from frame datasets.

Neighbor lists depend on the descriptor's ``rcut`` — itself a searched
hyperparameter — so batch preparation happens per training run; the
tables come from a per-process plane built at the largest ``rcut`` asked
for so far and truncated to each training's (:func:`_neighbor_plane`).  All
frames in a batch are padded to a common neighbor width and stacked so
the whole forward/backward pass is vectorized across the batch.

Nothing the descriptor derives from the displacements depends on a
trainable parameter, and a dataset's displacements never change, so
that part — the environment matrix ``R~`` and its derivative with
respect to the displacements — is computed here in closed form, once
per batch and pair of radii (:meth:`DescriptorBatch.geometry`), and
never enters the autodiff tape.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.md.dataset import Frame
from repro.md.neighbors import NeighborList


@dataclass(frozen=True)
class BatchGeometry:
    """``R~`` and ``dR~/dd`` of one batch at one ``(rcut, rcut_smth)``.

    With ``d`` a displacement, ``r = |d|``, ``s(r)`` the switching
    function and ``w = s / r``, a row of the environment matrix is
    ``R~ = [s, w d]`` and its derivative is held as three coefficient
    arrays: ``ds/dd = ds_coeff * d`` and
    ``d(w d_a)/dd_b = weight * delta_ab + dw_coeff * d_a * d_b``.
    Padded slots are zero in every array.

    ``env`` repeats the operations of the taped reference
    (:meth:`repro.deepmd.descriptor.SmoothDescriptor.environment_matrix`)
    in the same order, so it equals the reference bit for bit; the
    coefficients agree with the reference's taped derivative to a few
    ulp (DESIGN.md §10).
    """

    displacements: np.ndarray  # (..., max_nbr, 3)
    env: np.ndarray  # (..., max_nbr, 4)
    ds_coeff: np.ndarray  # (..., max_nbr)
    weight: np.ndarray  # (..., max_nbr)
    dw_coeff: np.ndarray  # (..., max_nbr)

    @classmethod
    def build(
        cls,
        displacements: np.ndarray,
        mask: np.ndarray,
        rcut: float,
        rcut_smth: float,
    ) -> "BatchGeometry":
        if rcut <= rcut_smth:
            raise ConfigurationError(
                f"rcut ({rcut}) must exceed rcut_smth ({rcut_smth})"
            )
        d = displacements
        r = np.sqrt(np.maximum(np.sum(d * d, axis=-1), 1e-24))
        inv_r = 1.0 / np.maximum(r, 1e-12)
        span = float(rcut - rcut_smth)
        x = (r - rcut_smth) / span
        # poly = x^3 (-6x^2 + 15x - 10) + 1, poly' = -30 x^2 (x - 1)^2
        poly = x * (x * x) * (x * (x * -6.0 + 15.0) + -10.0) + 1.0
        dpoly = -30.0 * (x * x) * ((x - 1.0) * (x - 1.0))
        inner = (r < rcut_smth) & (r > 1e-12)
        mid = (r >= rcut_smth) & (r < rcut)
        s = np.where(inner, inv_r, np.where(mid, inv_r * poly, r * 0.0))
        ds_dr = np.where(
            inner,
            -inv_r * inv_r,
            np.where(mid, (dpoly / span - poly * inv_r) * inv_r, 0.0),
        )
        s = s * mask
        ds_dr = ds_dr * mask
        weight = s * inv_r
        dw_dr = (ds_dr - weight) * inv_r
        env = np.concatenate(
            [s[..., None], d * weight[..., None]], axis=-1
        )
        return cls(
            displacements=d,
            env=env,
            ds_coeff=ds_dr * inv_r,
            weight=weight,
            dw_coeff=dw_dr * inv_r,
        )

@dataclass
class DescriptorBatch:
    """Stacked, padded descriptor inputs for a set of frames.

    Attributes
    ----------
    displacements:
        ``(n_frames, n_atoms, max_nbr, 3)`` displacement vectors.
    neighbor_indices:
        ``(n_frames, n_atoms, max_nbr)`` central-cell neighbor indices.
    mask:
        ``(n_frames, n_atoms, max_nbr)`` validity mask.
    species:
        ``(n_atoms,)`` species indices (identical across frames).
    energies / forces:
        Reference labels, ``(n_frames,)`` and ``(n_frames, n_atoms, 3)``.
    """

    displacements: np.ndarray
    neighbor_indices: np.ndarray
    mask: np.ndarray
    species: np.ndarray
    energies: np.ndarray
    forces: np.ndarray
    _geometries: dict[tuple[float, float], BatchGeometry] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _onehots: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def geometry(self, rcut: float, rcut_smth: float) -> BatchGeometry:
        """The batch's :class:`BatchGeometry` at these radii, built on
        first use and kept: every training step reuses it."""
        key = (float(rcut), float(rcut_smth))
        found = self._geometries.get(key)
        if found is None:
            found = self._geometries[key] = BatchGeometry.build(
                self.displacements, self.mask, *key
            )
        return found

    def species_onehots(self, n_species: int) -> tuple[np.ndarray, np.ndarray]:
        """Constant one-hot species encodings ``(neighbor, central)``,
        ``(B, N, nn, S)`` (zero in padded slots) and ``(B, N, S)``,
        built on first use and kept like :meth:`geometry`."""
        found = self._onehots.get(n_species)
        if found is None:
            eye = np.eye(n_species)
            neighbor = eye[self.species[self.neighbor_indices]]
            neighbor = neighbor * self.mask[..., None]
            central = np.broadcast_to(
                eye[self.species], self.mask.shape[:2] + (n_species,)
            ).copy()
            found = self._onehots[n_species] = (neighbor, central)
        return found

    @property
    def n_frames(self) -> int:
        return self.displacements.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.displacements.shape[1]

    @property
    def max_neighbors(self) -> int:
        return self.displacements.shape[2]


#: frame sets whose neighbour plane a process keeps (a training uses
#: two: its train and its validation frames)
_PLANE_SLOTS = 4
_planes: dict[bytes, tuple[float, list[NeighborList]]] = {}
_planes_lock = threading.Lock()


def _frames_digest(frames: Sequence[Frame]) -> bytes:
    """A digest of everything a neighbour table depends on: every
    frame's positions and box."""
    h = hashlib.blake2b(digest_size=16)
    for f in frames:
        positions = np.ascontiguousarray(f.positions, dtype=np.float64)
        h.update(np.asarray(positions.shape, dtype=np.int64).tobytes())
        h.update(positions.tobytes())
        h.update(f.cell.lengths.tobytes())
    return h.digest()


def _neighbor_plane(frames: Sequence[Frame], rcut: float) -> list[NeighborList]:
    """Every frame's neighbour table at ``rcut`` or a larger cutoff.

    A process keeps one plane per frame set, for the last few frame sets
    asked for, at the largest cutoff asked for so far: a training's
    tables are then :meth:`NeighborList.within` the plane, and only a
    larger cutoff builds again.  A plane is replaced, never changed in
    place, so two threads racing cost a duplicate build, never a wrong
    table.
    """
    key = _frames_digest(frames)
    with _planes_lock:
        found = _planes.pop(key, None)
        if found is not None:
            _planes[key] = found  # most recently used last
    if found is not None and found[0] >= rcut:
        return found[1]
    tables = [NeighborList.build(f.positions, f.cell, rcut) for f in frames]
    with _planes_lock:
        current = _planes.get(key)
        if current is None or current[0] < rcut:
            _planes[key] = (rcut, tables)
        while len(_planes) > _PLANE_SLOTS:
            del _planes[next(iter(_planes))]
    return tables


def prepare_batches(
    frames: Sequence[Frame],
    rcut: float,
    batch_size: int = 4,
) -> list[DescriptorBatch]:
    """Split ``frames`` into stacked batches with a common pad width.

    The pad width is the maximum neighbor count over the whole frame
    set so every batch has identical shapes (important for the simple
    optimizer state handling and for fair step-time measurements).
    The tables are those :meth:`NeighborList.build` makes at ``rcut``,
    taken from the process's :func:`_neighbor_plane`.
    """
    if not frames:
        raise ValueError("need at least one frame")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    tables = [nl.within(rcut) for nl in _neighbor_plane(frames, rcut)]
    width = max(t.max_neighbors for t in tables)
    lists = [
        t if t.max_neighbors == width else t.within(rcut, width)
        for t in tables
    ]
    batches: list[DescriptorBatch] = []
    for start in range(0, len(frames), batch_size):
        chunk = slice(start, start + batch_size)
        fs = frames[chunk]
        nls = lists[chunk]
        batches.append(
            DescriptorBatch(
                displacements=np.stack([nl.displacements for nl in nls]),
                neighbor_indices=np.stack([nl.indices for nl in nls]),
                mask=np.stack([nl.mask for nl in nls]),
                species=fs[0].species.copy(),
                energies=np.array([f.energy for f in fs]),
                forces=np.stack([f.forces for f in fs]),
            )
        )
    return batches
