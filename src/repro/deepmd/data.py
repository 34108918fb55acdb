"""Descriptor-ready batches built from frame datasets.

Neighbor lists depend on the descriptor's ``rcut`` — itself a searched
hyperparameter — so batch preparation happens per training run.  All
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


def _pad_neighbors(table: np.ndarray, width: int) -> np.ndarray:
    """``table`` with its neighbor axis (axis 1) zero-padded to ``width``."""
    pad = [(0, 0)] * table.ndim
    pad[1] = (0, width - table.shape[1])
    return np.pad(table, pad)


def prepare_batches(
    frames: Sequence[Frame],
    rcut: float,
    batch_size: int = 4,
) -> list[DescriptorBatch]:
    """Split ``frames`` into stacked batches with a common pad width.

    The pad width is the maximum neighbor count over the whole frame
    set so every batch has identical shapes (important for the simple
    optimizer state handling and for fair step-time measurements).
    """
    if not frames:
        raise ValueError("need at least one frame")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    lists = [
        NeighborList.build(f.positions, f.cell, rcut) for f in frames
    ]
    # a table built to its own width is the common-width table minus
    # trailing all-zero slots
    width = max(nl.max_neighbors for nl in lists)
    batches: list[DescriptorBatch] = []
    for start in range(0, len(frames), batch_size):
        chunk = slice(start, start + batch_size)
        fs = frames[chunk]
        nls = lists[chunk]
        batches.append(
            DescriptorBatch(
                displacements=np.stack(
                    [_pad_neighbors(nl.displacements, width) for nl in nls]
                ),
                neighbor_indices=np.stack(
                    [_pad_neighbors(nl.indices, width) for nl in nls]
                ),
                mask=np.stack([_pad_neighbors(nl.mask, width) for nl in nls]),
                species=fs[0].species.copy(),
                energies=np.array([f.energy for f in fs]),
                forces=np.stack([f.forces for f in fs]),
            )
        )
    return batches
