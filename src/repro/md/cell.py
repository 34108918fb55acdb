"""Periodic simulation cells.

Only orthorhombic (and in practice cubic, like the paper's 17.84 Å
box) cells are needed; minimum-image displacements and periodic
wrapping are vectorized over atom arrays.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np


class PeriodicCell:
    """An orthorhombic periodic box.

    Parameters
    ----------
    lengths:
        Either a single float (cubic box) or three edge lengths.
    """

    def __init__(self, lengths: Union[float, Iterable[float]]) -> None:
        arr = np.atleast_1d(np.asarray(lengths, dtype=np.float64))
        if arr.size == 1:
            arr = np.repeat(arr, 3)
        if arr.shape != (3,):
            raise ValueError("cell needs one or three edge lengths")
        if np.any(arr <= 0):
            raise ValueError("cell edge lengths must be positive")
        self.lengths = arr

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def is_cubic(self) -> bool:
        return bool(np.all(self.lengths == self.lengths[0]))

    def matrix(self) -> np.ndarray:
        """3×3 cell matrix (diagonal for orthorhombic cells)."""
        return np.diag(self.lengths)

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map positions into ``[0, L)`` per axis."""
        return np.mod(positions, self.lengths)

    def minimum_image(self, displacement: np.ndarray) -> np.ndarray:
        """Minimum-image convention applied to displacement vectors."""
        return displacement - self.lengths * np.round(
            displacement / self.lengths
        )

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Minimum-image distances between position arrays ``a`` and ``b``."""
        d = self.minimum_image(np.asarray(b) - np.asarray(a))
        return np.sqrt(np.sum(d * d, axis=-1))

    def max_cutoff(self) -> float:
        """Largest cutoff valid under pure minimum-image (L/2)."""
        return float(self.lengths.min() / 2.0)

    def image_shifts(self, cutoff: float) -> np.ndarray:
        """Lattice translation vectors covering interactions up to ``cutoff``.

        When ``cutoff`` exceeds L/2 (as the paper's descriptor radial
        cutoffs of up to 12 Å do for a scaled-down box) interactions
        with periodic images beyond the first shell matter; this
        returns all integer-combination shift vectors whose cells could
        contain a neighbor within ``cutoff`` — of an atom wrapped into
        the cell.  Wrapped coordinates (``L`` itself included) put a
        pair at most ``L`` apart per axis, so ``|k| L <= cutoff + L``.
        (:func:`repro.md.neighbors.neighbor_pairs` sizes its own range
        from the positions, so it does not need them wrapped.)
        """
        n = np.floor(cutoff / self.lengths).astype(int) + 1
        ranges = [np.arange(-k, k + 1) for k in n]
        grid = np.stack(
            np.meshgrid(*ranges, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        return grid * self.lengths

    def __repr__(self) -> str:  # pragma: no cover
        return f"PeriodicCell(lengths={self.lengths.tolist()})"
