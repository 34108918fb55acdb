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

    def __repr__(self) -> str:  # pragma: no cover
        return f"PeriodicCell(lengths={self.lengths.tolist()})"
