"""Ewald summation for point-charge electrostatics.

The production data generator uses damped shifted-force (DSF) Coulomb
— fast and adequate for generating training data — but validating that
choice requires the exact reference: the classic Ewald split of the
conditionally convergent Coulomb sum into a short-ranged real-space
part, a smooth reciprocal-space part, and self/background corrections.
``tests/test_md_physics.py`` checks the DSF energies and forces against
this implementation, and :class:`EwaldCoulomb` can replace
:class:`~repro.md.potentials.DSFCoulomb` in the reference force field
when higher fidelity matters more than speed.

Units: eV, Å, elementary charges (the Coulomb constant is applied
internally).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.md.cell import PeriodicCell
from repro.md.neighbors import neighbor_pairs
from repro.md.potentials import COULOMB_EV_ANGSTROM


class EwaldCoulomb:
    """Exact periodic Coulomb energy and forces via Ewald summation.

    Parameters
    ----------
    charges_by_species:
        Charge per species index.
    alpha:
        Splitting parameter (Å⁻¹); ``None`` picks
        ``5 / min(L)``, a robust default for small boxes.
    r_cut:
        Real-space cutoff; defaults to just under half the box.
    k_max:
        Reciprocal-space shell limit (integer triples with
        ``|n| <= k_max`` per axis, excluding 0).
    """

    def __init__(
        self,
        charges_by_species,
        alpha: Optional[float] = None,
        r_cut: Optional[float] = None,
        k_max: int = 7,
    ) -> None:
        self.charges = np.asarray(charges_by_species, dtype=np.float64)
        self.alpha = alpha
        self.r_cut = r_cut
        self.k_max = int(k_max)

    # ------------------------------------------------------------------
    def _parameters(self, cell: PeriodicCell) -> tuple[float, float]:
        L_min = float(cell.lengths.min())
        alpha = self.alpha if self.alpha is not None else 5.0 / L_min
        r_cut = (
            self.r_cut if self.r_cut is not None else 0.49 * L_min
        )
        return alpha, r_cut

    def energy_and_forces(
        self,
        positions: np.ndarray,
        species: np.ndarray,
        cell: PeriodicCell,
    ) -> tuple[float, np.ndarray]:
        positions = np.asarray(positions, dtype=np.float64)
        q = self.charges[np.asarray(species)]
        n = len(positions)
        alpha, r_cut = self._parameters(cell)
        k = COULOMB_EV_ANGSTROM
        forces = np.zeros((n, 3))

        # ---------------- real space ----------------
        i, j, d = neighbor_pairs(positions, cell, r_cut)
        e_real = 0.0
        if len(i):
            from scipy.special import erfc

            r = np.sqrt(np.sum(d * d, axis=1))
            qq = q[i] * q[j] * k
            e_real = float(np.sum(qq * erfc(alpha * r) / r))
            f_scalar = qq * (
                erfc(alpha * r) / r**2
                + (2.0 * alpha / np.sqrt(np.pi))
                * np.exp(-((alpha * r) ** 2))
                / r
            )
            fvec = (f_scalar / r)[:, None] * d
            np.add.at(forces, j, fvec)
            np.add.at(forces, i, -fvec)

        # ---------------- reciprocal space ----------------
        L = cell.lengths
        volume = cell.volume
        rng_k = np.arange(-self.k_max, self.k_max + 1)
        grid = np.stack(
            np.meshgrid(rng_k, rng_k, rng_k, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        grid = grid[np.any(grid != 0, axis=1)]
        kvecs = 2.0 * np.pi * grid / L  # (M, 3)
        k2 = np.sum(kvecs * kvecs, axis=1)
        keep = k2 < (2.0 * np.pi * self.k_max / L.max()) ** 2 * 4.0
        kvecs, k2 = kvecs[keep], k2[keep]
        phases = positions @ kvecs.T  # (n, M)
        s_re = q @ np.cos(phases)
        s_im = q @ np.sin(phases)
        prefac = (
            4.0 * np.pi / volume * np.exp(-k2 / (4.0 * alpha**2)) / k2
        )
        e_recip = 0.5 * k * float(
            np.sum(prefac * (s_re**2 + s_im**2))
        )
        # forces: F_i = k q_i sum_k prefac k_vec [sin(k.r_i) S_re - cos(k.r_i) S_im]
        sin_p = np.sin(phases)
        cos_p = np.cos(phases)
        coeff = prefac * (
            sin_p * s_re[None, :] - cos_p * s_im[None, :]
        )  # (n, M)
        forces += k * q[:, None] * (coeff @ kvecs)

        # ---------------- self energy ----------------
        e_self = -k * alpha / np.sqrt(np.pi) * float(np.sum(q * q))

        # (neutral systems: no background term)
        return e_real + e_recip + e_self, forces


def madelung_nacl(n_cells: int = 2, k_max: int = 8) -> float:
    """Madelung constant of rock-salt NaCl computed via Ewald.

    Returns the dimensionless constant (literature: 1.747565); used by
    the test suite as an absolute correctness check of the summation.
    """
    # unit cube of side 2 with alternating charges on a simple cubic net
    a = 1.0  # nearest-neighbor spacing
    n = 2 * n_cells
    coords = []
    charges = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                coords.append([x * a, y * a, z * a])
                charges.append(1.0 if (x + y + z) % 2 == 0 else -1.0)
    positions = np.asarray(coords, dtype=np.float64)
    species = np.array(
        [0 if c > 0 else 1 for c in charges], dtype=np.int64
    )
    cell = PeriodicCell(n * a)
    ewald = EwaldCoulomb([1.0, -1.0], k_max=k_max)
    energy, _ = ewald.energy_and_forces(positions, species, cell)
    # E = -M * k * N / (2a) summed over ion pairs -> per-ion energy
    per_ion = energy / len(positions)
    return float(-per_ion * 2.0 * a / COULOMB_EV_ANGSTROM)
