"""Pair potentials for the reference (ground-truth) force field.

The molten-salt surrogate uses Born–Mayer–Huggins repulsion/dispersion
plus damped shifted-force (DSF/Wolf) Coulomb electrostatics — a
standard rigid-ion molten-salt model.  All evaluation is vectorized
over flat pair arrays produced by :func:`repro.md.neighbors.neighbor_pairs`.

Units: energies in eV, distances in Å, charges in elementary charges.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.md.cell import PeriodicCell
from repro.md.neighbors import neighbor_pairs

#: Coulomb constant e^2 / (4 pi eps0) in eV * Angstrom.
COULOMB_EV_ANGSTROM = 14.399645


class PairPotential:
    """Base class: species-aware pairwise energy/force evaluation.

    Subclasses implement :meth:`pair_energy_and_scalar_force` returning,
    for arrays of pair distances and species indices, the pair energies
    and the scalar radial force magnitudes ``-dU/dr``.
    """

    cutoff: float

    def pair_energy_and_scalar_force(
        self, r: np.ndarray, si: np.ndarray, sj: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError

    def energy_and_forces(
        self,
        positions: np.ndarray,
        species: np.ndarray,
        cell: PeriodicCell,
    ) -> tuple[float, np.ndarray]:
        """Total potential energy and per-atom forces for a configuration."""
        i, j, d = neighbor_pairs(positions, cell, self.cutoff)
        n = len(positions)
        forces = np.zeros((n, 3))
        if len(i) == 0:
            return 0.0, forces
        r = np.sqrt(np.sum(d * d, axis=1))
        u, f_scalar = self.pair_energy_and_scalar_force(
            r, species[i], species[j]
        )
        # force on j along +d, equal and opposite on i
        fvec = (f_scalar / r)[:, None] * d
        np.add.at(forces, j, fvec)
        np.add.at(forces, i, -fvec)
        return float(np.sum(u)), forces


class LennardJones(PairPotential):
    """Single-species 12-6 Lennard-Jones with a shifted energy cutoff.

    Used by tests (energy conservation, force consistency) where a
    minimal potential is clearer than the full molten-salt model.
    """

    def __init__(
        self, epsilon: float = 0.01, sigma: float = 3.0, cutoff: float = 9.0
    ) -> None:
        self.epsilon = float(epsilon)
        self.sigma = float(sigma)
        self.cutoff = float(cutoff)
        sr6 = (self.sigma / self.cutoff) ** 6
        self._shift = 4.0 * self.epsilon * (sr6 * sr6 - sr6)

    def pair_energy_and_scalar_force(self, r, si, sj):
        sr6 = (self.sigma / r) ** 6
        sr12 = sr6 * sr6
        u = 4.0 * self.epsilon * (sr12 - sr6) - self._shift
        # -dU/dr
        f = 4.0 * self.epsilon * (12.0 * sr12 - 6.0 * sr6) / r
        return u, f


class BornMayerHuggins(PairPotential):
    """Born–Mayer–Huggins repulsion + dispersion.

    ``U(r) = A_ij * exp(-r / rho_ij) - C_ij / r^6``

    with per-species-pair tables ``A`` (eV), ``rho`` (Å), ``C``
    (eV·Å^6).  Energies are shifted to zero at the cutoff.
    """

    def __init__(
        self,
        A: np.ndarray,
        rho: np.ndarray,
        C: np.ndarray,
        cutoff: float = 8.0,
    ) -> None:
        self.A = np.asarray(A, dtype=np.float64)
        self.rho = np.asarray(rho, dtype=np.float64)
        self.C = np.asarray(C, dtype=np.float64)
        if not (self.A.shape == self.rho.shape == self.C.shape):
            raise ValueError("A, rho, C tables must share a shape")
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("parameter tables must be square (n_species^2)")
        for name, table in (("A", self.A), ("rho", self.rho), ("C", self.C)):
            if not np.allclose(table, table.T):
                raise ValueError(f"{name} table must be symmetric")
        self.cutoff = float(cutoff)

    def _shift(self, si, sj):
        rc = self.cutoff
        return self.A[si, sj] * np.exp(-rc / self.rho[si, sj]) - self.C[
            si, sj
        ] / rc**6

    def pair_energy_and_scalar_force(self, r, si, sj):
        A = self.A[si, sj]
        rho = self.rho[si, sj]
        C = self.C[si, sj]
        rep = A * np.exp(-r / rho)
        disp = C / r**6
        u = rep - disp - self._shift(si, sj)
        f = rep / rho - 6.0 * disp / r
        return u, f


class DSFCoulomb(PairPotential):
    """Damped shifted-force Coulomb (Fennell & Gezelter 2006).

    ``U(r) = q_i q_j k [ erfc(a r)/r - erfc(a rc)/rc
                         + (r - rc) * (erfc(a rc)/rc^2
                         + 2a/sqrt(pi) * exp(-a^2 rc^2)/rc) ]``

    Both the energy and the force go smoothly to zero at the cutoff,
    which keeps the thermostatted MD stable without an Ewald sum.
    """

    def __init__(
        self,
        charges_by_species: Sequence[float],
        alpha: float = 0.2,
        cutoff: float = 8.0,
    ) -> None:
        self.charges = np.asarray(charges_by_species, dtype=np.float64)
        self.alpha = float(alpha)
        self.cutoff = float(cutoff)
        from scipy.special import erfc

        rc = self.cutoff
        a = self.alpha
        self._e_rc = erfc(a * rc) / rc
        self._f_rc = self._e_rc / rc + (
            2.0 * a / np.sqrt(np.pi)
        ) * np.exp(-(a * rc) ** 2) / rc

    def pair_energy_and_scalar_force(self, r, si, sj):
        from scipy.special import erfc

        qq = self.charges[si] * self.charges[sj] * COULOMB_EV_ANGSTROM
        a = self.alpha
        erfc_ar = erfc(a * r)
        u = qq * (erfc_ar / r - self._e_rc + (r - self.cutoff) * self._f_rc)
        # -dU/dr = qq * [erfc(ar)/r^2 + 2a/sqrt(pi) exp(-a^2 r^2)/r - f_rc]
        f = qq * (
            erfc_ar / r**2
            + (2.0 * a / np.sqrt(np.pi)) * np.exp(-(a * r) ** 2) / r
            - self._f_rc
        )
        return u, f


class CompositePotential(PairPotential):
    """Sum of pair potentials; cutoff is the max of the members'."""

    def __init__(self, terms: Sequence[PairPotential]) -> None:
        if not terms:
            raise ValueError("need at least one potential term")
        self.terms = list(terms)
        self.cutoff = max(t.cutoff for t in self.terms)

    def pair_energy_and_scalar_force(self, r, si, sj):
        u = np.zeros_like(r)
        f = np.zeros_like(r)
        for term in self.terms:
            within = r <= term.cutoff
            if not np.any(within):
                continue
            ut, ft = term.pair_energy_and_scalar_force(
                r[within], si[within], sj[within]
            )
            u[within] += ut
            f[within] += ft
        return u, f
