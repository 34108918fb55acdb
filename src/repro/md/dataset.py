"""Trajectory frames and DeePMD-style datasets.

§2.1.3: the FPMD trajectory "was converted to input data formats
compatible with DeePMD (energy, force, box values in Numpy arrays)
using in-house scripts.  These arrays were split into separate datasets
after shuffling, and a set of 25% of the frames was withheld for use as
the validation set."  :class:`FrameDataset` reproduces that format and
split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.md.cell import PeriodicCell
from repro.rng import RngLike, ensure_rng, split_indices


@dataclass
class Frame:
    """One labelled configuration: coordinates plus reference labels."""

    positions: np.ndarray  # (n_atoms, 3) Å
    species: np.ndarray  # (n_atoms,) species indices
    energy: float  # eV (total potential energy)
    forces: np.ndarray  # (n_atoms, 3) eV/Å
    box: np.ndarray  # (3,) orthorhombic edge lengths

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    @property
    def cell(self) -> PeriodicCell:
        return PeriodicCell(self.box)


@dataclass
class Trajectory:
    """An ordered sequence of frames from one MD run."""

    frames: list[Frame] = field(default_factory=list)

    def append(self, frame: Frame) -> None:
        self.frames.append(frame)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Trajectory(self.frames[idx])
        return self.frames[idx]

    def energies(self) -> np.ndarray:
        return np.array([f.energy for f in self.frames])


class FrameDataset:
    """A shuffled, split dataset of frames in DeePMD array layout.

    Attributes ``train`` and ``validation`` are lists of frames;
    :meth:`arrays` exports the DeePMD-style dict of stacked arrays
    (``coord``, ``energy``, ``force``, ``box``).
    """

    def __init__(
        self,
        frames: Sequence[Frame],
        validation_fraction: float = 0.25,
        rng: RngLike = None,
    ) -> None:
        if not frames:
            raise ValueError("dataset needs at least one frame")
        if not 0.0 <= validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        frames = list(frames)
        n_atoms = frames[0].n_atoms
        for f in frames:
            if f.n_atoms != n_atoms:
                raise ValueError("all frames must have the same atom count")
        self.n_atoms = n_atoms
        val_idx, train_idx = split_indices(
            len(frames), [validation_fraction], rng
        )
        self.train: list[Frame] = [frames[i] for i in train_idx]
        self.validation: list[Frame] = [frames[i] for i in val_idx]
        if not self.train:
            raise ValueError("validation fraction leaves no training frames")

    def __len__(self) -> int:
        return len(self.train) + len(self.validation)

    @staticmethod
    def _stack(frames: Sequence[Frame]) -> dict[str, np.ndarray]:
        return {
            "coord": np.stack([f.positions for f in frames]),
            "energy": np.array([f.energy for f in frames]),
            "force": np.stack([f.forces for f in frames]),
            "box": np.stack([f.box for f in frames]),
            "species": frames[0].species.copy(),
        }

    def arrays(self, split: str = "train") -> dict[str, np.ndarray]:
        """DeePMD-style arrays for ``split`` ('train' or 'validation')."""
        if split == "train":
            return self._stack(self.train)
        if split == "validation":
            if not self.validation:
                raise ValueError("dataset has no validation frames")
            return self._stack(self.validation)
        raise ValueError("split must be 'train' or 'validation'")

    def energy_statistics(self) -> dict[str, float]:
        """Mean/std of training energies — used to normalize the NN target."""
        e = np.array([f.energy for f in self.train])
        return {
            "mean": float(e.mean()),
            "std": float(e.std() if len(e) > 1 else 1.0),
            "per_atom_mean": float(e.mean() / self.n_atoms),
        }

    def save(self, directory: str | Path) -> None:
        """Persist as .npy arrays plus a JSON manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for split in ("train", "validation"):
            frames = self.train if split == "train" else self.validation
            if not frames:
                continue
            arrays = self._stack(frames)
            for key, arr in arrays.items():
                np.save(directory / f"{split}_{key}.npy", arr)
        manifest = {
            "n_atoms": self.n_atoms,
            "n_train": len(self.train),
            "n_validation": len(self.validation),
        }
        (directory / "manifest.json").write_text(json.dumps(manifest))

    @classmethod
    def load(cls, directory: str | Path) -> "FrameDataset":
        """Inverse of :meth:`save`."""
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        ds = cls.__new__(cls)
        ds.n_atoms = manifest["n_atoms"]
        for split, attr in (("train", "train"), ("validation", "validation")):
            frames: list[Frame] = []
            coord_path = directory / f"{split}_coord.npy"
            if coord_path.exists():
                coord = np.load(coord_path)
                energy = np.load(directory / f"{split}_energy.npy")
                force = np.load(directory / f"{split}_force.npy")
                box = np.load(directory / f"{split}_box.npy")
                species = np.load(directory / f"{split}_species.npy")
                for k in range(len(coord)):
                    frames.append(
                        Frame(
                            positions=coord[k],
                            species=species,
                            energy=float(energy[k]),
                            forces=force[k],
                            box=box[k],
                        )
                    )
            setattr(ds, attr, frames)
        return ds


def generate_dataset(
    n_frames: int = 200,
    n_alcl3: int = 4,
    n_kcl: int = 2,
    temperature: float = 498.0,
    sample_interval: int = 10,
    equilibration_steps: int = 200,
    dt: float = 2.0,
    validation_fraction: float = 0.25,
    rng: RngLike = None,
) -> FrameDataset:
    """End-to-end data generation: build, equilibrate, sample, split.

    Defaults produce a 20-atom scaled replica of the paper's system —
    fast enough for unit tests while keeping the 2:1 AlCl3:KCl
    stoichiometry and the paper's number density and temperature.
    """
    from repro.md.integrator import (
        LangevinIntegrator,
        maxwell_boltzmann_velocities,
    )
    from repro.md.system import molten_salt_potential, molten_salt_system

    gen = ensure_rng(rng)
    system = molten_salt_system(n_alcl3=n_alcl3, n_kcl=n_kcl, rng=gen)
    cutoff = min(8.0, 0.99 * system.cell.max_cutoff())
    potential = molten_salt_potential(cutoff=cutoff)
    integrator = LangevinIntegrator(
        potential, temperature=temperature, dt=dt, rng=gen
    )
    velocities = maxwell_boltzmann_velocities(
        system.masses, temperature, rng=gen
    )
    # equilibrate
    _, velocities = integrator.run(system, velocities, equilibration_steps)

    traj = Trajectory()

    def sample(step, pos, vel, energy, forces):
        if (step + 1) % sample_interval == 0:
            traj.append(
                Frame(
                    positions=pos.copy(),
                    species=system.species.copy(),
                    energy=energy,
                    forces=forces.copy(),
                    box=system.cell.lengths.copy(),
                )
            )

    integrator.run(
        system, velocities, n_frames * sample_interval, callback=sample
    )
    return FrameDataset(
        traj.frames[:n_frames],
        validation_fraction=validation_fraction,
        rng=gen,
    )
