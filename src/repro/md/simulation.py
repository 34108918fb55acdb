"""High-level MD simulation driver.

Wraps system construction, equilibration, production, and frame
sampling behind a single object, mirroring how the paper's in-house
scripts drove CP2K and post-processed the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.dataset import Frame, Trajectory
from repro.md.integrator import (
    LangevinIntegrator,
    instantaneous_temperature,
    maxwell_boltzmann_velocities,
)
from repro.md.potentials import PairPotential
from repro.md.system import AtomicSystem
from repro.rng import RngLike, ensure_rng


@dataclass
class MDObservables:
    """Per-step scalar observables collected during a run."""

    potential_energy: list[float] = field(default_factory=list)
    temperature: list[float] = field(default_factory=list)

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {
            "potential_energy": np.asarray(self.potential_energy),
            "temperature": np.asarray(self.temperature),
        }


class MDSimulation:
    """Thermostatted MD with trajectory sampling.

    Parameters
    ----------
    system, potential:
        The configuration and reference force field.
    temperature:
        Target temperature in K (paper: 498 K).
    dt:
        Timestep in fs.
    friction:
        Langevin friction in fs^-1.
    """

    def __init__(
        self,
        system: AtomicSystem,
        potential: PairPotential,
        temperature: float = 498.0,
        dt: float = 2.0,
        friction: float = 0.01,
        rng: RngLike = None,
    ) -> None:
        self.system = system
        self.potential = potential
        self.temperature = float(temperature)
        self.rng = ensure_rng(rng)
        self.integrator = LangevinIntegrator(
            potential,
            temperature=temperature,
            friction=friction,
            dt=dt,
            rng=self.rng,
        )
        self.velocities = maxwell_boltzmann_velocities(
            system.masses, temperature, rng=self.rng
        )
        self.observables = MDObservables()

    def equilibrate(self, n_steps: int) -> None:
        """Run without sampling to relax the initial configuration."""
        _, self.velocities = self.integrator.run(
            self.system, self.velocities, n_steps
        )

    def sample_trajectory(
        self, n_frames: int, sample_interval: int = 10
    ) -> Trajectory:
        """Run production MD, recording a frame every ``sample_interval``
        steps along with scalar observables."""
        traj = Trajectory()
        system = self.system

        def cb(step, pos, vel, energy, forces):
            self.observables.potential_energy.append(energy)
            self.observables.temperature.append(
                instantaneous_temperature(system.masses, vel)
            )
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

        _, self.velocities = self.integrator.run(
            system, self.velocities, n_frames * sample_interval, callback=cb
        )
        return traj
