"""Neural-architecture-search extension (the paper's future work).

§4: "model fidelity may also be further improved by incorporating
neural architecture searching on the two DeePMD neural networks".
This module extends the seven-gene representation with four
architecture genes — depth and width of the embedding and fitting
networks (the paper fixed them at {25, 50, 100} and {240, 240, 240}) —
and provides both a real evaluator (architecture genes reshape the
trained model) and a surrogate extension (capacity helps with
diminishing returns while inflating runtime).

Integer-valued architecture genes use the same trick as the
categorical genes: real-valued genome entries, decoded by flooring
into a discrete set, so Gaussian mutation applies uniformly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Optional

import numpy as np

from repro.evo.decoder import Decoder, floor_mod_choice
from repro.exceptions import DecodeError
from repro.hpo.landscape import (
    LandscapeCalibration,
    SurrogateDeepMDProblem,
)
from repro.hpo.representation import (
    _CATEGORICAL_CHOICES,
    _INIT_RANGES,
    _MUTATION_STD,
    GENE_NAMES,
)

_ARCH_GENES = (
    "embedding_depth",
    "embedding_width",
    "fitting_depth",
    "fitting_width",
)

#: The four architecture genes appended to the seven training genes.
NAS_GENE_NAMES: tuple[str, ...] = GENE_NAMES + _ARCH_GENES

_NAS_INIT_RANGES: dict[str, tuple[float, float]] = {
    **_INIT_RANGES,
    "embedding_depth": (1.0, 4.0),  # floors to 1..3 layers
    "embedding_width": (4.0, 33.0),  # floors to 4..32 units
    "fitting_depth": (1.0, 4.0),
    "fitting_width": (8.0, 65.0),
}

_NAS_MUTATION_STD: dict[str, float] = {
    **_MUTATION_STD,
    "embedding_depth": 0.25,
    "embedding_width": 2.0,
    "fitting_depth": 0.25,
    "fitting_width": 4.0,
}


class NASDecoder(Decoder):
    """Decode the 11-gene genome into a phenome dict.

    Training genes decode exactly as in the base representation;
    architecture genes floor to integers and are clipped into their
    valid sets so mutation at the boundary stays decodable.
    """

    def decode(self, genome: np.ndarray) -> dict[str, Any]:
        if len(genome) != len(NAS_GENE_NAMES):
            raise DecodeError(
                f"genome length {len(genome)} != "
                f"{len(NAS_GENE_NAMES)} NAS genes"
            )
        phenome: dict[str, Any] = {}
        for value, name in zip(genome, NAS_GENE_NAMES):
            choices = _CATEGORICAL_CHOICES.get(name)
            if choices is not None:
                phenome[name] = floor_mod_choice(float(value), choices)
            elif name in _ARCH_GENES:
                lo, hi = _NAS_INIT_RANGES[name]
                v = int(math.floor(float(value)))
                phenome[name] = int(np.clip(v, int(lo), int(hi) - 1))
            else:
                phenome[name] = float(value)
        return phenome


class NASRepresentation:
    """Bounds/deviations/decoder for the 11-gene NAS genome."""

    gene_names = NAS_GENE_NAMES

    init_ranges: np.ndarray = np.array(
        [_NAS_INIT_RANGES[name] for name in NAS_GENE_NAMES]
    )
    bounds: np.ndarray = np.array(
        [_NAS_INIT_RANGES[name] for name in NAS_GENE_NAMES]
    )
    mutation_std: np.ndarray = np.array(
        [_NAS_MUTATION_STD[name] for name in NAS_GENE_NAMES]
    )

    @classmethod
    def decoder(cls) -> NASDecoder:
        return NASDecoder()

    @classmethod
    def architecture_of(cls, phenome: dict[str, Any]) -> dict[str, Any]:
        """The concrete network shapes a phenome describes.

        The embedding net doubles its width per layer from the base
        width (mirroring DeePMD's {25, 50, 100} progression); the
        fitting net repeats a constant width (like {240, 240, 240}).
        """
        emb = tuple(
            phenome["embedding_width"] * (2**i)
            for i in range(phenome["embedding_depth"])
        )
        fit = tuple(
            phenome["fitting_width"]
            for _ in range(phenome["fitting_depth"])
        )
        return {"embedding_widths": emb, "fitting_widths": fit}


@dataclass(frozen=True)
class NASCalibration:
    """Capacity terms added to the base landscape.

    Accuracy improves with log-capacity up to a plateau (diminishing
    returns), tiny networks underfit badly, and runtime grows with
    parameter count — so NAS exposes a genuine accuracy/runtime
    trade-off instead of "bigger is always better".
    """

    reference_params: float = 3000.0
    underfit_force_gain: float = 0.03
    underfit_energy_gain: float = 0.003
    overfit_force_gain: float = 0.0008
    runtime_per_kparam_minutes: float = 1.2


class NASSurrogateProblem(SurrogateDeepMDProblem):
    """Surrogate landscape over the 11-gene phenome: the base surface
    plus :meth:`capacity_terms`, through the sweep's capacity hook."""

    _GENES = SurrogateDeepMDProblem._GENES + _ARCH_GENES

    def __init__(
        self,
        calibration: Optional[LandscapeCalibration] = None,
        nas_calibration: Optional[NASCalibration] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(calibration=calibration, **kwargs)
        self.nas = nas_calibration or NASCalibration()

    def cache_fingerprint(self) -> dict[str, Any]:
        """The base identity under its own problem name, plus the
        capacity constants."""
        return {
            **super().cache_fingerprint(),
            "problem": "nas-surrogate",
            "nas": asdict(self.nas),
        }

    @staticmethod
    def _parameter_count(phenome: dict[str, Any]) -> float:
        arch = NASRepresentation.architecture_of(phenome)
        emb = arch["embedding_widths"]
        fit = arch["fitting_widths"]
        n = 0
        prev = 4  # descriptor input channels (s + species one-hot)
        for w in emb:
            n += prev * w + w
            prev = w
        m1 = emb[-1]
        prev = m1 * 4  # flattened D features (m2 = 4 nominal)
        for w in fit:
            n += prev * w + w
            prev = w
        n += prev + 1
        return float(n)

    def capacity_terms(
        self, phenome: dict[str, Any]
    ) -> tuple[float, float, float]:
        """(force penalty, energy penalty, runtime minutes added)."""
        nas = self.nas
        params = self._parameter_count(phenome)
        ratio = params / nas.reference_params
        log_ratio = math.log(max(ratio, 1e-9))
        if ratio < 1.0:
            # underfitting: penalty grows as capacity shrinks
            force_pen = nas.underfit_force_gain * log_ratio**2
            energy_pen = nas.underfit_energy_gain * log_ratio**2
        else:
            # mild overfitting/optimization drag for very large nets
            force_pen = nas.overfit_force_gain * log_ratio**2
            energy_pen = 0.0
        runtime_extra = nas.runtime_per_kparam_minutes * params / 1000.0
        return force_pen, energy_pen, runtime_extra

    def _capacity(
        self, cols: dict[str, list[Any]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`capacity_terms` of every slot, as three rows."""
        terms = [
            self.capacity_terms(dict(zip(_ARCH_GENES, arch)))
            for arch in zip(*(cols[name] for name in _ARCH_GENES))
        ]
        return tuple(np.array(terms).T)


def run_nas_nsga2(
    problem: Optional[NASSurrogateProblem] = None,
    pop_size: int = 60,
    generations: int = 6,
    rng=None,
    client: Any = None,
):
    """NSGA-II over the extended representation, one candidate per
    backend task."""
    from repro.evo.algorithm import NSGA2Driver, run_driver
    from repro.evo.individual import RobustIndividual

    rep = NASRepresentation
    driver = NSGA2Driver(
        problem=problem or NASSurrogateProblem(seed=0),
        init_ranges=rep.init_ranges,
        pop_size=pop_size,
        hard_bounds=rep.bounds,
        decoder=rep.decoder(),
        individual_cls=RobustIndividual,
        rng=rng,
        initial_std=rep.mutation_std,
    )
    return run_driver(driver, generations, client=client, chunk_size=1)
