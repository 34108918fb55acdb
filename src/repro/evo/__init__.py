"""LEAP-style evolutionary-computation toolkit.

Reimplements, from scratch, the slice of the Library for Evolutionary
Algorithms in Python (LEAP) that the paper builds on (§2.1.4, §2.2.3):

* individuals carrying real-valued genomes, UUIDs, and array fitnesses,
  including the paper's robust subclass that converts evaluation
  exceptions into ``MAXINT`` fitnesses instead of LEAP's NaN default
  (NaNs make non-dominated sorting undefined — §2.2.4);
* decoders, including the floor-modulus categorical decoder (§2.2.2);
* generator-based pipeline operators composed with :func:`pipe`
  (Listing 1): ``random_selection``, ``clone``, ``mutate_gaussian``
  with per-gene standard deviations and hard bounds, ``pool`` to collect
  a batch of offspring, and ``truncation_selection``;
* NSGA-II support: the classic fast non-dominated sort (Deb 2002) and
  the faster rank-ordinal sort (Burlacu 2022) the paper adopted, plus
  crowding-distance calculation, as both plain functions and pipeline
  operators;
* mutation annealing (×0.85 per generation) and the optional
  1/5-success rule the paper mentions but disables;
* the one way to run an optimizer: build its ask/tell :class:`Driver`
  (:class:`NSGA2Driver` for Listing 1, :class:`SteadyStateDriver` for
  the barrier-free variant) and hand it to :func:`run_driver`, whose
  loop (:class:`~repro.evo.algorithm.DriverLoop`, which steps) owns
  evaluation, journaling, resume and early stopping.
"""

from repro.evo.individual import Individual, RobustIndividual, MAXINT
from repro.evo.decoder import (
    Decoder,
    FloorModDecoder,
    IdentityDecoder,
    MixedVectorDecoder,
)
from repro.evo.problem import (
    ConstantProblem,
    FunctionProblem,
    Problem,
)
from repro.evo.ops import (
    clone,
    evaluate,
    mutate_gaussian,
    pipe,
    pool,
    random_selection,
    tournament_selection,
    truncation_selection,
)
from repro.evo.nsga2 import (
    crowding_distance,
    crowding_distance_calc,
    fast_nondominated_sort,
    rank_ordinal_sort,
    rank_ordinal_sort_op,
    nsga2_select,
)
from repro.evo.annealing import AnnealingSchedule, OneFifthSuccessRule
from repro.evo.algorithm import (
    Driver,
    GenerationRecord,
    NSGA2Driver,
    run_driver,
)
from repro.evo.asynchronous import SteadyStateDriver
from repro.evo.crossover import (
    blend_crossover,
    sbx_crossover,
    uniform_crossover,
)

__all__ = [
    "Individual",
    "RobustIndividual",
    "MAXINT",
    "Decoder",
    "IdentityDecoder",
    "FloorModDecoder",
    "MixedVectorDecoder",
    "Problem",
    "FunctionProblem",
    "ConstantProblem",
    "pipe",
    "random_selection",
    "clone",
    "mutate_gaussian",
    "evaluate",
    "pool",
    "tournament_selection",
    "truncation_selection",
    "fast_nondominated_sort",
    "rank_ordinal_sort",
    "rank_ordinal_sort_op",
    "crowding_distance",
    "crowding_distance_calc",
    "nsga2_select",
    "AnnealingSchedule",
    "OneFifthSuccessRule",
    "GenerationRecord",
    "Driver",
    "NSGA2Driver",
    "run_driver",
    "SteadyStateDriver",
    "uniform_crossover",
    "blend_crossover",
    "sbx_crossover",
]
