"""repro — reproduction of "Multiobjective Hyperparameter Optimization for
Deep Learning Interatomic Potential Training Using NSGA-II"
(Coletti et al., PDADS @ ICPP 2023).

The package provides every layer of the paper's system, implemented from
scratch on top of NumPy:

``repro.autodiff``
    Tape-based reverse-mode automatic differentiation with support for
    double-backward (gradients of gradients), standing in for TensorFlow.
``repro.nn``
    Neural-network building blocks: the five activation functions the
    paper searches over, dense layers, Adam, and the exponential
    learning-rate decay with per-worker scaling.
``repro.md``
    Classical molecular-dynamics data generator standing in for the
    CP2K first-principles trajectories of molten AlCl3–KCl.
``repro.deepmd``
    A DeePMD-kit-style trainer: DeepPot-SE smooth descriptor,
    embedding + fitting networks, energy/force loss with learning-rate
    coupled prefactors, ``input.json`` templating, and ``lcurve.out``.
``repro.evo``
    LEAP-style evolutionary-algorithm toolkit with pipeline operators
    and both classic and rank-ordinal NSGA-II non-dominated sorting.
``repro.mo``
    Multiobjective utilities: dominance, Pareto fronts, quality
    indicators, and the ZDT validation suite.
``repro.engine``
    The evaluation engine and its execution backends: in-process, a
    worker-process pool that respawns dead workers and re-runs their
    tasks, and that pool's fleet policy (autoscale, speculation, an
    in-process last resort).
``repro.hpc``
    Discrete-event model of a Summit-like cluster (nodes, batch jobs,
    walltime, faults) and a training-runtime model.
``repro.hpo``
    The paper's contribution: the seven-gene representation, the
    evaluation workflow, the customized NSGA-II driver with mutation
    annealing, the multi-run campaign, baselines, and the calibrated
    surrogate landscape used for full-scale campaign benchmarks.
``repro.analysis``
    Regeneration of every table and figure in the paper's evaluation.
``repro.obs``
    Zero-dependency tracing (spans, events, JSONL trace files) and
    metrics (counters, gauges, histograms, Prometheus export) wired
    through the engine, process pool, trainer, EA loop, and campaign.
"""

from repro._version import __version__

__all__ = ["__version__"]
