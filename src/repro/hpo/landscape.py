"""Calibrated surrogate response surface for campaign-scale benchmarks.

One paper-scale campaign is 5 runs × 7 generations × 100 individuals =
3500 DeePMD trainings of 2 GPU-hours each — unavailable here.  The
figures and tables of §3, however, depend only on the *shape* of the
hyperparameter → (energy RMSE, force RMSE, runtime, failure) mapping.
This module provides that mapping as an analytic response surface whose
structure is mechanistic (each term mirrors how the hyperparameter acts
in real training) and whose constants are calibrated to the paper's
reported findings:

* **Effective learning rate.**  The worker-scaling gene multiplies
  ``start_lr`` by {6, √6, 1} for {linear, sqrt, none} (6 GPUs per
  node); accuracy follows a log-quadratic basin around an effective
  start rate of ≈4e-3.  This mechanistically yields the paper's
  finding that "none"/"sqrt" produce more chemically accurate
  solutions: linear scaling pushes otherwise-good start rates out of
  the basin.
* **Radial cutoff.**  Larger ``rcut`` captures longer-ranged
  interactions in the charged melt; error decays exponentially with
  ``rcut`` such that chemical force accuracy (≤0.04 eV/Å) requires
  ``rcut ≳ 8.5 Å`` (§3.2) — while runtime grows as ``rcut³``.
* **Smoothing radius.**  A mild, force-sided penalty grows with
  ``rcut_smth`` (the paper sees accurate solutions densest below
  4.5 Å but spread across the range).
* **Activations.**  Fitting-net relu/relu6 carry penalties large
  enough that they drop off the frontier entirely; descriptor sigmoid
  carries a force penalty that excludes it from the chemically
  accurate set; tanh/softplus are neutral (§3.2).
* **Energy/force trade-off.**  The loss prefactors interpolate with
  ``f_end = stop_lr / eff_start_lr``: a larger final ratio keeps the
  force term dominant to the end (better force, worse energy) and
  vice versa — the mechanism that produces a genuine Pareto frontier
  rather than a single optimum.
* **Failures.**  Configurations with ``rcut_smth ≥ rcut`` are
  undefined; effective start rates ≳0.03 diverge; plus a small
  background failure rate.  Failed trainings return ``MAXINT`` fitness
  upstream and a short runtime (§3.2 observed 25 early-generation
  failures in 3500 trainings and none in the final generations).
* **Noise.**  Multiplicative log-normal training stochasticity, seeded
  per evaluation.  Draws come from a counter-based generator (splitmix64
  over a per-phenome hash with one fixed counter slot per draw), so the
  value at a phenome never depends on batch composition or evaluation
  order — batch, scalar, and streamed paths are bit-identical by
  construction.  It is the only noise stream: a subclass (the NAS
  surrogate) adds capacity terms to the noise-free means through one
  hook and is drawn from the same hash, over all of its genes.

A batch is one sweep per key set, and a sweep is ~106 NumPy ufunc
passes whatever the number of phenomes, genes or counter slots:

* 9 passes mix every gene's word at once; the fold of those words over
  the genes is exact integer arithmetic on all phenomes at once, with
  no NumPy call per gene;
* 11 passes draw all eleven counter slots as one ``(11, m)`` array;
* 7 passes turn its four Box–Muller pairs into normals as one
  contiguous ``(4, m)`` block;
* 79 passes are the failure checks and the response surface.

One pass per slot and two per gene made ~370, 25 of them splitmix
passes.

The surface is cross-checked against real scaled-down trainings by
``benchmarks/bench_real_training.py`` where the scaled-down system can
express the effect: training reduces force error, extreme learning
rates diverge, invalid radii fail, worker scaling multiplies the
schedule, and runtime grows with ``rcut``.  One term is *not*
verifiable at toy scale and is encoded from the paper's physics
instead: the accuracy gain of large ``rcut`` exists because the real
160-atom DFT melt has charged interactions beyond 8 Å, whereas the
scaled-down reference force field is truncated near 4.4 Å (half the
small box), so its training data contains no long-range signal for a
bigger descriptor cutoff to capture.
"""

from __future__ import annotations

import math
import struct
import threading
import zlib
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Any, Optional, Sequence

import numpy as np

from repro.evo.problem import WithMetadataProblem
from repro.exceptions import TrainingDivergedError
from repro.hpc.runtime_model import TrainingRuntimeModel
from repro.nn.lr_schedule import scale_lr_by_workers

# ----------------------------------------------------------------------
# counter-based noise: splitmix64 over a per-phenome hash
# ----------------------------------------------------------------------
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX_MUL1, _MIX_MUL2 = np.uint64(_MUL1), np.uint64(_MUL2)

#: fixed counter slots — every draw a phenome's evaluation can consume
#: has its own slot, so no draw's value depends on which branches ran
_SLOT_BACKGROUND = 0
_SLOT_RISKY = 1
_SLOT_BALANCE_A, _SLOT_BALANCE_B = 2, 3
_SLOT_ENERGY_A, _SLOT_ENERGY_B = 4, 5
_SLOT_FORCE_A, _SLOT_FORCE_B = 6, 7
_SLOT_FAIL_RUNTIME = 8
_SLOT_RUNTIME_A, _SLOT_RUNTIME_B = 9, 10

#: every slot's counter increment, in the row order of the one draw:
#: the three plain uniforms, then the first and the second halves of
#: the Box–Muller pairs (balance, energy, force, runtime) as two
#: contiguous blocks
_DRAW_INCREMENTS = np.array(
    [
        [(_GOLDEN * (slot + 1)) & _MASK64]
        for slot in (
            _SLOT_BACKGROUND,
            _SLOT_RISKY,
            _SLOT_FAIL_RUNTIME,
            _SLOT_BALANCE_A,
            _SLOT_ENERGY_A,
            _SLOT_FORCE_A,
            _SLOT_RUNTIME_A,
            _SLOT_BALANCE_B,
            _SLOT_ENERGY_B,
            _SLOT_FORCE_B,
            _SLOT_RUNTIME_B,
        )
    ],
    dtype=np.uint64,
)

#: the genes the surface reads as floats
_FLOATS = ("rcut", "rcut_smth", "start_lr", "stop_lr")

_CRC_CACHE: dict[str, int] = {}
_DOUBLE, _UINT64 = struct.Struct("<d"), struct.Struct("<Q")


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_MUL1
    z = (z ^ (z >> np.uint64(27))) * _MIX_MUL2
    return z ^ (z >> np.uint64(31))


def _draws(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every counter slot at each hash in one ``(11, m)`` pass.

    Returns the ``(3, m)`` uniforms [0, 1) (background, risky, failed
    runtime) and the ``(4, m)`` standard normals (balance, energy,
    force, runtime), each normal a Box–Muller transform of its two
    slots.  Both halves of the pairs are contiguous blocks, so the
    transcendentals run over contiguous memory, as they did when each
    slot was drawn as its own array.
    """
    u = (_mix64(_DRAW_INCREMENTS + h) >> np.uint64(11)) * np.float64(
        2.0**-53
    )
    normals = np.sqrt(-2.0 * np.log1p(-u[3:7])) * np.cos(
        (2.0 * math.pi) * u[7:]
    )
    return u[:3], normals


def _crc_word(value: Any) -> int:
    """Process-stable hash word for a non-float gene value."""
    s = value if isinstance(value, str) else str(value)
    word = _CRC_CACHE.get(s)
    if word is None:
        word = _CRC_CACHE[s] = zlib.crc32(s.encode("utf-8"))
    return word


def _gene_words(columns: dict[str, list[Any]]) -> np.ndarray:
    """``mix64(word ^ crc32(name))`` for every gene of a group, ``(g, m)``.

    ``columns`` maps each gene name to its values down the group.  A
    value's word is its float bits, or the crc32 of any other value;
    every all-float column converts in one call, and any other column
    value by value (crc32 words, or float bits where the two mix).
    """
    cols = list(columns.values())
    floats = [all(map(isinstance, col, repeat(float))) for col in cols]
    float_bits = iter(
        np.array([c for c, f in zip(cols, floats) if f], dtype=np.float64)
        .view(np.uint64)
        .tolist()
    )
    words = np.array(
        [
            next(float_bits)
            if f
            else [
                _UINT64.unpack(_DOUBLE.pack(v))[0]
                if isinstance(v, float)
                else _crc_word(v)
                for v in c
            ]
            for c, f in zip(cols, floats)
        ],
        dtype=np.uint64,
    )
    names = np.array([_crc_word(name) for name in columns], np.uint64)
    return _mix64(words ^ names[:, None])


def _fold_lanes(seed: int, words: np.ndarray) -> np.ndarray:
    """``h = mix64(h ^ w)`` from ``h = seed`` over the rows of ``words``.

    The fold is sequential down the ``(g, m)`` words, so it runs on all
    ``m`` columns at once in exact Python-integer arithmetic: column
    ``j`` is the 128-bit lane ``j`` of one integer, its value in the low
    64 bits and zeros above.  A shift masked to the low halves, an XOR,
    and a product with a 64-bit constant (< 2**128, so it never reaches
    the next lane) then act lane by lane as uint64 operations do.  No
    NumPy call per gene, and no Python operation per phenome.
    """
    m = words.shape[1]
    lanes = np.zeros((len(words), m, 2), dtype="<u8")
    lanes[:, :, 0] = words
    data = lanes.tobytes()
    width = 16 * m
    ones = int.from_bytes((b"\x01" + b"\x00" * 15) * m, "little")
    low = _MASK64 * ones
    z = (seed & _MASK64) * ones
    for k in range(0, len(data), width):
        z ^= int.from_bytes(data[k : k + width], "little")
        z = ((z ^ ((z >> 30) & low)) * _MUL1) & low
        z = ((z ^ ((z >> 27) & low)) * _MUL2) & low
        z ^= (z >> 31) & low
    return np.frombuffer(z.to_bytes(width, "little"), dtype="<u8")[::2]


@dataclass(frozen=True)
class LandscapeCalibration:
    """Constants of the response surface (defaults fit §3's numbers)."""

    # best achievable errors (frontier anchors, Table 2)
    force_floor: float = 0.0345
    energy_floor: float = 0.00025
    # learning-rate basin (log10 of effective start rate); asymmetric:
    # an effectively untrained model (tiny LR) degrades to data-RMS
    # force errors fast, while slightly-too-large rates degrade gently
    lr_optimum_log10: float = -2.4  # ≈ 4e-3
    lr_width_log10: float = 1.3  # above the optimum
    lr_width_low_log10: float = 0.8  # below the optimum (undertraining)
    lr_force_gain: float = 0.09
    lr_energy_gain: float = 0.012
    # stop-lr basin (log10), optimum at the top of the searched range
    stop_lr_optimum_log10: float = -4.0
    stop_lr_width_log10: float = 2.0
    stop_lr_force_gain: float = 0.004
    stop_lr_energy_gain: float = 0.0008
    # radial cutoff: error decays with rcut, length scale in Å
    rcut_force_gain: float = 0.06
    rcut_energy_gain: float = 0.004
    rcut_length: float = 0.85
    rcut_ref: float = 6.0
    # smoothing radius: linear force-sided penalty above 2 Å
    smth_force_gain: float = 0.0012
    smth_energy_gain: float = 0.0001
    # activation penalties (force, energy)
    fitting_relu_penalty: tuple[float, float] = (0.035, 0.004)
    fitting_relu6_penalty: tuple[float, float] = (0.025, 0.003)
    desc_sigmoid_penalty: tuple[float, float] = (0.012, 0.0008)
    desc_relu_penalty: tuple[float, float] = (0.006, 0.0004)
    desc_relu6_penalty: tuple[float, float] = (0.004, 0.0003)
    # energy/force trade-off driven by the final prefactor fraction
    tradeoff_force_span: float = 0.0045
    tradeoff_energy_span: float = 0.0018
    # training stochasticity (log-normal sigmas): independent jitter per
    # objective plus a shared anti-correlated component modelling where
    # along the energy/force balance an individual run happens to land
    force_noise: float = 0.015
    energy_noise: float = 0.10
    balance_noise_energy: float = 0.15
    balance_noise_force: float = 0.02
    # failure model: hard divergence above the threshold, a risky band
    # below it where divergence is stochastic, plus a small background
    lr_divergence_threshold: float = 0.08
    lr_risky_threshold: float = 0.03
    lr_risky_failure_rate: float = 0.15
    background_failure_rate: float = 0.002


class SurrogateDeepMDProblem(WithMetadataProblem):
    """Drop-in replacement for :class:`repro.hpo.evaluator.DeepMDProblem`.

    Evaluations are deterministic given the problem seed and the
    phenome (noise is drawn from a counter-based stream derived from
    both), so campaign results are exactly reproducible regardless of
    evaluation order, batch composition, or parallelism.  There is one
    surface: a whole population evaluates in one NumPy sweep via
    :meth:`evaluate_batch_with_metadata`, the scalar method is a batch
    of one, and :meth:`mean_objectives` is the sweep's noise-free part.
    A subclass changes the surface through one hook, :meth:`_capacity`.
    """

    n_objectives = 2

    def __init__(
        self,
        calibration: Optional[LandscapeCalibration] = None,
        n_workers: int = 6,
        seed: int = 0,
        simulate_runtime: bool = True,
    ) -> None:
        self.calibration = calibration or LandscapeCalibration()
        self.n_workers = int(n_workers)
        self.seed = int(seed)
        self.simulate_runtime = simulate_runtime
        # the sweep reads only the model's constants
        self._runtime_model = TrainingRuntimeModel()
        self._lock = threading.Lock()
        self.evaluations = 0
        self.failures = 0

    def __getstate__(self) -> dict[str, Any]:
        """Spawn-safe pickling for the process-pool backend: the lock
        stays behind (each process gets its own)."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def cache_fingerprint(self) -> dict[str, Any]:
        """Identity for the evaluation cache: the surface is fully
        determined by the calibration constants, the worker count, and
        the problem seed (which seeds the per-phenome noise)."""
        return {
            "problem": "surrogate",
            "seed": self.seed,
            "n_workers": self.n_workers,
            "simulate_runtime": self.simulate_runtime,
            "calibration": asdict(self.calibration),
        }

    def mean_objectives(
        self, phenome: dict[str, Any]
    ) -> tuple[float, float]:
        """Noise-free (energy RMSE, force RMSE) at a phenome: the
        sweep's surface on a batch of one, without its noise and its
        two random failure checks (background, risky band).

        Raises :class:`TrainingDivergedError` for configurations in
        the deterministic failure region, and :class:`ValueError` for
        an unknown worker scaling.
        """
        cols = {name: [phenome[name]] for name in self._GENES}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            eff, checks, energy, force, _ = self._surface(
                cols, *(np.asarray(cols[name], np.float64) for name in _FLOATS)
            )
        failed = [bool(check[0]) for check in checks]
        if any(failed):
            raise self._failure(
                # the sweep's codes of its deterministic checks
                (2, 4, 5, 6, 7)[failed.index(True)],
                float(eff[0]),
                phenome["start_lr"],
                phenome["scale_by_worker"],
            )
        return float(energy[0]), float(force[0])

    # ------------------------------------------------------------------
    def evaluate_with_metadata(
        self, phenome: dict[str, Any], uuid: Optional[str] = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        """Scalar view: a batch of one through the sweep, so scalar and
        batch evaluation are bit-identical by construction."""
        outcome = self._evaluate_batch_vectorized([phenome])[0]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def evaluate_batch_with_metadata(
        self,
        phenomes: Sequence[dict[str, Any]],
        uuids: Optional[Sequence[Optional[str]]] = None,
    ) -> list[Any]:
        """One outcome slot per phenome: ``(fitness, metadata)`` or the
        exception that phenome raises, whole batch in one NumPy sweep."""
        return self._evaluate_batch_vectorized(list(phenomes))

    # ------------------------------------------------------------------
    # vectorized sweep
    # ------------------------------------------------------------------
    #: the genes the response surface reads
    _GENES: tuple[str, ...] = (
        "rcut",
        "rcut_smth",
        "start_lr",
        "stop_lr",
        "fitting_activ_func",
        "desc_activ_func",
        "scale_by_worker",
    )

    def _capacity(
        self, cols: dict[str, list[Any]]
    ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-slot ``(force penalty, energy penalty, runtime minutes
        added)`` over a group's gene columns, or ``None``.

        The penalties are added to the noise-free means, before the
        noise; the runtime goes to successful trainings only.  The base
        surface adds nothing.
        """
        return None

    def _evaluate_batch_vectorized(
        self, phenomes: list[dict[str, Any]]
    ) -> list[Any]:
        """One NumPy sweep per homogeneous phenome group.

        Phenomes are grouped by key set (the per-phenome hash folds
        over *all* keys, so grouping keeps the value at a phenome
        independent of batch composition); in practice a population is
        one group and the whole batch is a single sweep.
        """
        outcomes: list[Any] = [None] * len(phenomes)
        groups: dict[tuple[str, ...], list[int]] = {}
        for i, phenome in enumerate(phenomes):
            try:
                key = tuple(sorted(phenome))
            except Exception as exc:  # noqa: BLE001 - not a mapping
                outcomes[i] = exc
                continue
            groups.setdefault(key, []).append(i)
        for key, idx in groups.items():
            missing = next(
                (name for name in self._GENES if name not in key), None
            )
            if missing is not None:
                with self._lock:
                    self.evaluations += len(idx)
                for i in idx:
                    outcomes[i] = KeyError(missing)
                continue
            self._evaluate_group(phenomes, idx, key, outcomes)
        return outcomes

    def _surface(
        self,
        cols: dict[str, list[Any]],
        rcut: np.ndarray,
        rcut_smth: np.ndarray,
        start_lr: np.ndarray,
        stop_lr: np.ndarray,
    ) -> tuple[
        np.ndarray,
        list[Any],
        np.ndarray,
        np.ndarray,
        Optional[np.ndarray],
    ]:
        """The noise-free response surface over a group's gene columns.

        Returns ``(eff, checks, energy, force, runtime_extra)``: each
        slot's effective start rate (nan for a worker scaling that does
        not resolve); the deterministic failure checks in precedence
        order (the scaling does not resolve, rcut_smth ≥ rcut, a
        non-positive rate, divergence, a non-finite gene); the mean
        energy and force with :meth:`_capacity`'s penalties added; and
        its runtime minutes (``None`` without them).  Nan-safe: failed slots are the
        caller's to mask out.
        """
        c = self.calibration
        workers_ok = self.n_workers >= 1
        factor_map = {
            "linear": float(self.n_workers),
            "sqrt": math.sqrt(self.n_workers) if workers_ok else 0.0,
            "none": 1.0,
        }
        factors = [
            factor_map.get(scheme) if workers_ok else None
            for scheme in cols["scale_by_worker"]
        ]
        eff = start_lr * np.array(
            [math.nan if f is None else f for f in factors]
        )
        checks = [
            [f is None for f in factors],
            rcut_smth >= rcut,
            (eff <= 0.0) | (stop_lr <= 0.0),
            eff > c.lr_divergence_threshold,
            ~np.isfinite([rcut, rcut_smth, start_lr, stop_lr]).all(axis=0),
        ]
        # learning-rate basins (log-quadratic, asymmetric)
        log_eff = np.log10(eff)
        lr_width = np.where(
            log_eff < c.lr_optimum_log10,
            c.lr_width_low_log10,
            c.lr_width_log10,
        )
        lr_term = ((log_eff - c.lr_optimum_log10) / lr_width) ** 2
        stop_term = (
            (np.log10(stop_lr) - c.stop_lr_optimum_log10)
            / c.stop_lr_width_log10
        ) ** 2
        # radial cutoff: exponential decay toward the floor
        rcut_decay = np.exp(-(rcut - c.rcut_ref) / c.rcut_length)
        # smoothing radius: linear growth above 2 Å
        smth_excess = np.maximum(rcut_smth - 2.0, 0.0)
        # activation penalties
        fit_f = {
            "relu": c.fitting_relu_penalty[0],
            "relu6": c.fitting_relu6_penalty[0],
        }
        fit_e = {
            "relu": c.fitting_relu_penalty[1],
            "relu6": c.fitting_relu6_penalty[1],
        }
        desc_f = {
            "sigmoid": c.desc_sigmoid_penalty[0],
            "relu": c.desc_relu_penalty[0],
            "relu6": c.desc_relu6_penalty[0],
        }
        desc_e = {
            "sigmoid": c.desc_sigmoid_penalty[1],
            "relu": c.desc_relu_penalty[1],
            "relu6": c.desc_relu6_penalty[1],
        }
        acts = list(zip(cols["fitting_activ_func"], cols["desc_activ_func"]))
        # (a Python float sum rounds as a float64 array sum does)
        f_pen, e_pen = np.array(
            [
                [fit_f.get(a, 0.0) + desc_f.get(d, 0.0) for a, d in acts],
                [fit_e.get(a, 0.0) + desc_e.get(d, 0.0) for a, d in acts],
            ]
        )
        # energy/force trade-off from the final prefactor fraction:
        # f_end = stop_lr / eff_start_lr in (0, 1]; large -> force-led
        f_end = np.minimum(stop_lr / eff, 1.0)
        theta = np.clip(
            (np.log10(np.maximum(f_end, 1e-8)) + 4.0) / 4.0,
            0.0,
            1.0,
        )
        force = (
            c.force_floor
            + c.lr_force_gain * lr_term
            + c.stop_lr_force_gain * stop_term
            + c.rcut_force_gain * rcut_decay
            + c.smth_force_gain * smth_excess
            + f_pen
            + c.tradeoff_force_span * (1.0 - theta)
        )
        energy = (
            c.energy_floor
            + c.lr_energy_gain * lr_term
            + c.stop_lr_energy_gain * stop_term
            + c.rcut_energy_gain * rcut_decay
            + c.smth_energy_gain * smth_excess
            + e_pen
            + c.tradeoff_energy_span * theta
        )
        runtime_extra = None
        capacity = self._capacity(cols)
        if capacity is not None:
            force_pen, energy_pen, runtime_extra = capacity
            force = force + force_pen
            energy = energy + energy_pen
        return eff, checks, energy, force, runtime_extra

    def _failure(
        self, code: int, eff: float, start_lr: Any, scheme: Any
    ) -> Exception:
        """The exception of a slot that fails check ``code`` (see the
        failure partition in :meth:`_evaluate_group`)."""
        if code == 2:
            try:
                scale_lr_by_workers(start_lr, self.n_workers, scheme)
            except ValueError as exc:
                return exc
            return ValueError(
                f"unknown worker scaling {scheme!r}"
            )  # pragma: no cover - scale_lr always raises here
        if code == 1:
            message = "spurious configuration/system failure"
        elif code == 3:
            message = f"effective start_lr {eff:.3g} in the unstable band"
        elif code == 4:
            message = "rcut_smth >= rcut: descriptor undefined"
        elif code == 5:
            message = "non-positive learning rate"
        elif code == 6:
            message = f"effective start_lr {eff:.3g} diverges"
        else:
            message = "non-finite gene"
        return TrainingDivergedError(message)

    def _evaluate_group(
        self,
        phenomes: list[dict[str, Any]],
        idx: list[int],
        key_names: tuple[str, ...],
        outcomes: list[Any],
    ) -> None:
        """Fill the outcome slots of ``phenomes[idx]``, one key set.

        A fixed number of NumPy passes whatever the group's size, gene
        count or slot count (see the module docstring, *Noise*).
        """
        c = self.calibration
        m = len(idx)
        cols = {
            name: [phenomes[i][name] for i in idx] for name in key_names
        }
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # per-phenome hash: the problem seed folded with every
            # gene's (name, value), then every counter slot of every
            # phenome in one draw
            (u_background, u_risky, u_fail_runtime), (
                z_balance,
                z_energy,
                z_force,
                z_runtime,
            ) = _draws(_fold_lanes(self.seed, _gene_words(cols)))
            try:
                rcut, rcut_smth, start_lr, stop_lr = (
                    np.asarray(cols[name], dtype=np.float64)
                    for name in _FLOATS
                )
                eff, checks, energy, force, runtime_extra = (
                    self._surface(cols, rcut, rcut_smth, start_lr, stop_lr)
                )
            except (TypeError, ValueError) as exc:
                if m > 1:
                    # a gene that does not convert (or hash) fails its
                    # own slot, not the group's: each slot alone
                    for i in idx:
                        self._evaluate_group(phenomes, [i], key_names, outcomes)
                    return
                with self._lock:
                    self.evaluations += 1
                outcomes[idx[0]] = TypeError(str(exc))
                return
            # failure partition: code k fails the k-th check, the first
            # to fail in precedence order (0: trained)
            checks = np.array(
                [
                    u_background < c.background_failure_rate,
                    checks[0],
                    (eff > c.lr_risky_threshold)
                    & (u_risky < c.lr_risky_failure_rate),
                    *checks[1:],
                ]
            )
            code = np.where(checks.any(axis=0), checks.argmax(axis=0) + 1, 0)
            energy = energy * np.exp(
                c.energy_noise * z_energy + c.balance_noise_energy * z_balance
            )
            force = force * np.exp(
                c.force_noise * z_force - c.balance_noise_force * z_balance
            )
            if self.simulate_runtime:
                rt = self._runtime_model
                lo, hi = rt.fail_minutes
                fail_runtime = (lo + u_fail_runtime * (hi - lo)).tolist()
                base = rt.fixed_minutes + rt.env_minutes * (
                    rcut / rt.rcut_ref
                ) ** 3
                ok_runtime = base * np.exp(rt.jitter_sigma * z_runtime)
                if runtime_extra is not None:
                    ok_runtime = ok_runtime + runtime_extra
                ok_runtime = ok_runtime.tolist()
            else:
                fail_runtime = ok_runtime = [0.0] * m
        codes = code.tolist()
        with self._lock:
            self.evaluations += m
            self.failures += sum(
                1 for k in codes if k not in (0, 2)
            )
        effs = eff.tolist()
        energies = energy.tolist()
        forces = force.tolist()
        for j, i in enumerate(idx):
            k = codes[j]
            if k == 0:
                metadata: dict[str, Any] = {
                    "phenome": dict(phenomes[i]),
                    "failed": False,
                }
                if self.simulate_runtime:
                    metadata["runtime_minutes"] = ok_runtime[j]
                outcomes[i] = (
                    np.array([energies[j], forces[j]]),
                    metadata,
                )
                continue
            exc = self._failure(
                k, effs[j], cols["start_lr"][j], cols["scale_by_worker"][j]
            )
            if k != 2:
                exc.metadata = {  # type: ignore[attr-defined]
                    "phenome": dict(phenomes[i]),
                    "failed": True,
                    "failure_cause": f"{type(exc).__name__}: {exc}",
                    "runtime_minutes": (
                        fail_runtime[j] if self.simulate_runtime else 0.0
                    ),
                }
            outcomes[i] = exc
