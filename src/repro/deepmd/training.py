"""The training loop (the ``dp train`` equivalent).

Implements the training protocol the paper's fitness evaluation drives:
Adam under an exponential learning-rate decay from ``start_lr`` to
``stop_lr`` (scaled by the worker count per the searched scheme), the
energy/force loss with learning-rate-coupled prefactors, periodic
validation producing ``lcurve.out`` rows, a wall-clock timeout
(the paper's two-hour cap per training), and divergence detection
(non-finite losses) — the failure modes that the EA maps to ``MAXINT``
fitness.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.autodiff.tensor import Tensor
from repro.deepmd.data import DescriptorBatch, prepare_batches
from repro.deepmd.lcurve import LCurve
from repro.deepmd.model import DeepPotModel
from repro.exceptions import TrainingDivergedError, TrainingTimeoutError
from repro.md.dataset import FrameDataset
from repro.nn.loss import EnergyForceLoss, PrefactorSchedule
from repro.nn.lr_schedule import ExponentialDecay
from repro.nn.optimizer import Adam
from repro.obs.trace import NullTracer, Tracer, get_tracer
from repro.rng import RngLike, ensure_rng

try:
    import resource
except ImportError:  # Windows has no ``resource``: no fault count
    resource = None

# ----------------------------------------------------------------------
# the trainer's allocator policy (DESIGN.md §10, "Trainer memory")
# ----------------------------------------------------------------------
#: glibc's ``mallopt`` parameter numbers (``<malloc.h>``)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: above the largest array a training allocates (2–4 MB at 160 atoms,
#: rcut 8.5), so no such array is ``mmap``-ed and returned to the kernel
#: on free; glibc's default starts at 128 kB
_MMAP_THRESHOLD = 16 << 20
#: above what a step frees (a 160-atom step frees 64–128 MB at the top
#: of the heap), so ``free`` stops trimming the heap after every step
_TRIM_THRESHOLD = 256 << 20
#: whether this process runs under the policy; ``None`` until the first
#: :class:`Trainer` is built
_heap_kept: Optional[bool] = None


def _keep_heap() -> None:
    """Pin glibc's two allocator thresholds, once per process.

    With glibc's defaults, every training step ``mmap``s its largest
    arrays and trims the temporaries it frees back to the kernel, then
    faults both in again on the next step: tens of thousands of minor
    faults per 160-atom training, in every training a process runs.
    Under the two thresholds a training after the process's first one
    reuses the heap the process already faulted in.  The cost is that a
    long-lived process (a pool worker) keeps its heap at the high-water
    mark of its largest training instead of shrinking between
    trainings.  No arithmetic changes, so no result moves a bit.

    ``_heap_kept`` records whether both thresholds took; where the C
    library has no ``mallopt`` (musl, macOS, Windows) the process keeps
    its allocator's defaults, silently.
    """
    global _heap_kept
    if _heap_kept is None:
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (OSError, AttributeError, TypeError):
            _heap_kept = False
        else:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            applied = [
                mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD),
            ]
            _heap_kept = applied == [1, 1]


def _minor_faults() -> Optional[int]:
    """Minor page faults this process has taken so far (``None`` where
    ``resource`` does not exist)."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass(frozen=True)
class TrainingConfig:
    """Run-time knobs of a single training (mirrors ``input.json``).

    ``numb_steps`` defaults far below the paper's 40 000 because the
    reproduction's model and dataset are scaled down accordingly; the
    schedule semantics are unchanged.
    """

    numb_steps: int = 200
    batch_size: int = 2
    disp_freq: int = 20
    start_lr: float = 1e-3
    stop_lr: float = 1e-5
    scale_by_worker: str = "none"
    n_workers: int = 6
    time_limit: Optional[float] = None  # seconds of wall clock
    prefactors: PrefactorSchedule = field(default_factory=PrefactorSchedule)
    seed: Optional[int] = None
    #: a training loss beyond this is treated as diverged — extreme
    #: learning rates oscillate at astronomical loss values without
    #: ever reaching IEEE infinity, and the EA must see those
    #: configurations fail (§2.2.4)
    divergence_threshold: float = 1e6


@dataclass
class TrainingResult:
    """Outcome of a completed training run."""

    rmse_e_val: float
    rmse_f_val: float
    lcurve: LCurve
    wall_time: float
    steps_completed: int

    @property
    def fitness(self) -> np.ndarray:
        """The two-element minimization fitness the EA consumes."""
        return np.array([self.rmse_e_val, self.rmse_f_val])


class Trainer:
    """Trains a :class:`DeepPotModel` on a :class:`FrameDataset`."""

    def __init__(
        self,
        model: DeepPotModel,
        dataset: FrameDataset,
        config: TrainingConfig,
        rng: RngLike = None,
        tracer: Optional[NullTracer | Tracer] = None,
    ) -> None:
        _keep_heap()
        self.model = model
        self.dataset = dataset
        self.config = config
        self.tracer = tracer if tracer is not None else get_tracer()
        self.rng = ensure_rng(
            config.seed if rng is None and config.seed is not None else rng
        )
        rcut = model.config.descriptor.rcut
        with self.tracer.span(
            "train.data_load", n_train=len(dataset.train)
        ):
            self.train_batches = prepare_batches(
                dataset.train, rcut, batch_size=config.batch_size
            )
            val_frames = dataset.validation or dataset.train
            self.val_batches = prepare_batches(
                val_frames, rcut, batch_size=max(config.batch_size, 4)
            )
        # fit the constant per-atom energy bias from the training split
        stats = dataset.energy_statistics()
        model.energy_bias_per_atom = stats["per_atom_mean"]
        self.schedule = ExponentialDecay(
            start_lr=config.start_lr,
            stop_lr=config.stop_lr,
            total_steps=config.numb_steps,
            n_workers=config.n_workers,
            scale_by_worker=config.scale_by_worker,
        )
        self.loss_fn = EnergyForceLoss(
            self.schedule, config.prefactors, n_atoms=dataset.n_atoms
        )
        self.optimizer = Adam(model.parameters, lr=self.schedule(0))
        self.lcurve = LCurve()

    # ------------------------------------------------------------------
    def _evaluate(
        self, batches: Sequence[DescriptorBatch]
    ) -> tuple[float, float]:
        """Energy (eV/atom) and force (eV/Å) RMSE over ``batches``."""
        se = 0.0
        sf = 0.0
        n_frames = 0
        n_force = 0
        n_atoms = self.dataset.n_atoms
        for batch in batches:
            e_pred, f_pred = self.model.energy_and_forces(
                batch, create_graph=False
            )
            de = (e_pred.data - batch.energies) / n_atoms
            se += float(np.sum(de * de))
            df = f_pred.data - batch.forces
            sf += float(np.sum(df * df))
            n_frames += batch.n_frames
            n_force += df.size
        return float(np.sqrt(se / n_frames)), float(np.sqrt(sf / n_force))

    def evaluate_validation(self) -> tuple[float, float]:
        """``(rmse_e_val, rmse_f_val)`` on the validation split."""
        with self.tracer.span(
            "train.validation", n_batches=len(self.val_batches)
        ):
            return self._evaluate(self.val_batches)

    # ------------------------------------------------------------------
    # checkpointing: Summit jobs are preemptible and capped, so a
    # training must be resumable mid-run
    # ------------------------------------------------------------------
    def save_checkpoint(self, path, step: int) -> None:
        """Persist model + optimizer + progress to ``path`` (.npz)."""
        import numpy as _np

        payload: dict = {"step": _np.array(step)}
        for key, value in self.model.state_dict().items():
            payload[f"model_{key}"] = value
        opt = self.optimizer.state_dict()
        payload["opt_t"] = _np.array(opt["t"])
        payload["opt_lr"] = _np.array(opt["lr"])
        for i, m in enumerate(opt["m"]):
            payload[f"opt_m_{i}"] = m
        for i, v in enumerate(opt["v"]):
            payload[f"opt_v_{i}"] = v
        _np.savez(path, **payload)

    def load_checkpoint(self, path) -> int:
        """Restore from :meth:`save_checkpoint`; returns the next step."""
        import numpy as _np

        data = dict(_np.load(path))
        model_state = {
            key[len("model_") :]: value
            for key, value in data.items()
            if key.startswith("model_")
        }
        self.model.load_state_dict(model_state)
        n_params = len(self.optimizer.parameters)
        self.optimizer.load_state_dict(
            {
                "t": int(data["opt_t"]),
                "lr": float(data["opt_lr"]),
                "m": [data[f"opt_m_{i}"] for i in range(n_params)],
                "v": [data[f"opt_v_{i}"] for i in range(n_params)],
            }
        )
        return int(data["step"]) + 1

    def train(
        self,
        resume_from=None,
        checkpoint_path=None,
        checkpoint_freq: Optional[int] = None,
        stop_after: Optional[int] = None,
    ) -> TrainingResult:
        """Run the configured number of steps and return final losses.

        The whole loop runs inside a ``train.loop`` span (timeout /
        divergence exits mark the span ``err``), with the per-call
        ``train.validation`` spans nested under it.  The span's
        ``minor_faults`` tag counts the page faults the process took
        while it ran (left out where ``resource`` does not exist), so a
        trace shows whether a training paid the kernel for memory.

        Parameters
        ----------
        resume_from:
            Path to a checkpoint written by a previous (e.g. timed-out)
            run; training continues from the stored step.
        checkpoint_path / checkpoint_freq:
            Write a checkpoint every ``checkpoint_freq`` steps, and on
            timeout, so the run can be resumed.
        stop_after:
            Execute at most this many steps in *this* invocation and
            checkpoint — training within a walltime slice; the LR and
            prefactor schedules still span the full ``numb_steps``.

        Raises
        ------
        TrainingTimeoutError
            When ``config.time_limit`` elapses before the steps finish
            (a checkpoint is written first when a path is configured).
        TrainingDivergedError
            When the training loss becomes non-finite or explodes.
        """
        with self.tracer.span(
            "train.loop", steps=self.config.numb_steps
        ) as span:
            faults = _minor_faults()
            try:
                result = self._train_steps(
                    resume_from, checkpoint_path, checkpoint_freq, stop_after
                )
            finally:
                if faults is not None:
                    span.tag(minor_faults=_minor_faults() - faults)
            span.tag(
                steps_completed=result.steps_completed,
                rmse_f_val=result.rmse_f_val,
            )
            return result

    def _train_steps(
        self,
        resume_from=None,
        checkpoint_path=None,
        checkpoint_freq: Optional[int] = None,
        stop_after: Optional[int] = None,
    ) -> TrainingResult:
        cfg = self.config
        start_time = time.monotonic()
        first_step = 0
        if resume_from is not None:
            first_step = self.load_checkpoint(resume_from)
        step = first_step
        for step in range(first_step, cfg.numb_steps):
            if stop_after is not None and step - first_step >= stop_after:
                if checkpoint_path is not None:
                    self.save_checkpoint(checkpoint_path, step - 1)
                break
            if cfg.time_limit is not None:
                elapsed = time.monotonic() - start_time
                if elapsed > cfg.time_limit:
                    if checkpoint_path is not None:
                        self.save_checkpoint(checkpoint_path, step - 1)
                    raise TrainingTimeoutError(elapsed, cfg.time_limit)
            if (
                checkpoint_path is not None
                and checkpoint_freq
                and step > first_step
                and (step - first_step) % checkpoint_freq == 0
            ):
                self.save_checkpoint(checkpoint_path, step - 1)
            batch = self.train_batches[
                int(self.rng.integers(len(self.train_batches)))
            ]
            e_pred, f_pred = self.model.energy_and_forces(
                batch, create_graph=True
            )
            loss = self.loss_fn(
                step,
                e_pred,
                Tensor(batch.energies),
                f_pred,
                Tensor(batch.forces),
            )
            loss_value = float(loss.data)
            if not np.isfinite(loss_value) or (
                loss_value > cfg.divergence_threshold
            ):
                raise TrainingDivergedError(
                    f"loss {loss_value:.3g} at step {step} "
                    f"(threshold {cfg.divergence_threshold:g})"
                )
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.lr = self.schedule(step)
            self.optimizer.step()
            if (step + 1) % cfg.disp_freq == 0 or step == 0:
                rmse_e_val, rmse_f_val = self.evaluate_validation()
                rmse_e_trn, rmse_f_trn = self._evaluate(
                    self.train_batches[:2]
                )
                if not (
                    np.isfinite(rmse_e_val) and np.isfinite(rmse_f_val)
                ):
                    raise TrainingDivergedError(
                        f"non-finite validation loss at step {step}"
                    )
                self.lcurve.append(
                    step + 1,
                    rmse_e_val,
                    rmse_e_trn,
                    rmse_f_val,
                    rmse_f_trn,
                    self.schedule(step),
                )
        if not self.lcurve.rows:
            rmse_e_val, rmse_f_val = self.evaluate_validation()
            rmse_e_trn, rmse_f_trn = self._evaluate(self.train_batches[:2])
            self.lcurve.append(
                cfg.numb_steps,
                rmse_e_val,
                rmse_e_trn,
                rmse_f_val,
                rmse_f_trn,
                self.schedule(max(cfg.numb_steps - 1, 0)),
            )
        rmse_e_val, rmse_f_val = self.lcurve.final_losses()
        return TrainingResult(
            rmse_e_val=rmse_e_val,
            rmse_f_val=rmse_f_val,
            lcurve=self.lcurve,
            wall_time=time.monotonic() - start_time,
            steps_completed=step + 1 if cfg.numb_steps else 0,
        )
