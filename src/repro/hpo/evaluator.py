"""The §2.2.4 fitness-evaluation workflow against the real trainer.

For one individual:

1. decode the seven-gene genome (floor-mod for the categoricals);
2. create a sub-directory named after the individual's UUID;
3. render ``input.json`` from the JSON template via
   ``string.Template`` with the decoded gene values;
4. invoke the ``dp``-style trainer (in-process or as a subprocess with
   a timeout) and read the final ``rmse_e_val`` / ``rmse_f_val`` from
   ``lcurve.out`` as the two-element fitness.

Any exception — timeout, divergence, invalid configuration — escapes
to :class:`repro.evo.individual.RobustIndividual`, which assigns
``MAXINT`` fitness.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.deepmd.runner import run_training
from repro.evo.problem import WithMetadataProblem
from repro.md.dataset import FrameDataset


@dataclass
class EvaluatorSettings:
    """Scaled-down training envelope for real evaluations.

    The paper fixes the network shapes and the step count (40 000); the
    defaults here shrink all three so one evaluation takes seconds.
    The searched hyperparameters are taken from the phenome, never from
    here.
    """

    numb_steps: int = 150
    batch_size: int = 2
    disp_freq: int = 50
    embedding_widths: tuple[int, ...] = (6, 12)
    axis_neurons: int = 3
    fitting_widths: tuple[int, ...] = (16, 16)
    n_workers: int = 6
    time_limit: Optional[float] = 120.0  # seconds (the paper: 2 hours)
    seed: int = 0
    mode: str = "inprocess"


class DeepMDProblem(WithMetadataProblem):
    """Two-objective minimization of (energy RMSE, force RMSE).

    Parameters
    ----------
    dataset:
        Training/validation frames (shared across all evaluations, as
        the paper shares its FPMD dataset).
    base_dir:
        Where UUID-named run directories are created; by default a
        temporary directory, removed when this instance is collected
        (or at interpreter exit) and never by an unpickled copy.
    settings:
        The fixed (non-searched) training envelope.

    Memoization is not this class's job: wrap it in
    :class:`repro.store.cache.CachedProblem`, which keys entries by
    (phenome, :meth:`cache_fingerprint`).
    """

    n_objectives = 2

    def __init__(
        self,
        dataset: FrameDataset,
        base_dir: Optional[str | Path] = None,
        settings: Optional[EvaluatorSettings] = None,
    ) -> None:
        self.dataset = dataset
        self.settings = settings or EvaluatorSettings()
        self._dataset_id: Optional[str] = None
        if base_dir is None:
            # the directory lives as long as this instance; a pickled
            # copy (a pool worker's) holds only the path, never removes it
            self.base_dir = Path(tempfile.mkdtemp(prefix="repro-hpo-"))
            weakref.finalize(self, shutil.rmtree, self.base_dir, True)
        else:
            self.base_dir = Path(base_dir)
            self.base_dir.mkdir(parents=True, exist_ok=True)

    def cache_fingerprint(self) -> dict[str, Any]:
        """What, besides the phenome, determines an evaluation result.

        Any change here — different frames, a different step count or
        time limit, different fixed network shapes — yields different
        cache keys, so stale entries can never be served.
        """
        from dataclasses import asdict

        from repro.store.cache import dataset_fingerprint

        if self._dataset_id is None:
            self._dataset_id = dataset_fingerprint(self.dataset)
        return {
            "problem": "deepmd",
            "dataset": self._dataset_id,
            "settings": asdict(self.settings),
        }

    def _template_variables(
        self, phenome: dict[str, Any]
    ) -> dict[str, Any]:
        s = self.settings
        return {
            "start_lr": phenome["start_lr"],
            "stop_lr": phenome["stop_lr"],
            "rcut": phenome["rcut"],
            "rcut_smth": phenome["rcut_smth"],
            "scale_by_worker": phenome["scale_by_worker"],
            "desc_activ_func": phenome["desc_activ_func"],
            "fitting_activ_func": phenome["fitting_activ_func"],
            "embedding_widths": list(s.embedding_widths),
            "axis_neurons": s.axis_neurons,
            "fitting_widths": list(s.fitting_widths),
            "numb_steps": s.numb_steps,
            "batch_size": s.batch_size,
            "disp_freq": s.disp_freq,
            "seed": s.seed,
            "data_dir": "",
        }

    def evaluate_with_metadata(
        self, phenome: dict[str, Any], uuid: Optional[str] = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        """Run the full workflow; returns fitness and runtime metadata.

        The metadata always carries an explicit ``failed`` flag: False
        on the returned dict, True (with a ``failure_cause``) on the
        metadata attached to any escaping exception — so MAXINT-fitness
        runs are distinguishable from legitimately bad ones downstream.
        """
        try:
            run = run_training(
                base_dir=self.base_dir,
                variables=self._template_variables(phenome),
                dataset=self.dataset,
                time_limit=self.settings.time_limit,
                mode=self.settings.mode,
                run_uuid=uuid,
            )
        except Exception as exc:
            self.attach_failure_metadata(exc, phenome)
            raise
        fitness = np.array([run.rmse_e_val, run.rmse_f_val])
        metadata = {
            "runtime_minutes": run.wall_time / 60.0,
            "workdir": str(run.workdir),
            "phenome": dict(phenome),
            "failed": False,
        }
        return fitness, metadata
