"""``input.json`` configuration and template rendering.

§2.2.4 step 3: "A file containing JSON-formatted input template was
read in.  Using the Python Standard Library ``string.Template``
mechanism, variable substitution was performed with that JSON-formatted
template using the decoded gene values from the individual.  The
updated ``input.json`` file was written to the UUID-named run
directory."  This module reproduces that mechanism exactly, including
the schema layout of DeePMD-kit's training input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from string import Template
from typing import Any, Mapping

from repro.deepmd.descriptor import DescriptorConfig
from repro.deepmd.model import ModelConfig
from repro.deepmd.training import TrainingConfig
from repro.exceptions import ConfigurationError
from repro.nn.loss import PrefactorSchedule

#: The template the EA fills in — the ``$``-prefixed fields are the
#: seven decoded genes (§2.2.1) plus run-time bookkeeping.
DEFAULT_INPUT_TEMPLATE = """\
{
  "model": {
    "type_map": ["Al", "K", "Cl"],
    "descriptor": {
      "type": "se_e2_a",
      "rcut": $rcut,
      "rcut_smth": $rcut_smth,
      "neuron": $embedding_widths,
      "axis_neuron": $axis_neurons,
      "activation_function": "$desc_activ_func"
    },
    "fitting_net": {
      "neuron": $fitting_widths,
      "activation_function": "$fitting_activ_func"
    }
  },
  "learning_rate": {
    "type": "exp",
    "start_lr": $start_lr,
    "stop_lr": $stop_lr,
    "scale_by_worker": "$scale_by_worker"
  },
  "loss": {
    "start_pref_e": 0.02,
    "limit_pref_e": 1,
    "start_pref_f": 1000,
    "limit_pref_f": 1
  },
  "training": {
    "numb_steps": $numb_steps,
    "batch_size": $batch_size,
    "disp_freq": $disp_freq,
    "seed": $seed,
    "systems": ["$data_dir"]
  }
}
"""


def default_input_template() -> str:
    """The built-in JSON-formatted input template."""
    return DEFAULT_INPUT_TEMPLATE


def render_input_json(
    template: str, variables: Mapping[str, Any]
) -> str:
    """Substitute ``$``-variables into ``template`` and validate JSON.

    Lists/tuples are rendered as JSON arrays; other values via ``str``.
    Raises :class:`ConfigurationError` when substitution leaves the
    template un-parseable or a variable is missing.
    """
    rendered_vars = {
        k: json.dumps(list(v)) if isinstance(v, (list, tuple)) else str(v)
        for k, v in variables.items()
    }
    try:
        text = Template(template).substitute(rendered_vars)
    except KeyError as exc:
        raise ConfigurationError(
            f"input template references undefined variable {exc}"
        ) from exc
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"rendered input.json is not valid JSON: {exc}"
        ) from exc
    return text


@dataclass
class InputConfig:
    """Parsed ``input.json`` — the full run configuration.

    Bridges the JSON schema to the in-process :class:`ModelConfig` and
    :class:`TrainingConfig` objects.
    """

    rcut: float = 6.0
    rcut_smth: float = 0.5
    embedding_widths: tuple[int, ...] = (8, 16)
    axis_neurons: int = 4
    fitting_widths: tuple[int, ...] = (24, 24)
    desc_activ_func: str = "tanh"
    fitting_activ_func: str = "tanh"
    start_lr: float = 1e-3
    stop_lr: float = 1e-5
    scale_by_worker: str = "none"
    start_pref_e: float = 0.02
    limit_pref_e: float = 1.0
    start_pref_f: float = 1000.0
    limit_pref_f: float = 1.0
    numb_steps: int = 200
    batch_size: int = 2
    disp_freq: int = 20
    seed: int = 0
    data_dir: str = ""
    n_species: int = 3

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "InputConfig":
        try:
            model = doc["model"]
            desc = model["descriptor"]
            fit = model["fitting_net"]
            lr = doc["learning_rate"]
            loss = doc["loss"]
            training = doc["training"]
        except KeyError as exc:
            raise ConfigurationError(
                f"input.json missing required section {exc}"
            ) from exc
        systems = training.get("systems", [""])
        return cls(
            rcut=float(desc["rcut"]),
            rcut_smth=float(desc["rcut_smth"]),
            embedding_widths=tuple(int(w) for w in desc["neuron"]),
            axis_neurons=int(desc.get("axis_neuron", 4)),
            fitting_widths=tuple(int(w) for w in fit["neuron"]),
            desc_activ_func=str(desc["activation_function"]),
            fitting_activ_func=str(fit["activation_function"]),
            start_lr=float(lr["start_lr"]),
            stop_lr=float(lr["stop_lr"]),
            scale_by_worker=str(lr.get("scale_by_worker", "linear")),
            start_pref_e=float(loss.get("start_pref_e", 0.02)),
            limit_pref_e=float(loss.get("limit_pref_e", 1.0)),
            start_pref_f=float(loss.get("start_pref_f", 1000.0)),
            limit_pref_f=float(loss.get("limit_pref_f", 1.0)),
            numb_steps=int(training["numb_steps"]),
            batch_size=int(training.get("batch_size", 2)),
            disp_freq=int(training.get("disp_freq", 20)),
            seed=int(training.get("seed", 0)),
            data_dir=str(systems[0]) if systems else "",
            n_species=len(model.get("type_map", ["Al", "K", "Cl"])),
        )

    @classmethod
    def from_json(cls, text: str) -> "InputConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid input.json: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "InputConfig":
        return cls.from_json(Path(path).read_text())

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            descriptor=DescriptorConfig(
                rcut=self.rcut, rcut_smth=self.rcut_smth
            ),
            n_species=self.n_species,
            embedding_widths=self.embedding_widths,
            axis_neurons=self.axis_neurons,
            fitting_widths=self.fitting_widths,
            desc_activation=self.desc_activ_func,
            fitting_activation=self.fitting_activ_func,
        )

    def training_config(
        self, time_limit: float | None = None, n_workers: int = 6
    ) -> TrainingConfig:
        return TrainingConfig(
            numb_steps=self.numb_steps,
            batch_size=self.batch_size,
            disp_freq=self.disp_freq,
            start_lr=self.start_lr,
            stop_lr=self.stop_lr,
            scale_by_worker=self.scale_by_worker,
            n_workers=n_workers,
            time_limit=time_limit,
            prefactors=PrefactorSchedule(
                pe_start=self.start_pref_e,
                pf_start=self.start_pref_f,
                pe_limit=self.limit_pref_e,
                pf_limit=self.limit_pref_f,
            ),
            seed=self.seed,
        )
