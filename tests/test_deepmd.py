"""Tests for the DeePMD surrogate: descriptor, model, trainer, lcurve,
input templating, and the runner/CLI surface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.deepmd.data import prepare_batches
from repro.deepmd.descriptor import (
    DescriptorConfig,
    SmoothDescriptor,
    smooth_switch,
)
from repro.deepmd.input_config import (
    InputConfig,
    default_input_template,
    render_input_json,
)
from repro.deepmd.lcurve import LCurve, read_lcurve, write_lcurve
from repro.deepmd.model import DeepPotModel, ModelConfig
from repro.deepmd.runner import (
    execute_training,
    prepare_run_directory,
    run_training,
)
from repro.deepmd.training import Trainer, TrainingConfig
from repro.exceptions import (
    ConfigurationError,
    TrainingDivergedError,
    TrainingTimeoutError,
)


class TestSmoothSwitch:
    def test_inner_region_is_inverse_r(self):
        r = Tensor([1.0, 2.0])
        s = smooth_switch(r, rcut=6.0, rcut_smth=3.0)
        assert np.allclose(s.data, [1.0, 0.5])

    def test_zero_beyond_cutoff(self):
        r = Tensor([6.0, 7.0, 100.0])
        s = smooth_switch(r, rcut=6.0, rcut_smth=3.0)
        assert np.allclose(s.data, 0.0)

    def test_continuous_at_rcut_smth(self):
        eps = 1e-9
        r = Tensor([3.0 - eps, 3.0 + eps])
        s = smooth_switch(r, rcut=6.0, rcut_smth=3.0)
        assert abs(s.data[0] - s.data[1]) < 1e-6

    def test_continuous_at_rcut(self):
        eps = 1e-9
        r = Tensor([6.0 - eps, 6.0 + eps])
        s = smooth_switch(r, rcut=6.0, rcut_smth=3.0)
        assert abs(s.data[0] - s.data[1]) < 1e-6

    def test_derivative_continuous_at_boundaries(self):
        # C1 continuity: finite-difference slope across each boundary
        def slope(r0, h=1e-5):
            r = Tensor([r0 - h, r0 + h])
            s = smooth_switch(r, rcut=6.0, rcut_smth=3.0)
            return (s.data[1] - s.data[0]) / (2 * h)

        inner_slope = slope(3.0 - 1e-4)
        outer_slope = slope(3.0 + 1e-4)
        assert abs(inner_slope - outer_slope) < 1e-2
        assert abs(slope(6.0 - 1e-4)) < 1e-2  # flattens to zero

    def test_monotone_decreasing_in_switch_region(self):
        rs = np.linspace(3.01, 5.99, 50)
        s = smooth_switch(Tensor(rs), rcut=6.0, rcut_smth=3.0).data
        assert np.all(np.diff(s) < 0)

    def test_differentiable(self):
        r = Tensor([2.0, 4.0, 5.5], requires_grad=True)
        s = smooth_switch(r, rcut=6.0, rcut_smth=3.0)
        s.sum().backward()
        assert r.grad is not None
        assert np.isfinite(r.grad).all()

    def test_padded_zero_entries_yield_zero(self):
        r = Tensor([0.0, 2.0])
        s = smooth_switch(r, rcut=6.0, rcut_smth=1.0)
        assert s.data[0] == 0.0

    def test_invalid_radii_raise(self):
        with pytest.raises(ConfigurationError):
            smooth_switch(Tensor([1.0]), rcut=2.0, rcut_smth=3.0)


class TestDescriptorConfig:
    def test_valid(self):
        DescriptorConfig(rcut=6.0, rcut_smth=2.0)

    @pytest.mark.parametrize(
        "rcut,rcut_smth",
        [(0.0, 0.0), (-1.0, 0.5), (2.0, 3.0), (2.0, 2.0)],
    )
    def test_invalid(self, rcut, rcut_smth):
        with pytest.raises(ConfigurationError):
            DescriptorConfig(rcut=rcut, rcut_smth=rcut_smth)


class TestEnvironmentMatrix:
    def test_shapes(self):
        desc = SmoothDescriptor(DescriptorConfig(rcut=5.0, rcut_smth=2.0))
        disp = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 3)))
        mask = np.ones((2, 3, 4))
        env, s = desc.environment_matrix(disp, mask)
        assert env.shape == (2, 3, 4, 4)
        assert s.shape == (2, 3, 4)

    def test_masked_rows_zero(self):
        desc = SmoothDescriptor(DescriptorConfig(rcut=5.0, rcut_smth=2.0))
        disp = Tensor(np.ones((1, 1, 2, 3)))
        mask = np.array([[[1.0, 0.0]]])
        env, s = desc.environment_matrix(disp, mask)
        assert np.allclose(env.data[0, 0, 1], 0.0)
        assert s.data[0, 0, 1] == 0.0

    def test_first_channel_is_switch_value(self):
        desc = SmoothDescriptor(DescriptorConfig(rcut=6.0, rcut_smth=3.0))
        d = np.zeros((1, 1, 1, 3))
        d[0, 0, 0] = [2.0, 0.0, 0.0]
        env, s = desc.environment_matrix(Tensor(d), np.ones((1, 1, 1)))
        assert np.isclose(env.data[0, 0, 0, 0], 0.5)  # s = 1/r
        assert np.isclose(env.data[0, 0, 0, 1], 0.5)  # s * x/r = s

    def test_rotation_covariance_of_scalar_channel(self):
        """s(r) depends only on distance, so rotating displacements
        leaves the first channel unchanged."""
        desc = SmoothDescriptor(DescriptorConfig(rcut=6.0, rcut_smth=2.0))
        rng = np.random.default_rng(1)
        d = rng.normal(size=(1, 2, 3, 3))
        mask = np.ones((1, 2, 3))
        # random rotation via QR
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        env1, s1 = desc.environment_matrix(Tensor(d), mask)
        env2, s2 = desc.environment_matrix(Tensor(d @ Q.T), mask)
        assert np.allclose(s1.data, s2.data, atol=1e-12)


class TestPrepareBatches:
    def test_batch_shapes(self, small_dataset):
        batches = prepare_batches(
            small_dataset.train[:6], rcut=4.0, batch_size=3
        )
        assert len(batches) == 2
        b = batches[0]
        assert b.n_frames == 3
        assert b.n_atoms == 20
        assert b.displacements.shape == (
            3,
            20,
            b.max_neighbors,
            3,
        )

    def test_common_pad_width_across_batches(self, small_dataset):
        batches = prepare_batches(
            small_dataset.train[:6], rcut=4.0, batch_size=2
        )
        widths = {b.max_neighbors for b in batches}
        assert len(widths) == 1

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            prepare_batches([], rcut=4.0)

    def test_bad_batch_size_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            prepare_batches(small_dataset.train[:2], rcut=4.0, batch_size=0)


@pytest.fixture(scope="module")
def tiny_model_and_batch(small_dataset):
    config = ModelConfig(
        descriptor=DescriptorConfig(rcut=4.0, rcut_smth=1.5),
        embedding_widths=(4, 8),
        axis_neurons=3,
        fitting_widths=(8,),
    )
    model = DeepPotModel(config, rng=0)
    batch = prepare_batches(small_dataset.train[:2], rcut=4.0, batch_size=2)[0]
    return model, batch


class TestDeepPotModel:
    def test_invalid_activation_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(desc_activation="gelu")

    def test_axis_neurons_bounded(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(embedding_widths=(4,), axis_neurons=8)

    def test_energy_shape(self, tiny_model_and_batch):
        model, batch = tiny_model_and_batch
        e = model.energy(batch)
        assert e.shape == (batch.n_frames,)

    def test_energy_and_forces_shapes(self, tiny_model_and_batch):
        model, batch = tiny_model_and_batch
        e, f = model.energy_and_forces(batch)
        assert e.shape == (batch.n_frames,)
        assert f.shape == (batch.n_frames, batch.n_atoms, 3)

    def test_forces_sum_to_zero(self, tiny_model_and_batch):
        """Translation invariance: internal forces cancel."""
        model, batch = tiny_model_and_batch
        _, f = model.energy_and_forces(batch)
        assert np.allclose(f.data.sum(axis=1), 0.0, atol=1e-9)

    def test_forces_match_finite_difference(self, small_dataset):
        from repro.md.dataset import Frame

        frame = small_dataset.train[0]
        config = ModelConfig(
            descriptor=DescriptorConfig(rcut=4.0, rcut_smth=1.5),
            embedding_widths=(4, 8),
            axis_neurons=3,
            fitting_widths=(8,),
        )
        model = DeepPotModel(config, rng=0)

        def energy_at(positions):
            f2 = Frame(
                positions=positions,
                species=frame.species,
                energy=0.0,
                forces=frame.forces,
                box=frame.box,
            )
            b = prepare_batches([f2], rcut=4.0, batch_size=1)[0]
            return float(model.energy(b).data[0])

        batch = prepare_batches([frame], rcut=4.0, batch_size=1)[0]
        _, forces = model.energy_and_forces(batch)
        eps = 1e-5
        for atom in (0, 7):
            for k in range(3):
                p = frame.positions.copy()
                p[atom, k] += eps
                ep = energy_at(p)
                p[atom, k] -= 2 * eps
                em = energy_at(p)
                num = -(ep - em) / (2 * eps)
                assert np.isclose(
                    forces.data[0, atom, k], num, rtol=1e-4, atol=1e-8
                )

    def test_energy_bias_shifts_total(self, tiny_model_and_batch):
        model, batch = tiny_model_and_batch
        e0 = model.energy(batch).data.copy()
        old_bias = model.energy_bias_per_atom
        model.energy_bias_per_atom = old_bias + 1.0
        e1 = model.energy(batch).data
        model.energy_bias_per_atom = old_bias
        assert np.allclose(e1 - e0, batch.n_atoms)

    def test_state_dict_roundtrip(self, tiny_model_and_batch):
        model, batch = tiny_model_and_batch
        state = model.state_dict()
        e0 = model.energy(batch).data.copy()
        # perturb, then restore
        for p in model.parameters:
            p.data += 0.1
        model.load_state_dict(state)
        assert np.allclose(model.energy(batch).data, e0)

    def test_load_state_dict_shape_mismatch(self, tiny_model_and_batch):
        model, _ = tiny_model_and_batch
        state = model.state_dict()
        state["param_0"] = np.zeros((1, 1))
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            model.load_state_dict(state)

    def test_deterministic_construction(self):
        c = ModelConfig(embedding_widths=(4,), axis_neurons=2)
        m1 = DeepPotModel(c, rng=3)
        m2 = DeepPotModel(c, rng=3)
        assert np.array_equal(
            m1.parameters[0].data, m2.parameters[0].data
        )


class TestTrainer:
    def _config(self, **over):
        defaults = dict(
            numb_steps=20,
            batch_size=2,
            disp_freq=10,
            start_lr=3e-3,
            stop_lr=1e-4,
        )
        defaults.update(over)
        return TrainingConfig(**defaults)

    def _model(self):
        return DeepPotModel(
            ModelConfig(
                descriptor=DescriptorConfig(rcut=4.0, rcut_smth=1.5),
                embedding_widths=(4, 8),
                axis_neurons=3,
                fitting_widths=(8,),
            ),
            rng=0,
        )

    def test_training_reduces_force_loss(self, small_dataset):
        # the prefactor schedule makes early training force-led, so the
        # force RMSE is the objective guaranteed to improve in a short run
        model = self._model()
        trainer = Trainer(
            model, small_dataset, self._config(numb_steps=150), rng=1
        )
        e0, f0 = trainer.evaluate_validation()
        result = trainer.train()
        assert result.rmse_f_val < f0

    def test_lcurve_rows_written(self, small_dataset):
        model = self._model()
        result = Trainer(model, small_dataset, self._config(), rng=1).train()
        steps = result.lcurve.column("step")
        assert steps[0] == 1
        assert steps[-1] == 20

    def test_fitness_is_two_element(self, small_dataset):
        model = self._model()
        result = Trainer(model, small_dataset, self._config(), rng=1).train()
        assert result.fitness.shape == (2,)

    def test_timeout_raises(self, small_dataset):
        model = self._model()
        config = self._config(numb_steps=10000, time_limit=0.05)
        with pytest.raises(TrainingTimeoutError):
            Trainer(model, small_dataset, config, rng=1).train()

    def test_divergent_lr_raises(self, small_dataset):
        model = self._model()
        config = self._config(numb_steps=300, start_lr=5000.0, stop_lr=1000.0)
        with pytest.raises(TrainingDivergedError):
            Trainer(model, small_dataset, config, rng=1).train()

    def test_energy_bias_set_from_data(self, small_dataset):
        model = self._model()
        Trainer(model, small_dataset, self._config(), rng=1)
        stats = small_dataset.energy_statistics()
        assert np.isclose(model.energy_bias_per_atom, stats["per_atom_mean"])


class TestLCurve:
    def _curve(self):
        lc = LCurve()
        lc.append(100, 0.01, 0.009, 0.1, 0.09, 1e-3)
        lc.append(200, 0.005, 0.004, 0.08, 0.07, 5e-4)
        return lc

    def test_final_losses(self):
        assert self._curve().final_losses() == (0.005, 0.08)

    def test_final_losses_empty_raises(self):
        with pytest.raises(ValueError):
            LCurve().final_losses()

    def test_column(self):
        assert np.allclose(self._curve().column("rmse_f_val"), [0.1, 0.08])

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            self._curve().column("nope")

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "lcurve.out"
        write_lcurve(self._curve(), path)
        loaded = read_lcurve(path)
        assert len(loaded) == 2
        assert loaded.final_losses() == (0.005, 0.08)
        assert loaded.column("step").tolist() == [100.0, 200.0]

    def test_file_has_deepmd_header(self, tmp_path):
        path = tmp_path / "lcurve.out"
        write_lcurve(self._curve(), path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("#")
        assert "rmse_e_val" in header
        assert "rmse_f_val" in header


class TestInputTemplate:
    def _variables(self):
        return {
            "start_lr": 1e-3,
            "stop_lr": 1e-5,
            "rcut": 6.0,
            "rcut_smth": 2.0,
            "scale_by_worker": "none",
            "desc_activ_func": "tanh",
            "fitting_activ_func": "softplus",
            "embedding_widths": [4, 8],
            "axis_neurons": 3,
            "fitting_widths": [8, 8],
            "numb_steps": 10,
            "batch_size": 2,
            "disp_freq": 5,
            "seed": 0,
            "data_dir": "/tmp/data",
        }

    def test_render_valid_json(self):
        text = render_input_json(default_input_template(), self._variables())
        doc = json.loads(text)
        assert doc["model"]["descriptor"]["rcut"] == 6.0
        assert doc["learning_rate"]["scale_by_worker"] == "none"

    def test_missing_variable_raises(self):
        variables = self._variables()
        del variables["rcut"]
        with pytest.raises(ConfigurationError, match="undefined variable"):
            render_input_json(default_input_template(), variables)

    def test_lists_render_as_json_arrays(self):
        text = render_input_json(default_input_template(), self._variables())
        doc = json.loads(text)
        assert doc["model"]["descriptor"]["neuron"] == [4, 8]

    def test_invalid_json_detected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            render_input_json('{"a": $x,}', {"x": "}{"})

    def test_input_config_roundtrip(self):
        text = render_input_json(default_input_template(), self._variables())
        config = InputConfig.from_json(text)
        assert config.rcut == 6.0
        assert config.fitting_activ_func == "softplus"
        assert config.embedding_widths == (4, 8)
        assert config.data_dir == "/tmp/data"

    def test_input_config_missing_section(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            InputConfig.from_dict({"model": {}})

    def test_model_and_training_configs(self):
        text = render_input_json(default_input_template(), self._variables())
        config = InputConfig.from_json(text)
        mc = config.model_config()
        tc = config.training_config(time_limit=10.0)
        assert mc.descriptor.rcut == 6.0
        assert tc.numb_steps == 10
        assert tc.time_limit == 10.0
        assert tc.prefactors.pf_start == 1000.0


class TestRunner:
    def _variables(self, data_dir=""):
        v = TestInputTemplate._variables(TestInputTemplate())
        v["data_dir"] = str(data_dir)
        return v

    def test_prepare_run_directory(self, tmp_path):
        workdir = prepare_run_directory(
            tmp_path, self._variables(), run_uuid="abc-123"
        )
        assert workdir.name == "abc-123"
        assert (workdir / "input.json").exists()

    def test_run_training_inprocess(self, tmp_path, small_dataset):
        run = run_training(
            base_dir=tmp_path,
            variables=self._variables(),
            dataset=small_dataset,
            mode="inprocess",
        )
        assert (run.workdir / "lcurve.out").exists()
        assert (run.workdir / "model.npz").exists()
        assert np.isfinite(run.rmse_e_val)
        assert np.isfinite(run.rmse_f_val)

    def test_run_training_uuid_names_directory(self, tmp_path, small_dataset):
        run = run_training(
            base_dir=tmp_path,
            variables=self._variables(),
            dataset=small_dataset,
            run_uuid="my-uuid",
        )
        assert run.workdir.name == "my-uuid"

    def test_unknown_mode_raises(self, tmp_path, small_dataset):
        workdir = prepare_run_directory(tmp_path, self._variables())
        with pytest.raises(ValueError, match="unknown execution mode"):
            execute_training(workdir, dataset=small_dataset, mode="mpi")

    @pytest.mark.slow
    def test_run_training_subprocess(self, tmp_path, small_dataset):
        data_dir = tmp_path / "data"
        small_dataset.save(data_dir)
        variables = self._variables(data_dir=data_dir)
        run = run_training(
            base_dir=tmp_path,
            variables=variables,
            mode="subprocess",
            time_limit=300.0,
        )
        assert np.isfinite(run.rmse_f_val)
        # the ``dp train`` child trains exactly as this process does
        inprocess = prepare_run_directory(
            tmp_path, variables, run_uuid="inprocess"
        )
        execute_training(inprocess)
        assert (run.workdir / "lcurve.out").read_bytes() == (
            inprocess / "lcurve.out"
        ).read_bytes()

    @pytest.mark.slow
    def test_cli_train_and_gen_data(self, tmp_path):
        data_dir = tmp_path / "data"
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.deepmd.cli",
                "gen-data",
                str(data_dir),
                "--frames",
                "12",
                "--seed",
                "3",
            ],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        workdir = prepare_run_directory(
            tmp_path, self._variables(data_dir=data_dir)
        )
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.deepmd.cli",
                "train",
                str(workdir / "input.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "rmse_f_val" in out.stdout
        assert (workdir / "lcurve.out").exists()
