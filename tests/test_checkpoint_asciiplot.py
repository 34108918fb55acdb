"""Tests for training checkpoint/resume and the ASCII plot renderers."""

import numpy as np
import pytest

from repro.analysis.asciiplot import (
    ascii_density,
    ascii_histogram,
    ascii_scatter,
)
from repro.deepmd.descriptor import DescriptorConfig
from repro.deepmd.model import DeepPotModel, ModelConfig
from repro.deepmd.training import Trainer, TrainingConfig
from repro.exceptions import TrainingTimeoutError
from repro.nn.optimizer import Adam
from repro.autodiff.tensor import Tensor


def _trainer(dataset, numb_steps=30, rng=1, **over):
    config = ModelConfig(
        descriptor=DescriptorConfig(rcut=4.0, rcut_smth=1.5),
        embedding_widths=(4, 8),
        axis_neurons=3,
        fitting_widths=(8,),
    )
    model = DeepPotModel(config, rng=0)
    defaults = dict(
        numb_steps=numb_steps,
        batch_size=2,
        disp_freq=numb_steps,
        start_lr=3e-3,
        stop_lr=1e-4,
    )
    defaults.update(over)
    return Trainer(model, dataset, TrainingConfig(**defaults), rng=rng)


class TestAdamState:
    def test_roundtrip(self):
        x = Tensor(np.array([3.0, -2.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(5):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        state = opt.state_dict()
        x2 = Tensor(x.data.copy(), requires_grad=True)
        opt2 = Adam([x2], lr=0.1)
        opt2.load_state_dict(state)
        # both take one more identical step
        for o, t in ((opt, x), (opt2, x2)):
            o.zero_grad()
            (t * t).sum().backward()
            o.step()
        assert np.allclose(x.data, x2.data)

    def test_mismatched_state_rejected(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([x], lr=0.1)
        with pytest.raises(ValueError):
            opt.load_state_dict({"t": 1, "lr": 0.1, "m": [], "v": []})


class TestCheckpointResume:
    def test_split_training_matches_straight_run(self, small_dataset, tmp_path):
        """15 + 15 steps through a checkpoint == 30 straight steps.

        Both runs must see the same batch draws, so the resuming
        trainer continues the interrupted trainer's RNG stream (the
        checkpoint stores model + optimizer state, not the batch
        sampler — same as DeePMD)."""
        straight = _trainer(small_dataset, numb_steps=30, rng=7)
        result_straight = straight.train()

        ckpt = tmp_path / "ckpt.npz"
        first = _trainer(small_dataset, numb_steps=30, rng=7)
        first.train(stop_after=15, checkpoint_path=ckpt)
        second = _trainer(small_dataset, numb_steps=30, rng=7)
        second.rng = first.rng  # continue the same batch draws
        result_split = second.train(resume_from=ckpt)
        assert np.isclose(
            result_split.rmse_f_val, result_straight.rmse_f_val, rtol=1e-10
        )
        assert np.isclose(
            result_split.rmse_e_val, result_straight.rmse_e_val, rtol=1e-10
        )

    def test_timeout_writes_checkpoint(self, small_dataset, tmp_path):
        trainer = _trainer(
            small_dataset, numb_steps=100000, time_limit=0.15
        )
        ckpt = tmp_path / "timeout.npz"
        with pytest.raises(TrainingTimeoutError):
            trainer.train(checkpoint_path=ckpt)
        assert ckpt.exists()
        # and it is loadable
        resumed = _trainer(small_dataset, numb_steps=5)
        next_step = resumed.load_checkpoint(ckpt)
        assert next_step >= 1

    def test_periodic_checkpoints(self, small_dataset, tmp_path):
        trainer = _trainer(small_dataset, numb_steps=20)
        ckpt = tmp_path / "periodic.npz"
        trainer.train(checkpoint_path=ckpt, checkpoint_freq=5)
        assert ckpt.exists()

    def test_checkpoint_restores_model_exactly(self, small_dataset, tmp_path):
        trainer = _trainer(small_dataset, numb_steps=10)
        trainer.train()
        ckpt = tmp_path / "exact.npz"
        trainer.save_checkpoint(ckpt, step=9)
        other = _trainer(small_dataset, numb_steps=10)
        other.load_checkpoint(ckpt)
        for p1, p2 in zip(
            trainer.model.parameters, other.model.parameters
        ):
            assert np.array_equal(p1.data, p2.data)


class TestAsciiPlots:
    def test_density_dimensions(self):
        rng = np.random.default_rng(0)
        out = ascii_density(
            rng.random(500), rng.random(500), width=40, height=10
        )
        lines = out.splitlines()
        body = [line for line in lines if line.startswith("|")]
        assert len(body) == 10
        assert all(len(line) == 42 for line in body)

    def test_density_shows_mass_where_data_is(self):
        x = np.full(100, 0.1)
        y = np.full(100, 0.9)
        out = ascii_density(
            x, y, width=20, height=10, x_range=(0, 1), y_range=(0, 1)
        )
        body = [line for line in out.splitlines() if line.startswith("|")]
        # densest glyph in the upper rows, left half
        top = "".join(body[:2])
        assert "@" in top
        assert top.index("@") < len(body[0]) // 2

    def test_density_empty_input(self):
        out = ascii_density(np.array([]), np.array([]))
        assert "0 points" in out

    def test_density_shape_mismatch(self):
        with pytest.raises(ValueError):
            ascii_density(np.zeros(3), np.zeros(4))

    def test_scatter_highlights(self):
        pts = [(0.0, 0.0), (1.0, 1.0)]
        out = ascii_scatter(pts, highlight=[(0.5, 0.5)], width=21, height=11)
        assert "O" in out
        assert "·" in out

    def test_scatter_empty(self):
        assert ascii_scatter([]) == "(no points)"

    def test_scatter_degenerate_axis(self):
        out = ascii_scatter([(1.0, 2.0), (1.0, 2.0)])
        assert "|" in out  # renders without dividing by zero

    def test_histogram_counts(self):
        out = ascii_histogram(np.array([1.0, 1.0, 2.0]), bins=2)
        assert "2" in out and "1" in out

    def test_histogram_ignores_nonfinite(self):
        out = ascii_histogram(
            np.array([1.0, np.nan, np.inf, 2.0]), bins=2
        )
        assert "nan" not in out

    def test_histogram_empty(self):
        assert "no finite values" in ascii_histogram(np.array([np.nan]))
