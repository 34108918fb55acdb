"""Command-line interface tests (in-process, via ``main(argv)``)."""

import pytest

from repro.deepmd.cli import main as dp_main
from repro.deepmd.input_config import default_input_template, render_input_json
from repro.hpo.cli import main as hpo_main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, small_dataset):
    d = tmp_path_factory.mktemp("data")
    small_dataset.save(d)
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    d = tmp_path_factory.mktemp("run")
    variables = {
        "start_lr": 3e-3,
        "stop_lr": 1e-4,
        "rcut": 4.0,
        "rcut_smth": 1.5,
        "scale_by_worker": "none",
        "desc_activ_func": "tanh",
        "fitting_activ_func": "tanh",
        "embedding_widths": [4, 8],
        "axis_neurons": 2,
        "fitting_widths": [8],
        "numb_steps": 10,
        "batch_size": 2,
        "disp_freq": 10,
        "seed": 0,
        "data_dir": str(data_dir),
    }
    (d / "input.json").write_text(
        render_input_json(default_input_template(), variables)
    )
    return d


class TestDpCli:
    def test_gen_data(self, tmp_path, capsys):
        rc = dp_main(
            [
                "gen-data",
                str(tmp_path / "out"),
                "--frames",
                "10",
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "training" in out

    def test_train(self, run_dir, capsys):
        rc = dp_main(["train", str(run_dir / "input.json")])
        assert rc == 0
        assert (run_dir / "lcurve.out").exists()
        assert (run_dir / "model.npz").exists()
        assert "rmse_f_val" in capsys.readouterr().out

    def test_test_subcommand(self, run_dir, capsys):
        # requires the model from test_train (module-ordered)
        if not (run_dir / "model.npz").exists():
            dp_main(["train", str(run_dir / "input.json")])
            capsys.readouterr()
        rc = dp_main(
            [
                "test",
                str(run_dir / "input.json"),
                str(run_dir / "model.npz"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rmse_e=" in out and "rmse_f=" in out

    def test_test_subcommand_train_split(self, run_dir, capsys):
        if not (run_dir / "model.npz").exists():
            dp_main(["train", str(run_dir / "input.json")])
            capsys.readouterr()
        rc = dp_main(
            [
                "test",
                str(run_dir / "input.json"),
                str(run_dir / "model.npz"),
                "--split",
                "train",
            ]
        )
        assert rc == 0
        assert "train frames" in capsys.readouterr().out

    def test_train_without_data_errors(self, tmp_path, capsys):
        variables = {
            "start_lr": 1e-3,
            "stop_lr": 1e-5,
            "rcut": 4.0,
            "rcut_smth": 1.5,
            "scale_by_worker": "none",
            "desc_activ_func": "tanh",
            "fitting_activ_func": "tanh",
            "embedding_widths": [4],
            "axis_neurons": 2,
            "fitting_widths": [4],
            "numb_steps": 5,
            "batch_size": 1,
            "disp_freq": 5,
            "seed": 0,
            "data_dir": "",
        }
        (tmp_path / "input.json").write_text(
            render_input_json(default_input_template(), variables)
        )
        rc = dp_main(["train", str(tmp_path / "input.json")])
        assert rc == 2


class TestHpoCli:
    def test_surrogate_campaign(self, capsys):
        rc = hpo_main(
            [
                "campaign",
                "--runs",
                "2",
                "--pop-size",
                "20",
                "--generations",
                "2",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 3" in out
        assert "total trainings: 120" in out

    def test_pool_requeues_revoked_work_instead_of_failing_it(
        self, tmp_path, capsys
    ):
        """A bare pool requeues a revoked worker's task onto a
        surviving worker: the fault fires, nothing scores MAXINT, and
        the front is the inline front."""
        from repro.io import load_campaign
        from repro.service.service import _front_doc

        common = [
            "run", "--runs", "1", "--pop-size", "8",
            "--generations", "1", "--seed", "11", "--no-cache",
        ]
        assert hpo_main(common + ["--save", str(tmp_path / "inline")]) == 0
        capsys.readouterr()
        rc = hpo_main(
            common
            + [
                "--save", str(tmp_path / "pool"),
                "--backend", "pool",
                "--pool-workers", "2",
                "--chaos-revoke", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos: 1 fault(s) fired: ['revoke_worker@1']" in out
        assert "failures by generation: [0, 0]" in out
        front = lambda d: _front_doc(load_campaign(tmp_path / d))["front"]  # noqa: E731
        assert front("pool") == front("inline")
