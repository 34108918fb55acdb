"""Shared fixtures, and a shuffled test order.

The expensive fixtures (MD dataset, trained batches) are session-scoped
so the integration-heavy test files reuse one instance.

``--shuffle SEED`` runs the collected tests in an order shuffled under
``SEED`` (``--shuffle random`` draws one), and prints the seed, so a
test that passes only after some other test ran shows up, and its
order can be replayed.
"""

from __future__ import annotations

import multiprocessing
import random

import numpy as np
import pytest

from repro.md.dataset import FrameDataset, generate_dataset


def _shuffle_seed(value: str) -> int:
    if value == "random":
        return random.SystemRandom().randrange(2**32)
    return int(value)  # argparse reports a ValueError as a usage error


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle",
        metavar="SEED",
        type=_shuffle_seed,
        default=None,
        help=(
            "run the collected tests in an order shuffled under SEED "
            "(an integer, or 'random' to draw one); the seed is printed"
        ),
    )


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle")
    if seed is None:
        return
    random.Random(seed).shuffle(items)
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(f"test order shuffled: --shuffle {seed}")


@pytest.fixture(autouse=True)
def _reap_pool_workers():
    """Kill pool worker processes a test leaked.

    A test that lets a ``ProcessPoolBackend`` fall out of scope without
    ``close()`` (or dies mid-assertion) leaves live ``repro-pool-*``
    children behind; they hold the test session open at exit and skew
    any later test that counts live processes.  Reap them in teardown
    so every test starts from a quiet process table.
    """
    yield
    for child in multiprocessing.active_children():
        if (child.name or "").startswith("repro-pool-"):
            child.kill()
            child.join(timeout=5)


@pytest.fixture(scope="session")
def small_dataset() -> FrameDataset:
    """A 20-atom molten-salt dataset: ~30 frames, fast to train on."""
    return generate_dataset(
        n_frames=32,
        n_alcl3=4,
        n_kcl=2,
        equilibration_steps=60,
        sample_interval=4,
        rng=1234,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
