"""Tests for the shared plumbing: RNG handling, the LEAP-style context,
exceptions, and the high-level MD simulation driver."""

import pickle

import numpy as np
import pytest

from repro.context import Context, context as global_context
from repro.exceptions import (
    EvaluationError,
    ReproError,
    TrainingTimeoutError,
    WorkerFailure,
    WorkerRevoked,
)
from repro.md.simulation import MDSimulation
from repro.md.system import molten_salt_potential, molten_salt_system
from repro.rng import (
    ensure_rng,
    seeds_for_runs,
    shuffled_indices,
    spawn,
    split_indices,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seeds_deterministically(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(7)
        assert isinstance(ensure_rng(ss), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestSpawnAndSeeds:
    def test_spawn_children_independent(self):
        children = spawn(0, 3)
        streams = [c.random(100) for c in children]
        assert not np.array_equal(streams[0], streams[1])
        assert not np.array_equal(streams[1], streams[2])

    def test_seeds_for_runs_deterministic(self):
        assert seeds_for_runs(5, 4) == seeds_for_runs(5, 4)

    def test_seeds_for_runs_distinct(self):
        seeds = seeds_for_runs(5, 10)
        assert len(set(seeds)) == 10

    def test_different_base_different_seeds(self):
        assert seeds_for_runs(1, 3) != seeds_for_runs(2, 3)


class TestSplitIndices:
    def test_partition_complete(self):
        parts = split_indices(100, [0.25], rng=0)
        assert len(parts) == 2
        assert len(parts[0]) == 25
        assert len(parts[1]) == 75
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(100))

    def test_fractions_summing_to_one(self):
        parts = split_indices(10, [0.5, 0.5], rng=0)
        assert len(parts) == 2
        assert len(parts[0]) + len(parts[1]) == 10

    def test_oversubscribed_fractions_raise(self):
        with pytest.raises(ValueError):
            split_indices(10, [0.8, 0.5])

    def test_negative_fraction_raises(self):
        with pytest.raises(ValueError):
            split_indices(10, [-0.1])

    def test_shuffled(self):
        parts = split_indices(50, [0.5], rng=0)
        assert not np.array_equal(parts[0], np.arange(25))

    def test_shuffled_indices_is_permutation(self):
        idx = shuffled_indices(20, rng=1)
        assert np.array_equal(np.sort(idx), np.arange(20))


class TestContext:
    def test_mapping_interface(self):
        ctx = Context(a=1)
        ctx["b"] = 2
        assert ctx["a"] == 1
        assert len(ctx) == 2
        assert set(iter(ctx)) == {"a", "b"}
        del ctx["a"]
        assert "a" not in ctx

    def test_snapshot_restore(self):
        ctx = Context(std=1.0)
        snap = ctx.snapshot()
        ctx["std"] = 0.5
        ctx.restore(snap)
        assert ctx["std"] == 1.0

    def test_reset(self):
        ctx = Context(x=1)
        ctx.reset()
        assert len(ctx) == 0

    def test_module_level_context_exists(self):
        assert isinstance(global_context, Context)

    def test_instances_isolated(self):
        a, b = Context(), Context()
        a["k"] = 1
        assert "k" not in b


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(TrainingTimeoutError, EvaluationError)
        assert issubclass(EvaluationError, ReproError)
        assert issubclass(WorkerFailure, ReproError)

    def test_timeout_carries_values(self):
        exc = TrainingTimeoutError(elapsed=130.0, limit=120.0)
        assert exc.elapsed == 130.0
        assert exc.limit == 120.0
        assert "130.0" in str(exc)

    def test_worker_failure_message(self):
        exc = WorkerFailure("node-007", "died")
        assert exc.worker == "node-007"
        assert "node-007" in str(exc)

    @pytest.mark.parametrize(
        "exc",
        [
            TrainingTimeoutError(7300.0, 7200.0),
            WorkerFailure("w0", "boom"),
            WorkerRevoked("w0", "boom"),
            WorkerFailure("w0"),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_survives_a_pickle_round_trip(self, exc):
        """The pool ships these across a pipe: type, message, fields
        and attached metadata all come back."""
        exc.metadata = {"runtime_minutes": 121.7}
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.__dict__ == exc.__dict__


class TestMDSimulation:
    @pytest.fixture(scope="class")
    def sim(self):
        system = molten_salt_system(4, 2, rng=0)
        potential = molten_salt_potential(
            cutoff=0.99 * system.cell.max_cutoff()
        )
        return MDSimulation(
            system, potential, temperature=498.0, dt=2.0, rng=1
        )

    def test_equilibrate_advances_state(self, sim):
        before = sim.system.positions.copy()
        sim.equilibrate(20)
        assert not np.allclose(before, sim.system.positions)

    def test_sample_trajectory_count_and_shape(self, sim):
        traj = sim.sample_trajectory(n_frames=5, sample_interval=4)
        assert len(traj) == 5
        frame = traj[0]
        assert frame.positions.shape == (20, 3)
        assert frame.forces.shape == (20, 3)
        assert np.isfinite(frame.energy)

    def test_observables_recorded(self, sim):
        n_before = len(sim.observables.potential_energy)
        sim.sample_trajectory(n_frames=2, sample_interval=3)
        obs = sim.observables.as_arrays()
        assert len(obs["potential_energy"]) == n_before + 6
        assert len(obs["temperature"]) == len(obs["potential_energy"])
        assert np.all(obs["temperature"] > 0.0)

    def test_frames_carry_wrapped_positions(self, sim):
        traj = sim.sample_trajectory(n_frames=2, sample_interval=2)
        L = sim.system.cell.lengths
        for frame in traj:
            assert np.all(frame.positions >= 0.0)
            assert np.all(frame.positions < L + 1e-9)
