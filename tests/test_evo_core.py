"""Tests for individuals, decoders, problems, and pipeline operators."""

import numpy as np
import pytest

from repro.engine import EvaluationEngine
from repro.evo.decoder import (
    FloorModDecoder,
    IdentityDecoder,
    MixedVectorDecoder,
    floor_mod_choice,
)
from repro.evo.individual import MAXINT, Individual, RobustIndividual
from repro.evo.ops import (
    clone,
    evaluate,
    mutate_gaussian,
    pipe,
    pool,
    random_selection,
    tournament_selection,
    truncation_selection,
)
from repro.evo.problem import ConstantProblem, FunctionProblem
from repro.exceptions import DecodeError


class TestIndividual:
    def test_genome_copied(self):
        g = np.array([1.0, 2.0])
        ind = Individual(g)
        g[0] = 99.0
        assert ind.genome[0] == 1.0

    def test_uuid_assigned_and_unique(self):
        a, b = Individual([1.0]), Individual([1.0])
        assert a.uuid != b.uuid
        assert len(a.uuid) == 36

    def test_decode_without_decoder_is_genome(self):
        ind = Individual([1.0, 2.0])
        assert np.array_equal(ind.decode(), ind.genome)

    def test_evaluate_requires_problem(self):
        with pytest.raises(ValueError):
            Individual([1.0]).evaluate()

    def test_evaluate_sets_fitness_array(self):
        ind = Individual([2.0], problem=FunctionProblem(lambda x: x[0] ** 2))
        ind.evaluate()
        assert ind.fitness.shape == (1,)
        assert ind.fitness[0] == 4.0

    def test_clone_unevaluated_new_uuid(self):
        ind = Individual([1.0], problem=ConstantProblem())
        ind.evaluate()
        child = ind.clone()
        assert child.fitness is None
        assert child.uuid != ind.uuid
        assert np.array_equal(child.genome, ind.genome)

    def test_clone_genome_independent(self):
        ind = Individual([1.0])
        child = ind.clone()
        child.genome[0] = 5.0
        assert ind.genome[0] == 1.0

    def test_is_viable(self):
        ind = Individual([1.0], problem=ConstantProblem([1.0, 2.0]))
        assert not ind.is_viable  # unevaluated
        ind.evaluate()
        assert ind.is_viable

    def test_metadata_from_problem(self):
        class MetaProblem(ConstantProblem):
            def evaluate_with_metadata(self, phenome, uuid=None):
                return self.evaluate(phenome), {"runtime_minutes": 3.0}

        ind = Individual([1.0], problem=MetaProblem())
        ind.evaluate()
        assert ind.metadata["runtime_minutes"] == 3.0


class TestRobustIndividual:
    def _failing_problem(self):
        def boom(phenome):
            raise RuntimeError("training failed")

        return FunctionProblem(boom, n_objectives=2)

    def test_failure_becomes_maxint(self):
        ind = RobustIndividual([1.0], problem=self._failing_problem())
        ind.n_objectives = 2
        ind.evaluate()
        assert np.all(ind.fitness == MAXINT)

    def test_failure_records_error(self):
        ind = RobustIndividual([1.0], problem=self._failing_problem())
        ind.n_objectives = 2
        ind.evaluate()
        assert "RuntimeError" in ind.metadata["error"]

    def test_failure_not_viable(self):
        ind = RobustIndividual([1.0], problem=self._failing_problem())
        ind.n_objectives = 2
        ind.evaluate()
        assert not ind.is_viable

    def test_success_passes_through(self):
        ind = RobustIndividual([1.0], problem=ConstantProblem([0.5, 0.6]))
        ind.evaluate()
        assert np.allclose(ind.fitness, [0.5, 0.6])
        assert ind.is_viable

    def test_exception_metadata_preserved(self):
        def boom(phenome):
            exc = RuntimeError("died")
            exc.metadata = {"runtime_minutes": 1.5}
            raise exc

        ind = RobustIndividual([1.0], problem=FunctionProblem(boom, 2))
        ind.n_objectives = 2
        ind.evaluate()
        assert ind.metadata["runtime_minutes"] == 1.5

    def test_maxint_is_finite(self):
        # the entire point vs NaN: MAXINT sorts deterministically
        assert np.isfinite(MAXINT)
        assert MAXINT > 1e18


class TestFloorModDecoding:
    def test_paper_example(self):
        # §2.2.2: gene 5.78 over 3 choices -> floor(5.78) % 3 == 2 -> "none"
        assert (
            floor_mod_choice(5.78, ["linear", "sqrt", "none"]) == "none"
        )

    def test_zero_maps_to_first(self):
        assert floor_mod_choice(0.0, ["a", "b"]) == "a"

    def test_wraps_past_length(self):
        assert floor_mod_choice(7.2, ["a", "b", "c"]) == "b"

    def test_negative_values_stay_in_range(self):
        assert floor_mod_choice(-0.5, ["a", "b", "c"]) == "c"

    def test_non_finite_raises(self):
        with pytest.raises(DecodeError):
            floor_mod_choice(float("nan"), ["a"])

    def test_empty_choices_raise(self):
        with pytest.raises(DecodeError):
            floor_mod_choice(1.0, [])

    def test_floor_mod_decoder(self):
        dec = FloorModDecoder([["a", "b"], ["x", "y", "z"]])
        assert dec.decode(np.array([1.5, 5.0])) == ("b", "z")

    def test_floor_mod_decoder_length_mismatch(self):
        dec = FloorModDecoder([["a", "b"]])
        with pytest.raises(DecodeError):
            dec.decode(np.array([1.0, 2.0]))

    def test_identity_decoder(self):
        g = np.array([1.0, 2.0])
        assert np.array_equal(IdentityDecoder().decode(g), g)


class TestMixedVectorDecoder:
    def _decoder(self):
        return MixedVectorDecoder(
            [("lr", None), ("act", ["relu", "tanh"])]
        )

    def test_decodes_dict(self):
        phenome = self._decoder().decode(np.array([0.01, 3.0]))
        assert phenome == {"lr": 0.01, "act": "tanh"}

    def test_real_gene_passthrough(self):
        phenome = self._decoder().decode(np.array([123.456, 0.0]))
        assert phenome["lr"] == pytest.approx(123.456)

    def test_length_mismatch_raises(self):
        with pytest.raises(DecodeError):
            self._decoder().decode(np.array([1.0]))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DecodeError):
            MixedVectorDecoder([("a", None), ("a", None)])

    def test_empty_spec_rejected(self):
        with pytest.raises(DecodeError):
            MixedVectorDecoder([])

    def test_len(self):
        assert len(self._decoder()) == 2


class TestPipelineOps:
    def _population(self, n=10):
        pop = []
        for i in range(n):
            ind = Individual([float(i)], problem=ConstantProblem([float(i)]))
            ind.evaluate()
            pop.append(ind)
        return pop

    def test_pipe_threads_value(self):
        assert pipe(2, lambda x: x + 1, lambda x: x * 3) == 9

    def test_random_selection_uniform_coverage(self):
        pop = self._population(5)
        stream = random_selection(pop, rng=0)
        picks = [next(stream) for _ in range(500)]
        picked_ids = {id(p) for p in picks}
        assert picked_ids == {id(p) for p in pop}

    def test_random_selection_empty_raises(self):
        with pytest.raises(ValueError):
            next(random_selection([], rng=0))

    def test_clone_fresh_copies(self):
        pop = self._population(3)
        clones = list(clone(iter(pop)))
        assert all(c.fitness is None for c in clones)
        assert all(c.uuid != p.uuid for c, p in zip(clones, pop))

    def test_mutate_gaussian_changes_genome(self):
        pop = self._population(5)
        op = mutate_gaussian(std=1.0, rng=0)
        mutated = list(op(clone(iter(pop))))
        for m, p in zip(mutated, pop):
            assert not np.array_equal(m.genome, p.genome)

    def test_mutate_gaussian_respects_bounds(self):
        pop = self._population(20)
        bounds = np.array([[0.0, 10.0]])
        op = mutate_gaussian(std=100.0, hard_bounds=bounds, rng=0)
        mutated = list(op(clone(iter(pop))))
        for m in mutated:
            assert 0.0 <= m.genome[0] <= 10.0

    def test_mutate_gaussian_per_gene_std(self):
        rng = np.random.default_rng(0)
        inds = [Individual(np.zeros(2)) for _ in range(400)]
        op = mutate_gaussian(std=np.array([0.1, 10.0]), rng=rng)
        mutated = list(op(iter(inds)))
        g = np.array([m.genome for m in mutated])
        assert g[:, 0].std() < 1.0 < g[:, 1].std()

    def test_mutate_gaussian_isotropic_mutates_all_genes(self):
        ind = Individual(np.zeros(50))
        op = mutate_gaussian(std=1.0, rng=0)
        (m,) = list(op(iter([ind])))
        assert np.all(m.genome != 0.0)

    def test_mutate_gaussian_expected_num_mutations(self):
        inds = [Individual(np.zeros(100)) for _ in range(50)]
        op = mutate_gaussian(std=1.0, expected_num_mutations=1.0, rng=0)
        mutated = list(op(iter(inds)))
        rates = [np.count_nonzero(m.genome) for m in mutated]
        assert 0.2 < np.mean(rates) < 5.0

    def test_mutate_resets_fitness(self):
        pop = self._population(2)
        op = mutate_gaussian(std=0.1, rng=0)
        mutated = list(op(iter(pop)))
        assert all(m.fitness is None for m in mutated)

    def test_pool_collects_exact_count(self):
        pop = self._population(10)
        out = pool(4)(iter(pop))
        assert len(out) == 4

    def test_pool_exhausted_raises(self):
        pop = self._population(2)
        with pytest.raises(ValueError, match="exhausted"):
            pool(5)(iter(pop))

    def test_pool_invalid_size(self):
        with pytest.raises(ValueError):
            pool(0)

    def test_evaluate_op(self):
        inds = [Individual([2.0], problem=ConstantProblem([7.0]))]
        out = list(evaluate(iter(inds)))
        assert out[0].fitness[0] == 7.0

    def test_pooled_offspring_evaluate_inline(self):
        pop = self._population(6)
        offspring = pool(6)(clone(iter(pop)))
        out = EvaluationEngine().evaluate(offspring)
        assert len(out) == 6
        assert all(o.is_evaluated for o in out)

    def test_pooled_offspring_evaluate_on_a_pool(self):
        from repro.engine import ProcessPoolBackend

        pop = self._population(8)
        offspring = pool(8)(clone(iter(pop)))
        with ProcessPoolBackend(workers=2) as backend:
            out = EvaluationEngine(client=backend).evaluate(offspring)
        assert len(out) == 8
        assert all(o.is_evaluated for o in out)

    def test_truncation_selection_minimizes_by_default(self):
        pop = self._population(10)
        best = truncation_selection(size=3)(pop)
        assert [b.fitness[0] for b in best] == [0.0, 1.0, 2.0]

    def test_truncation_selection_custom_key(self):
        pop = self._population(10)
        worst = truncation_selection(
            size=2, key=lambda ind: float(ind.fitness[0])
        )(pop)
        assert {w.fitness[0] for w in worst} == {9.0, 8.0}

    def test_truncation_selection_too_small_raises(self):
        with pytest.raises(ValueError):
            truncation_selection(size=5)(self._population(3))

    def test_tournament_selection_prefers_better(self):
        pop = self._population(10)
        stream = tournament_selection(pop, rng=0, k=3)
        picks = [next(stream).fitness[0] for _ in range(300)]
        # strong selection pressure toward low fitness
        assert np.mean(picks) < 3.5

    def test_tournament_empty_raises(self):
        with pytest.raises(ValueError):
            next(tournament_selection([], rng=0))
