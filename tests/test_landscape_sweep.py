"""The surrogate's sweep against the per-slot, per-gene sweep it replaced.

Every outcome slot of ``SurrogateDeepMDProblem`` — fitness bytes,
runtime minutes, exception type and message, metadata — and its
``evaluations`` / ``failures`` counts must equal those of
``tests/landscape_reference.py``, for whole mixed batches and for each
phenome evaluated alone: valid phenomes, every failure code, unknown
worker scalings and ``n_workers=0``, missing genes, non-numeric and
special float genes, int-valued genes, float subclasses and extra keys.

``NASSurrogateProblem`` runs on the same sweep through its capacity
hook: a mixed batch must equal each slot evaluated alone, its failures
must be the base problem's on the same phenome, its means the base
means plus ``capacity_terms``, and its noise the base noise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpo.landscape import LandscapeCalibration, SurrogateDeepMDProblem
from repro.hpo.nas import NASCalibration, NASSurrogateProblem
from tests import landscape_reference as reference

ACTIVATIONS = ["tanh", "relu", "relu6", "sigmoid", "softplus", "gelu"]
FLOAT_GENES = ("rcut", "rcut_smth", "start_lr", "stop_lr")

#: background failures everywhere (code 1); a risky band that always
#: fails (code 3); or neither, so the deterministic codes show
ALWAYS_BACKGROUND = LandscapeCalibration(background_failure_rate=1.0)
ALWAYS_RISKY = LandscapeCalibration(
    background_failure_rate=0.0, lr_risky_failure_rate=1.0
)
NEVER_RANDOM = LandscapeCalibration(
    background_failure_rate=0.0, lr_risky_failure_rate=0.0
)


def _is_finite(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def _edit(draw, p: dict) -> None:
    """One way for a phenome to leave the decoder's happy path."""
    kind = draw(
        st.sampled_from(
            [
                "valid",
                "unknown_scheme",
                "non_positive",
                "risky",
                "diverging",
                "smth_over_rcut",
                "int_gene",
                "float_subclass",
                "special_float",
                "non_numeric",
                "missing",
                "extra",
            ]
        )
    )
    if kind == "unknown_scheme":
        p["scale_by_worker"] = draw(st.sampled_from(["cubic", "", 3, None, True]))
    elif kind == "non_positive":
        p[draw(st.sampled_from(["start_lr", "stop_lr"]))] = draw(
            st.sampled_from([0.0, -0.0, -1e-3])
        )
    elif kind == "risky":
        p["scale_by_worker"] = "none"
        p["start_lr"] = draw(st.floats(0.0301, 0.08))
    elif kind == "diverging":
        p["scale_by_worker"] = "none"
        p["start_lr"] = draw(st.floats(0.081, 2.0))
    elif kind == "smth_over_rcut" and _is_finite(p.get("rcut")):
        p["rcut_smth"] = p["rcut"] + draw(st.sampled_from([0.0, 0.5]))
    elif kind == "int_gene":
        name = draw(st.sampled_from(FLOAT_GENES))
        if _is_finite(p.get(name)):
            p[name] = int(round(p[name])) or 1
    elif kind == "float_subclass":
        name = draw(st.sampled_from(FLOAT_GENES))
        if isinstance(p.get(name), float):
            p[name] = np.float64(p[name])
    elif kind == "special_float":
        p[draw(st.sampled_from(FLOAT_GENES))] = draw(
            st.sampled_from([float("nan"), float("inf"), -float("inf")])
        )
    elif kind == "non_numeric":
        p[draw(st.sampled_from(FLOAT_GENES))] = draw(
            st.sampled_from(["abc", "", "7.5", None])
        )
    elif kind == "missing":
        del p[draw(st.sampled_from(sorted(p)))]
    elif kind == "extra":
        p[draw(st.sampled_from(["note", "a_first", "zz_last"]))] = draw(
            st.sampled_from(["x", 5, 1.5, None])
        )


@st.composite
def phenomes(draw):
    p = {
        "rcut": draw(st.floats(3.0, 13.0)),
        "rcut_smth": draw(st.floats(0.5, 14.0)),
        "start_lr": 10.0 ** draw(st.floats(-5.0, -0.5)),
        "stop_lr": 10.0 ** draw(st.floats(-9.0, -3.0)),
        "fitting_activ_func": draw(st.sampled_from(ACTIVATIONS)),
        "desc_activ_func": draw(st.sampled_from(ACTIVATIONS)),
        "scale_by_worker": draw(st.sampled_from(["linear", "sqrt", "none"])),
    }
    for _ in range(draw(st.integers(0, 2))):
        _edit(draw, p)
    return p


problem_args = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**70),
        "n_workers": st.sampled_from([6, 4, 1, 0]),
        "simulate_runtime": st.booleans(),
        "calibration": st.sampled_from(
            [
                LandscapeCalibration(),
                ALWAYS_BACKGROUND,
                ALWAYS_RISKY,
                NEVER_RANDOM,
            ]
        ),
    }
)


def assert_same_slot(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, BaseException):
        assert got.args == expected.args
        assert repr(getattr(got, "metadata", None)) == repr(
            getattr(expected, "metadata", None)
        )
        return
    fitness, metadata = got
    assert fitness.dtype == expected[0].dtype
    assert fitness.shape == expected[0].shape
    assert fitness.tobytes() == expected[0].tobytes()
    # repr: float-exact, and nan compares equal to nan
    assert repr(metadata) == repr(expected[1])


def assert_same_counts(problem, oracle):
    assert (problem.evaluations, problem.failures) == (
        oracle.evaluations,
        oracle.failures,
    )


def check_against_reference(args, batch):
    problem = SurrogateDeepMDProblem(**args)
    oracle = SurrogateDeepMDProblem(**args)
    got = problem.evaluate_batch_with_metadata(batch)
    # each slot's own outcome: a gene that does not convert fails its
    # slot, where the reference fails the slot's whole key group
    expected = [reference.evaluate_batch(oracle, [p])[0] for p in batch]
    assert len(got) == len(expected)
    for slot, want in zip(got, expected):
        assert_same_slot(slot, want)
    assert_same_counts(problem, oracle)
    scalar = SurrogateDeepMDProblem(**args)
    for phenome in batch:
        (want,) = reference.evaluate_batch(oracle, [phenome])
        (slot,) = problem.evaluate_batch_with_metadata([phenome])
        assert_same_slot(slot, want)
        try:
            outcome = scalar.evaluate_with_metadata(phenome)
        except Exception as exc:  # noqa: BLE001 - the slot's exception
            outcome = exc
        assert_same_slot(outcome, want)
    assert_same_counts(problem, oracle)
    return expected


class TestSameSlotsAsTheReferenceSweep:
    @settings(max_examples=300, deadline=None)
    @given(problem_args, st.lists(phenomes(), min_size=1, max_size=12))
    def test_mixed_batches_and_single_slots(self, args, batch):
        check_against_reference(args, batch)

    @pytest.mark.parametrize("seed", [0, 7, 2023])
    def test_a_population_of_decoded_phenomes(self, seed):
        from repro.hpo.representation import DeepMDRepresentation

        rng = np.random.default_rng(seed)
        ranges = DeepMDRepresentation.init_ranges
        decoder = DeepMDRepresentation.decoder()
        batch = [
            decoder.decode(g)
            for g in rng.uniform(ranges[:, 0], ranges[:, 1], (300, len(ranges)))
        ]
        expected = check_against_reference({"seed": seed}, batch)
        assert any(isinstance(s, BaseException) for s in expected)
        assert any(isinstance(s, tuple) for s in expected)

    def test_every_failure_code(self):
        ok = {
            "rcut": 8.5,
            "rcut_smth": 2.0,
            "start_lr": 1e-3,
            "stop_lr": 1e-6,
            "fitting_activ_func": "tanh",
            "desc_activ_func": "tanh",
            "scale_by_worker": "none",
        }
        codes = {
            "unknown worker scaling": {**ok, "scale_by_worker": "cubic"},
            "descriptor undefined": {**ok, "rcut_smth": 8.5},
            "non-positive learning rate": {**ok, "stop_lr": 0.0},
            "diverges": {**ok, "start_lr": 0.5},
        }
        batch = [ok, *codes.values()]
        expected = check_against_reference({"calibration": NEVER_RANDOM}, batch)
        assert isinstance(expected[0], tuple)
        for message, slot in zip(codes, expected[1:]):
            assert message in str(slot)
        (spurious,) = check_against_reference(
            {"calibration": ALWAYS_BACKGROUND}, [ok]
        )
        assert "spurious" in str(spurious)
        (risky,) = check_against_reference(
            {"calibration": ALWAYS_RISKY}, [{**ok, "start_lr": 0.05}]
        )
        assert "unstable band" in str(risky)
        (no_workers,) = check_against_reference({"n_workers": 0}, [ok])
        assert "n_workers must be >= 1" in str(no_workers)
        (missing,) = check_against_reference(
            {}, [{k: v for k, v in ok.items() if k != "rcut"}]
        )
        assert isinstance(missing, KeyError)
        (bad_float,) = check_against_reference({}, [{**ok, "rcut": "abc"}])
        assert isinstance(bad_float, TypeError)

    @pytest.mark.parametrize(
        "bad", [{"rcut": "abc"}, {"scale_by_worker": ["none"]}]
    )
    def test_a_bad_gene_fails_its_own_slot(self, bad):
        """A gene that does not convert to a float, or does not hash,
        fails its slot alone: the good slot beside it trains as it does
        on its own."""
        ok = {
            "rcut": 8.5,
            "rcut_smth": 2.0,
            "start_lr": 1e-3,
            "stop_lr": 1e-6,
            "fitting_activ_func": "tanh",
            "desc_activ_func": "tanh",
            "scale_by_worker": "none",
        }
        problem = SurrogateDeepMDProblem()
        good, failed = problem.evaluate_batch_with_metadata([ok, {**ok, **bad}])
        assert_same_slot(
            good, SurrogateDeepMDProblem().evaluate_batch_with_metadata([ok])[0]
        )
        assert isinstance(failed, TypeError)
        assert problem.evaluations == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"stop_lr": math.inf},
            {"stop_lr": math.nan},
            {"rcut": math.inf},
            {"rcut_smth": math.nan},
        ],
    )
    def test_a_non_finite_gene_fails_its_own_slot(self, bad):
        """A non-finite float gene fails its slot, as a non-positive
        rate does, instead of training to an infinite or nan fitness;
        the good slot beside it trains as it does on its own."""
        ok = {
            "rcut": 3.0,
            "rcut_smth": 1.0,
            "start_lr": 0.01,
            "stop_lr": 1e-5,
            "fitting_activ_func": "tanh",
            "desc_activ_func": "tanh",
            "scale_by_worker": "none",
        }
        args = {"calibration": NEVER_RANDOM}
        good, failed = SurrogateDeepMDProblem(
            **args
        ).evaluate_batch_with_metadata([ok, {**ok, **bad}])
        assert_same_slot(
            good,
            SurrogateDeepMDProblem(**args).evaluate_batch_with_metadata([ok])[0],
        )
        assert "non-finite gene" in str(failed)
        assert failed.metadata["failed"] is True
        check_against_reference(args, [ok, {**ok, **bad}])


# ----------------------------------------------------------------------
# NAS: the base sweep plus the capacity hook
# ----------------------------------------------------------------------
ARCH_GENES = ("embedding_depth", "embedding_width", "fitting_depth", "fitting_width")
NO_CAPACITY = NASCalibration(
    underfit_force_gain=0.0,
    underfit_energy_gain=0.0,
    overfit_force_gain=0.0,
    runtime_per_kparam_minutes=0.0,
)


@st.composite
def nas_phenomes(draw):
    p = draw(phenomes())
    p["embedding_depth"] = draw(st.integers(1, 3))
    p["embedding_width"] = draw(st.integers(4, 32))
    p["fitting_depth"] = draw(st.integers(1, 3))
    p["fitting_width"] = draw(st.integers(8, 64))
    if draw(st.integers(0, 9)) == 0:
        del p[draw(st.sampled_from(ARCH_GENES))]
    return p


def evaluate_slot(problem, phenome):
    (slot,) = problem.evaluate_batch_with_metadata([phenome])
    try:
        outcome = problem.evaluate_with_metadata(phenome)
    except Exception as exc:  # noqa: BLE001 - the slot's exception
        outcome = exc
    assert_same_slot(outcome, slot)
    return slot


class TestNASOnTheSweep:
    @settings(max_examples=150, deadline=None)
    @given(problem_args, st.lists(nas_phenomes(), min_size=1, max_size=12))
    def test_a_mixed_batch_is_each_slot_alone(self, args, batch):
        problem = NASSurrogateProblem(**args)
        got = problem.evaluate_batch_with_metadata(batch)
        alone = NASSurrogateProblem(**args)
        for slot, phenome in zip(got, batch):
            assert_same_slot(slot, evaluate_slot(alone, phenome))
        # alone evaluated every phenome twice
        assert problem.evaluations == len(batch)
        assert (2 * problem.evaluations, 2 * problem.failures) == (
            alone.evaluations,
            alone.failures,
        )

    @settings(max_examples=150, deadline=None)
    @given(problem_args, st.lists(nas_phenomes(), min_size=1, max_size=12))
    def test_the_base_sweep_plus_capacity(self, args, batch):
        """Without capacity terms NAS is the base problem slot for slot;
        with them a trained slot is the base mean plus the penalties,
        times the base noise, and its runtime the base runtime plus the
        extra, and a failed slot is the base problem's."""
        nas = NASSurrogateProblem(**args)
        got = nas.evaluate_batch_with_metadata(batch)
        flat = NASSurrogateProblem(
            nas_calibration=NO_CAPACITY, **args
        ).evaluate_batch_with_metadata(batch)
        base = SurrogateDeepMDProblem(**args)
        expected = base.evaluate_batch_with_metadata(batch)
        for phenome, slot, flat_slot, base_slot in zip(
            batch, got, flat, expected
        ):
            if any(name not in phenome for name in ARCH_GENES):
                assert isinstance(slot, KeyError)
                continue
            assert_same_slot(flat_slot, base_slot)
            if isinstance(base_slot, BaseException):
                assert_same_slot(slot, base_slot)
                continue
            force_pen, energy_pen, extra = nas.capacity_terms(phenome)
            energy, force = base.mean_objectives(phenome)
            close = dict(rel=1e-12, nan_ok=True)
            assert slot[0][0] / base_slot[0][0] == pytest.approx(
                (energy + energy_pen) / energy, **close
            )
            assert slot[0][1] / base_slot[0][1] == pytest.approx(
                (force + force_pen) / force, **close
            )
            if args["simulate_runtime"]:
                assert slot[1]["runtime_minutes"] == pytest.approx(
                    base_slot[1]["runtime_minutes"] + extra, **close
                )

    @settings(max_examples=200, deadline=None)
    @given(nas_phenomes())
    def test_mean_objectives_is_the_base_plus_capacity(self, phenome):
        nas = NASSurrogateProblem()
        base = SurrogateDeepMDProblem()
        if any(name not in phenome for name in ARCH_GENES):
            with pytest.raises(KeyError):
                nas.mean_objectives(phenome)
            return
        try:
            energy, force = base.mean_objectives(phenome)
        except Exception as exc:  # noqa: BLE001 - NAS raises the same
            with pytest.raises(type(exc)) as raised:
                nas.mean_objectives(phenome)
            assert raised.value.args == exc.args
            return
        force_pen, energy_pen, _ = nas.capacity_terms(phenome)
        # repr: float-exact, and nan compares equal to nan
        assert repr(nas.mean_objectives(phenome)) == repr(
            (energy + energy_pen, force + force_pen)
        )
