"""The trainer's fast data plane against the references it replaced.

Four things changed under ``DeepPotModel`` and have to be shown to
change nothing else (DESIGN.md §10):

* reverse mode is demand-driven — checked bit for bit against a
  propagate-everything pass kept here;
* the environment matrix and its derivative are closed-form NumPy,
  applied by one linear tape node — checked against the taped
  ``SmoothDescriptor.environment_matrix``, which no runtime code calls
  any more, and against finite differences of the energy;
* tanh / sigmoid / softplus have a fused derivative node — checked by
  finite differences up to the third order;
* a training's neighbour tables are truncated from a per-process plane
  — checked by whole evaluations against ones that built their own;
* the trainer pins glibc's allocator thresholds at its entry — checked
  by whole evaluations against a process without the policy, and by
  the page faults a process's third training takes;
* a training holds one graph at a time — checked by what a backward
  pass returns, by weak references to each step's loss, and by whole
  evaluations against digests pinned before the change.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import functional as F
from repro.autodiff.gradcheck import check_gradients
from repro.autodiff.tensor import Tensor, _backprop, _toposort, grad, no_grad
from repro.deepmd import data, training
from repro.deepmd.data import DescriptorBatch, prepare_batches
from repro.deepmd.descriptor import DescriptorConfig, SmoothDescriptor
from repro.deepmd.model import DeepPotModel, ModelConfig, displacement_gradient
from repro.deepmd.training import Trainer, TrainingConfig
from repro.hpo.evaluator import DeepMDProblem, EvaluatorSettings
from repro.md.dataset import Frame
from repro.nn.activations import ACTIVATION_NAMES
from repro.nn.loss import EnergyForceLoss
from repro.nn.lr_schedule import ExponentialDecay
from repro.obs.trace import Tracer


# ----------------------------------------------------------------------
# 1. demand-driven reverse mode == propagate everything, bit for bit
# ----------------------------------------------------------------------
def propagate_everything(output: Tensor) -> dict[int, Tensor]:
    """The backward pass as it was before pruning: every vjp of every
    node that receives a gradient, accumulated in topological order."""
    grads = {id(output): Tensor(np.ones_like(output.data))}
    with no_grad():
        for node in _toposort(output):
            g = grads.get(id(node))
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                pg = vjp(g)
                if pg is None:
                    continue
                seen = grads.get(id(parent))
                grads[id(parent)] = pg if seen is None else F.add(seen, pg)
    return grads


LEAF_SHAPES = [(2, 3), (2, 3), (3,), (1, 3), ()]
UNARY = [
    F.tanh,
    F.sigmoid,
    F.softplus,
    F.relu,
    F.neg,
    F.exp,
    lambda a: F.mul(a, 2.5),  # a Python-scalar constant operand
    lambda a: F.add(a, -0.75),
    lambda a: F.sum(a, axis=-1, keepdims=True),
    lambda a: F.reshape(F.reshape(a, (-1,)), a.shape),
    lambda a: F.getitem(a, (Ellipsis, slice(0, 2))),
    lambda a: F.concatenate([a, a], axis=-1)[..., : a.shape[-1]],
]
BINARY = [F.add, F.sub, F.mul, F.maximum, lambda a, b: F.div(a, F.add(F.mul(b, b), 1.0))]


@st.composite
def op_dags(draw):
    """A random DAG over mixed constant / ``requires_grad`` leaves,
    reduced to a scalar.  Returns ``(output, leaves, nodes)``."""
    n_leaves = draw(st.integers(2, 4))
    values = draw(
        st.lists(
            st.floats(-2.0, 2.0, allow_nan=False, width=32),
            min_size=6 * n_leaves,
            max_size=6 * n_leaves,
        )
    )
    leaves = []
    for i in range(n_leaves):
        shape = draw(st.sampled_from(LEAF_SHAPES))
        data = np.resize(np.array(values[6 * i : 6 * i + 6]), shape)
        leaves.append(Tensor(data, requires_grad=draw(st.booleans())))
    if not any(leaf.requires_grad for leaf in leaves):
        leaves[0].requires_grad = True
    nodes = list(leaves)
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            op = draw(st.sampled_from(UNARY))
            a = nodes[draw(st.integers(0, len(nodes) - 1))]
            # the last three ops index an axis
            nodes.append(op(a if a.ndim else F.reshape(a, (1,))))
        else:
            op = draw(st.sampled_from(BINARY))
            a = nodes[draw(st.integers(0, len(nodes) - 1))]
            b = nodes[draw(st.integers(0, len(nodes) - 1))]
            if a.shape[-1:] != b.shape[-1:] and a.ndim and b.ndim:
                b = F.sum(b, axis=-1, keepdims=True)
            nodes.append(op(a, b))
    used = draw(
        st.lists(
            st.integers(0, len(nodes) - 1), min_size=1, max_size=3, unique=True
        )
    )
    output = F.sum(nodes[used[0]])
    for i in used[1:]:
        output = F.add(output, F.sum(nodes[i]))
    return output, leaves, nodes


def count_vjp_calls(output: Tensor) -> dict[tuple[int, int], int]:
    """Wrap every vjp under ``output`` with a call counter keyed by
    ``(id(node), parent position)``."""
    calls: dict[tuple[int, int], int] = {}

    def counted(key, vjp):
        def call(g):
            calls[key] = calls.get(key, 0) + 1
            return vjp(g)

        return call

    for node in _toposort(output):
        node._vjps = tuple(
            counted((id(node), i), vjp) for i, vjp in enumerate(node._vjps)
        )
    return calls


class TestDemandDrivenBackprop:
    @settings(max_examples=150, deadline=None)
    @given(op_dags(), st.data())
    def test_pruned_grad_is_the_full_pass_bit_for_bit(self, dag, data):
        output, leaves, nodes = dag
        order = _toposort(output)
        reachable = {id(n) for n in order}
        candidates = [n for n in nodes if id(n) in reachable]
        if not candidates:
            return
        targets = data.draw(
            st.lists(st.sampled_from(candidates), min_size=1, max_size=3)
        )
        oracle = propagate_everything(output)
        calls = count_vjp_calls(output)
        pruned = grad(output, targets)
        for target, g in zip(targets, pruned):
            assert g.data.tobytes() == oracle[id(target)].data.tobytes()

        # exactly the edges between the output and a target were walked
        on_path: dict[int, bool] = {}
        wanted = {id(t) for t in targets}
        for node in reversed(order):
            on_path[id(node)] = id(node) in wanted or any(
                on_path[id(p)] for p in node._parents
            )
        expected = {
            (id(node), i)
            for node in order
            if on_path[id(node)]
            for i, parent in enumerate(node._parents)
            if on_path[id(parent)]
        }
        assert set(calls) == expected
        assert set(calls.values()) <= {1}

    @settings(max_examples=150, deadline=None)
    @given(op_dags())
    def test_backward_fills_exactly_the_leaves_that_require_grad(self, dag):
        output, leaves, nodes = dag
        oracle = propagate_everything(output)
        reachable = {id(n) for n in _toposort(output)}
        calls = count_vjp_calls(output)
        output.backward()
        for node in nodes:
            if node.is_leaf and node.requires_grad and id(node) in reachable:
                assert node.grad.tobytes() == oracle[id(node)].data.tobytes()
            else:
                assert node.grad is None
        # no vjp towards a constant leaf ever ran
        for node in _toposort(output):
            for i, parent in enumerate(node._parents):
                if parent.is_leaf and not parent.requires_grad:
                    assert (id(node), i) not in calls

    @settings(max_examples=150, deadline=None)
    @given(op_dags(), st.data())
    def test_backprop_returns_its_targets_only(self, dag, data):
        """Every other gradient is dropped once its vjps consumed it."""
        output, leaves, nodes = dag
        order = _toposort(output)
        targets = data.draw(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=3)
        )
        oracle = propagate_everything(output)
        seed = Tensor(np.ones_like(output.data))
        table = _backprop(order, seed, iter(targets), create_graph=False)
        assert set(table) == {id(t) for t in targets} & set(oracle)
        for key, g in table.items():
            assert g.data.tobytes() == oracle[key].data.tobytes()

    def test_constant_operand_gradient_is_never_reduced(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        y = F.sum(F.mul(F.add(x, 1.5), 2.5))
        with mock.patch.object(F, "sum", wraps=F.sum) as reduction:
            propagate_everything(y)
            assert reduction.call_count == 2  # one per scalar constant
            reduction.reset_mock()
            y.backward()
            assert reduction.call_count == 0
        assert np.array_equal(x.grad, np.full((4, 3), 2.5))

    def test_unrequested_weight_gradient_is_never_formed(self):
        x = Tensor(np.ones((5, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        y = F.sum(F.tanh(F.matmul(x, w)))
        calls = count_vjp_calls(y)
        matmul_node = next(n for n in _toposort(y) if n.name == "matmul")
        grad(y, [x])
        assert (id(matmul_node), 0) in calls
        assert (id(matmul_node), 1) not in calls


# ----------------------------------------------------------------------
# 2. closed-form geometry + linear node == the composite tape
# ----------------------------------------------------------------------
RCUT, RCUT_SMTH = 4.0, 1.5


def random_padded_batch(seed: int, n_frames=2, n_atoms=5, width=7):
    """Random displacements covering every branch of the switch: inside
    ``rcut_smth``, between the radii, beyond ``rcut``, exactly on both
    radii, and masked (all-zero) slots."""
    rng = np.random.default_rng(seed)
    shape = (n_frames, n_atoms, width)
    direction = rng.normal(size=shape + (3,))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    radius = rng.uniform(0.6, RCUT + 0.8, size=shape)
    disp = direction * radius[..., None]
    disp[:, :, 0] = [RCUT_SMTH, 0.0, 0.0]  # r == rcut_smth exactly
    disp[:, 0, 1] = [0.0, -RCUT, 0.0]  # r == rcut exactly
    disp[:, 1, 1] = [0.0, 0.0, 0.7]  # r < rcut_smth
    disp[:, 2, 1] = [RCUT + 0.5, 0.0, 0.0]  # r > rcut
    mask = (rng.uniform(size=shape) < 0.8).astype(np.float64)
    mask[:, :, :2] = 1.0
    mask[:, :, -1] = 0.0
    disp *= mask[..., None]
    return DescriptorBatch(
        displacements=disp,
        neighbor_indices=rng.integers(0, n_atoms, size=shape),
        mask=mask,
        species=rng.integers(0, 3, size=n_atoms),
        energies=rng.normal(size=n_frames),
        forces=rng.normal(size=(n_frames, n_atoms, 3)),
    )


def small_model(desc="tanh", fit="tanh", rcut=RCUT, rcut_smth=RCUT_SMTH):
    config = ModelConfig(
        descriptor=DescriptorConfig(rcut=rcut, rcut_smth=rcut_smth),
        embedding_widths=(4, 8),
        axis_neurons=3,
        fitting_widths=(8, 8),
        desc_activation=desc,
        fitting_activation=fit,
    )
    return DeepPotModel(config, rng=0)


def composite_energy_and_forces(model, batch, create_graph=False):
    """``DeepPotModel.energy_and_forces`` as it was with the geometry
    on the tape: displacements are the differentiation leaf and the
    switch, ``R~`` and their derivatives are taped primitives."""
    B, N, nn = batch.mask.shape
    disp = Tensor(batch.displacements, requires_grad=True)
    env, _ = SmoothDescriptor(model.config.descriptor).environment_matrix(
        disp, batch.mask
    )
    e_total = F.sum(model.atomic_energies(env, batch), axis=1)
    (g,) = grad(F.sum(e_total), [disp], create_graph=create_graph)
    flat_idx = (
        batch.neighbor_indices + (np.arange(B) * N)[:, None, None]
    ).reshape(-1)
    scattered = F.index_add(
        Tensor(np.zeros((B * N, 3))), flat_idx, F.reshape(g, (B * N * nn, 3))
    )
    forces = F.sub(F.sum(g, axis=2), F.reshape(scattered, (B, N, 3)))
    return e_total, forces


def loss_gradients(energy_and_forces, model, batch):
    """Parameter gradients of the energy+force training loss."""
    loss_fn = EnergyForceLoss(
        ExponentialDecay(start_lr=1e-3, stop_lr=1e-5, total_steps=10),
        n_atoms=batch.n_atoms,
    )
    e, f = energy_and_forces(model, batch, create_graph=True)
    loss = loss_fn(0, e, Tensor(batch.energies), f, Tensor(batch.forces))
    for p in model.parameters:
        p.zero_grad()
    loss.backward()
    return [p.grad.copy() for p in model.parameters]


def ulp_distance(a: np.ndarray, b: np.ndarray) -> int:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    ordered = [
        np.where(v < 0, np.int64(-(2**63)) - v, v)
        for v in (a.view(np.int64), b.view(np.int64))
    ]
    return int(np.max(np.abs(ordered[0] - ordered[1]), initial=0))


class TestFusedGeometry:
    @pytest.mark.parametrize("seed", range(4))
    def test_environment_matrix_within_4_ulp(self, seed):
        batch = random_padded_batch(seed)
        geometry = batch.geometry(RCUT, RCUT_SMTH)
        env, s = SmoothDescriptor(
            DescriptorConfig(rcut=RCUT, rcut_smth=RCUT_SMTH)
        ).environment_matrix(Tensor(batch.displacements), batch.mask)
        assert ulp_distance(geometry.env, env.data) <= 4
        # the switch is 1/r inside, 0 on and beyond rcut and in pads
        assert geometry.env[0, 0, 0, 0] == 1.0 / RCUT_SMTH
        assert np.all(geometry.env[:, 0, 1] == 0.0)
        assert np.all(geometry.env[:, 2, 1] == 0.0)
        assert np.all(geometry.env[batch.mask == 0.0] == 0.0)
        for coeff in (geometry.ds_coeff, geometry.weight, geometry.dw_coeff):
            assert np.all(coeff[batch.mask == 0.0] == 0.0)
            assert np.all(np.isfinite(coeff))

    def test_geometry_is_built_once_per_radii(self):
        batch = random_padded_batch(0)
        first = batch.geometry(RCUT, RCUT_SMTH)
        assert batch.geometry(RCUT, RCUT_SMTH) is first
        assert batch.geometry(RCUT, 1.0) is not first

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "desc,fit",
        [("tanh", "tanh"), ("softplus", "sigmoid"), ("relu6", "relu")],
    )
    def test_forces_and_loss_gradients_match_the_tape(self, seed, desc, fit):
        batch = random_padded_batch(seed)
        model = small_model(desc, fit)
        e_ref, f_ref = composite_energy_and_forces(model, batch)
        e, f = model.energy_and_forces(batch)
        assert np.array_equal(e.data, e_ref.data)
        scale = np.max(np.abs(f_ref.data))
        assert np.max(np.abs(f.data - f_ref.data)) <= 1e-12 * scale
        reference = loss_gradients(composite_energy_and_forces, model, batch)
        fused = loss_gradients(DeepPotModel.energy_and_forces, model, batch)
        for g, g_ref in zip(fused, reference):
            assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))

    def test_paper_sized_cutoffs_match_the_tape(self, small_dataset):
        model = small_model(rcut=8.5, rcut_smth=2.0)
        batch = prepare_batches(small_dataset.train[:2], rcut=8.5, batch_size=2)[0]
        _, f_ref = composite_energy_and_forces(model, batch)
        _, f = model.energy_and_forces(batch)
        scale = np.max(np.abs(f_ref.data))
        assert np.max(np.abs(f.data - f_ref.data)) <= 1e-12 * scale


# ----------------------------------------------------------------------
# 3. the new tape nodes under finite differences, first order and up
# ----------------------------------------------------------------------
def derivative_of(fn, weights):
    """``x -> sum(d fn(x)/dx * weights)``, itself differentiable."""

    def derived(x: Tensor) -> Tensor:
        if not x.requires_grad:
            x = Tensor(x.data, requires_grad=True)
        (g,) = grad(fn(x), [x], create_graph=True)
        return F.sum(F.mul(g, Tensor(weights)))

    return derived


class TestNewTapeNodes:
    def test_linear_geometry_node(self):
        batch = random_padded_batch(5)
        geometry = batch.geometry(RCUT, RCUT_SMTH)
        rng = np.random.default_rng(0)
        g_env = rng.normal(size=batch.mask.shape + (4,))
        w3 = rng.normal(size=batch.mask.shape + (3,))
        w4 = rng.normal(size=g_env.shape)

        def first(g):
            return F.sum(F.mul(displacement_gradient(g, geometry), Tensor(w3)))

        def quadratic(g):
            out = displacement_gradient(g, geometry)
            return F.sum(F.mul(F.mul(out, out), Tensor(w3)))

        check_gradients(first, [g_env])
        check_gradients(quadratic, [g_env])
        # second order runs through the transpose node and back
        check_gradients(derivative_of(quadratic, w4), [g_env])

    def test_linear_node_vjp_is_its_transpose(self):
        batch = random_padded_batch(6)
        geometry = batch.geometry(RCUT, RCUT_SMTH)
        rng = np.random.default_rng(1)
        u = Tensor(rng.normal(size=batch.mask.shape + (4,)), requires_grad=True)
        v = rng.normal(size=batch.mask.shape + (3,))
        out = displacement_gradient(u, geometry)
        (back,) = grad(out, [u], grad_output=v)
        # <L u, v> == <u, L^T v>
        assert np.isclose(np.sum(out.data * v), np.sum(u.data * back.data))

    def test_linear_node_is_the_taped_chain_rule(self):
        batch = random_padded_batch(7)
        geometry = batch.geometry(RCUT, RCUT_SMTH)
        rng = np.random.default_rng(2)
        g_env = rng.normal(size=batch.mask.shape + (4,))
        disp = Tensor(batch.displacements, requires_grad=True)
        env, _ = SmoothDescriptor(
            DescriptorConfig(rcut=RCUT, rcut_smth=RCUT_SMTH)
        ).environment_matrix(disp, batch.mask)
        (taped,) = grad(env, [disp], grad_output=g_env)
        fused = displacement_gradient(Tensor(g_env), geometry)
        scale = np.max(np.abs(taped.data))
        assert np.max(np.abs(fused.data - taped.data)) <= 1e-13 * scale

    @pytest.mark.parametrize("act", [F.tanh, F.sigmoid, F.softplus])
    def test_fused_activation_node(self, act):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4)) * 1.5
        w = [rng.normal(size=x.shape) for _ in range(3)]

        def first(t):
            return F.sum(F.mul(act(t), Tensor(w[0])))

        second = derivative_of(first, w[1])
        third = derivative_of(second, w[2])
        check_gradients(first, [x])
        check_gradients(second, [x])  # the fused node, both vjps
        check_gradients(third, [x])  # the node one order up
        # and the composite tail beyond it
        check_gradients(derivative_of(third, w[0]), [x], rtol=1e-3)

    @pytest.mark.parametrize("act", [F.tanh, F.sigmoid, F.softplus])
    def test_fused_activation_accepts_scalars(self, act):
        x = Tensor(0.3, requires_grad=True)
        (g,) = grad(act(x), [x], create_graph=True)
        (gg,) = grad(g, [x])
        assert g.shape == () and np.isfinite(gg.data)


# ----------------------------------------------------------------------
# 4. forces against central differences of the energy, 5 x 5 activations
# ----------------------------------------------------------------------
class TestForcesAreEnergyGradients:
    @pytest.mark.parametrize("fit", ACTIVATION_NAMES)
    @pytest.mark.parametrize("desc", ACTIVATION_NAMES)
    def test_forces_match_finite_differences(self, small_dataset, desc, fit):
        frame = small_dataset.train[0]
        model = small_model(desc, fit)

        def energy_at(positions):
            moved = Frame(
                positions=positions,
                species=frame.species,
                energy=0.0,
                forces=frame.forces,
                box=frame.box,
            )
            batch = prepare_batches([moved], rcut=RCUT, batch_size=1)[0]
            return float(model.energy(batch).data[0])

        batch = prepare_batches([frame], rcut=RCUT, batch_size=1)[0]
        _, forces = model.energy_and_forces(batch)
        scale = np.max(np.abs(forces.data))
        # a central difference must not straddle a kink of the
        # piecewise-linear activations: a short step keeps it from
        # happening on this frame; 2e-9 is the rounding of the energy
        # difference at that step
        eps = 1e-6 if "relu" in desc + fit else 1e-5
        for atom, axis in ((0, 0), (3, 1), (7, 2), (12, 0), (19, 1)):
            p = frame.positions.copy()
            p[atom, axis] += eps
            e_plus = energy_at(p)
            p[atom, axis] -= 2 * eps
            e_minus = energy_at(p)
            numeric = -(e_plus - e_minus) / (2 * eps)
            error = abs(forces.data[0, atom, axis] - numeric)
            assert error <= 1e-6 * scale + 2e-9


# ----------------------------------------------------------------------
# 5. a whole training against the learning curve of fd90052
# ----------------------------------------------------------------------
#: ``Trainer(...).train().lcurve`` of the configuration below at commit
#: fd90052 (geometry on the tape, propagate-everything backward):
#: step, rmse_e_val, rmse_e_trn, rmse_f_val, rmse_f_trn, lr
PINNED_LCURVES = {
    ("tanh", "tanh"): [
        (1.0, 0.2982089842681033, 0.44495112487835314, 1.3951277620323717, 1.7804046707769217, 0.003),
        (10.0, 0.2804392120089414, 0.42269055952007006, 1.3922826815906757, 1.776603183423877, 0.0010813962975130148),
        (20.0, 0.26973681099537994, 0.40619207347908165, 1.3916792121001884, 1.775817197349716, 0.0003480255486002157),
        (30.0, 0.26749236076091787, 0.4020006415372474, 1.391537385564422, 1.775644471868221, 0.00011200499091501966),
    ],
    ("softplus", "sigmoid"): [
        (1.0, 0.595847039582194, 0.7453417329780531, 1.386920258083383, 1.769774030539703, 0.003),
        (10.0, 0.5319807232683509, 0.6859977201334587, 1.3800407438332325, 1.7599277432128657, 0.0010813962975130148),
        (20.0, 0.5113147056815108, 0.666681213861329, 1.3784982292599472, 1.7575015312872746, 0.0003480255486002157),
        (30.0, 0.5046192489396605, 0.6603178121710147, 1.3782275334032488, 1.7570628576897187, 0.00011200499091501966),
    ],
}  # fmt: skip
LCURVE_COLUMNS = ("step", "rmse_e_val", "rmse_e_trn", "rmse_f_val", "rmse_f_trn", "lr")


def thirty_step_trainer(dataset, desc, fit) -> Trainer:
    config = ModelConfig(
        descriptor=DescriptorConfig(rcut=5.0, rcut_smth=1.0),
        embedding_widths=(6, 12),
        axis_neurons=3,
        fitting_widths=(16, 16),
        desc_activation=desc,
        fitting_activation=fit,
    )
    return Trainer(
        DeepPotModel(config, rng=0),
        dataset,
        TrainingConfig(
            numb_steps=30,
            batch_size=2,
            disp_freq=10,
            start_lr=3e-3,
            stop_lr=1e-4,
        ),
        rng=0,
    )


def lcurve_rows(trainer: Trainer) -> np.ndarray:
    rows = trainer.train().lcurve.rows
    return np.array([[row[c] for c in LCURVE_COLUMNS] for row in rows])


class TestTrainingReproducesParent:
    @pytest.mark.parametrize("desc,fit", sorted(PINNED_LCURVES))
    def test_lcurve_matches_the_pinned_parent(self, small_dataset, desc, fit):
        first = lcurve_rows(thirty_step_trainer(small_dataset, desc, fit))
        np.testing.assert_allclose(
            first, np.array(PINNED_LCURVES[desc, fit]), rtol=1e-9, atol=0.0
        )
        again = lcurve_rows(thirty_step_trainer(small_dataset, desc, fit))
        assert again.tobytes() == first.tobytes()

    def test_backward_reaches_the_parameters_only(self, small_dataset):
        trainer = thirty_step_trainer(small_dataset, "tanh", "tanh")
        batch = trainer.train_batches[0]
        created: list[Tensor] = []
        original = Tensor.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            created.append(self)

        with mock.patch.object(Tensor, "__init__", recording):
            e, f = trainer.model.energy_and_forces(batch, create_graph=True)
            loss = trainer.loss_fn(
                0, e, Tensor(batch.energies), f, Tensor(batch.forces)
            )
            loss.backward()
        parameters = {id(p) for p in trainer.optimizer.parameters}
        assert all(p.grad is not None for p in trainer.optimizer.parameters)
        assert created and not [
            t for t in created if t.grad is not None and id(t) not in parameters
        ]
        # what the fast path is for: the whole step fits in 300 tensors
        # at any system size (fd90052: 805)
        assert len(created) <= 300

    @pytest.mark.parametrize("act", ["tanh", "sigmoid", "softplus", "relu6"])
    def test_a_step_leaves_nothing_to_the_cyclic_collector(
        self, small_dataset, act
    ):
        """A node that held itself (through its own vjp) kept each step's
        graph — tens of MB at 160 atoms — alive until a full collection."""
        trainer = thirty_step_trainer(small_dataset, act, act)
        batch = trainer.train_batches[0]

        def step():
            e, f = trainer.model.energy_and_forces(batch, create_graph=True)
            trainer.loss_fn(
                0, e, Tensor(batch.energies), f, Tensor(batch.forces)
            ).backward()

        step()
        gc.collect()
        gc.disable()
        try:
            step()
            assert gc.collect() == 0
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# 6. a training's tables from the neighbour plane change no bit
# ----------------------------------------------------------------------
PLANE_PHENOMES = [
    {"rcut": rcut, "rcut_smth": 1.0, "start_lr": 3e-3, "stop_lr": 1e-4,
     "scale_by_worker": "none", "desc_activ_func": desc,
     "fitting_activ_func": fit}
    for rcut, desc, fit in [
        (6.5, "softplus", "sigmoid"),
        (11.0, "sigmoid", "tanh"),
        (8.25, "tanh", "softplus"),
    ]
]  # fmt: skip


def artifact_bytes(workdir: Path):
    """``lcurve.out`` and trained-parameter bytes of one evaluation."""
    with np.load(workdir / "model.npz") as params:
        weights = {name: params[name].tobytes() for name in params.files}
    return (workdir / "lcurve.out").read_bytes(), weights


def evaluated_bytes(dataset, base_dir, before_each):
    """Fitness, ``lcurve.out`` and trained-parameter bytes of the
    :data:`PLANE_PHENOMES` evaluated in turn, ``before_each`` run before
    every evaluation."""
    problem = DeepMDProblem(
        dataset,
        base_dir=base_dir,
        settings=EvaluatorSettings(numb_steps=6, disp_freq=3),
    )
    out = []
    for i, phenome in enumerate(PLANE_PHENOMES):
        before_each()
        fitness, meta = problem.evaluate_with_metadata(phenome, uuid=f"e{i}")
        out.append((fitness.tobytes(), *artifact_bytes(Path(meta["workdir"]))))
    return out


def test_a_plane_grown_to_12_angstrom_changes_no_evaluation(
    small_dataset, tmp_path, monkeypatch
):
    monkeypatch.setattr(data, "_planes", {})
    built = evaluated_bytes(small_dataset, tmp_path / "built", data._planes.clear)
    for frames in (small_dataset.train, small_dataset.validation):
        prepare_batches(frames, 12.0)
    assert [cutoff for cutoff, _ in data._planes.values()] == [12.0, 12.0]
    derived = evaluated_bytes(small_dataset, tmp_path / "derived", lambda: None)
    assert [cutoff for cutoff, _ in data._planes.values()] == [12.0, 12.0]
    assert derived == built


# ----------------------------------------------------------------------
# 7. the trainer's allocator policy: same bits, no faults, no noise
# ----------------------------------------------------------------------
SRC = str(Path(__file__).resolve().parents[1] / "src")

#: evaluates the phenomes of ``argv[4]`` in turn in a fresh interpreter,
#: the policy replaced by a no-op when ``argv[3]`` is ``off``, and prints
#: the policy's state and each evaluation's fitness and page faults
EVALUATE_IN_A_FRESH_PROCESS = """
import json, resource, sys
from repro.deepmd import training
from repro.hpo.evaluator import DeepMDProblem, EvaluatorSettings
from repro.md.dataset import FrameDataset

data_dir, base_dir, policy, phenomes = sys.argv[1:]
if policy == "off":
    training._keep_heap = lambda: None
problem = DeepMDProblem(
    FrameDataset.load(data_dir),
    base_dir=base_dir,
    settings=EvaluatorSettings(numb_steps=8, disp_freq=4),
)
faults, fitness = [], []
for i, phenome in enumerate(json.loads(phenomes)):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    f, _ = problem.evaluate_with_metadata(phenome, uuid=f"e{i}")
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    fitness.append(f.tobytes().hex())
print(json.dumps(
    {"heap_kept": training._heap_kept, "faults": faults, "fitness": fitness}
))
"""


@pytest.fixture(scope="module")
def saved_dataset(small_dataset, tmp_path_factory):
    directory = tmp_path_factory.mktemp("heap") / "data"
    small_dataset.save(directory)
    return directory


def evaluate_in_a_fresh_process(data_dir, base_dir, policy, phenomes):
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            EVALUATE_IN_A_FRESH_PROCESS,
            str(data_dir),
            str(base_dir),
            policy,
            json.dumps(phenomes),
        ],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_the_allocator_policy_changes_no_bit(saved_dataset, tmp_path):
    runs = {
        policy: evaluate_in_a_fresh_process(
            saved_dataset, tmp_path / policy, policy, PLANE_PHENOMES
        )
        for policy in ("on", "off")
    }
    assert runs["off"]["heap_kept"] is None
    assert runs["on"]["fitness"] == runs["off"]["fitness"]
    for i in range(len(PLANE_PHENOMES)):
        on, off = (artifact_bytes(tmp_path / side / f"e{i}") for side in runs)
        assert on == off


def test_a_later_training_takes_no_page_faults(saved_dataset, tmp_path):
    """glibc's defaults return each step's temporaries to the kernel and
    fault them in again: ~23 000 minor faults per such training."""
    phenome = dict(PLANE_PHENOMES[1])  # rcut 11: the widest tables
    run = evaluate_in_a_fresh_process(
        saved_dataset, tmp_path, "on", [phenome] * 3
    )
    if run["heap_kept"] is False:
        pytest.skip("the C library has no mallopt")
    assert len(set(run["fitness"])) == 1
    assert run["faults"][2] <= 500, run["faults"]


class FakeLibc:
    """A C library whose ``mallopt`` records its calls."""

    def __init__(self, returns: int = 1) -> None:
        self.calls: list[tuple[int, int]] = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return returns

        self.mallopt = mallopt


def short_trainer(dataset, tracer=None) -> Trainer:
    config = ModelConfig(
        descriptor=DescriptorConfig(rcut=5.0, rcut_smth=1.0),
        embedding_widths=(4, 8),
        axis_neurons=3,
        fitting_widths=(8, 8),
    )
    return Trainer(
        DeepPotModel(config, rng=0),
        dataset,
        TrainingConfig(numb_steps=4, disp_freq=2),
        rng=0,
        tracer=tracer,
    )


def test_the_policy_is_applied_once_per_process(small_dataset, monkeypatch):
    libc = FakeLibc()
    monkeypatch.setattr(training, "_heap_kept", None)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    short_trainer(small_dataset)
    short_trainer(small_dataset)
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    assert libc.calls == [(-3, 16 << 20), (-1, 256 << 20)]
    assert training._heap_kept is True


def _no_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize(
    "cdll",
    [
        _no_library,
        lambda name: object(),  # macOS: a libc without mallopt
        lambda name: FakeLibc(returns=0),  # mallopt refuses
    ],
    ids=["lookup-fails", "no-mallopt", "refused"],
)
def test_without_mallopt_the_policy_does_nothing_silently(
    small_dataset, monkeypatch, capfd, cdll
):
    monkeypatch.setattr(training, "_heap_kept", None)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        short_trainer(small_dataset).train()
    assert training._heap_kept is False
    assert caught == []
    assert capfd.readouterr() == ("", "")


def test_the_training_span_counts_its_page_faults(small_dataset, monkeypatch):
    tracer = Tracer()
    short_trainer(small_dataset, tracer).train()
    (loop,) = tracer.spans("train.loop")
    assert isinstance(loop["tags"]["minor_faults"], int)
    assert loop["tags"]["minor_faults"] >= 0
    monkeypatch.setattr(training, "resource", None)  # as on Windows
    tracer = Tracer()
    short_trainer(small_dataset, tracer).train()
    (loop,) = tracer.spans("train.loop")
    assert "minor_faults" not in loop["tags"]
    assert loop["tags"]["steps_completed"] == 4


# ----------------------------------------------------------------------
# 8. one graph at a time: a step's graph dies before anything else is
#    built, an inference call returns no graph, and no bit moves
# ----------------------------------------------------------------------
def test_a_step_graph_is_dead_before_anything_else_is_built(
    small_dataset, monkeypatch
):
    trainer = thirty_step_trainer(small_dataset, "tanh", "tanh")
    losses: list[weakref.ref] = []
    checks: list[tuple[str, int, bool]] = []

    def check(where):
        if losses:
            checks.append((where, len(losses), losses[-1]() is not None))

    loss_call = EnergyForceLoss.__call__
    forward = DeepPotModel.energy_and_forces
    validation = Trainer.evaluate_validation

    def recording_loss(self, *args, **kwargs):
        loss = loss_call(self, *args, **kwargs)
        losses.append(weakref.ref(loss))
        return loss

    def checked_forward(self, batch, create_graph=False):
        if create_graph:
            check("forward")
        return forward(self, batch, create_graph)

    def checked_validation(self):
        check("validation")
        return validation(self)

    monkeypatch.setattr(EnergyForceLoss, "__call__", recording_loss)
    monkeypatch.setattr(DeepPotModel, "energy_and_forces", checked_forward)
    monkeypatch.setattr(Trainer, "evaluate_validation", checked_validation)
    trainer.train()
    assert len(losses) == 30
    # every step's forward pass but the first, and the validations
    # after steps 1, 10, 20 and 30
    assert [where for where, _, _ in checks].count("forward") == 29
    assert [n for where, n, _ in checks if where == "validation"] == [
        1, 10, 20, 30
    ]
    assert [c for c in checks if c[2]] == []


@pytest.mark.parametrize(
    "desc,fit", [("tanh", "tanh"), ("softplus", "sigmoid")]
)
def test_an_inference_call_returns_constants_with_the_same_bits(desc, fit):
    batch = random_padded_batch(3)
    model = small_model(desc, fit)
    e, f = model.energy_and_forces(batch)
    assert e.is_leaf and f.is_leaf
    assert not (e.requires_grad or f.requires_grad)
    e_graph, f_graph = model.energy_and_forces(batch, create_graph=True)
    assert not e_graph.is_leaf
    assert e.data.tobytes() == e_graph.data.tobytes()
    assert f.data.tobytes() == f_graph.data.tobytes()


def host_bits() -> str:
    """Digest of the kernels a training's bits depend on — NumPy's
    transcendental ufuncs, SciPy's ``erfc`` (MD data generation) and
    BLAS products — on fixed inputs.  They differ in the last ulp
    across instruction sets."""
    from scipy.special import erfc

    rng = np.random.default_rng(0)
    x = rng.uniform(-6.0, 6.0, size=4099)
    a, b = rng.normal(size=(37, 29)), rng.normal(size=(29, 41))
    p, q = rng.normal(size=(3, 5, 7, 4)), rng.normal(size=(3, 5, 4, 6))
    digest = hashlib.sha256()
    for out in (
        np.exp(x), np.log(np.abs(x)), np.log1p(np.abs(x)), np.tanh(x),
        np.sqrt(np.abs(x)), np.sin(x), np.cos(x), erfc(x),
        a @ b, np.matmul(p, q), np.einsum("...ij,...jk->...ik", p, q),
    ):  # fmt: skip
        digest.update(out.tobytes())
    return digest.hexdigest()[:16]


#: ``host_bits()`` where :data:`PINNED_EVALUATIONS` was recorded
PINNED_HOST = "d375efba6dabd8b3"
#: ``evaluation_digests`` of the two phenomes below at commit 0e24614,
#: where each step's graph lived on through the next step's forward
#: pass and the backward pass kept every gradient it formed
PINNED_EVALUATIONS = {
    ("tanh", "tanh"): {
        "fitness": "cbc511bc18067c21",
        "lcurve.out": "5d256a550aa0e80c",
        "model.npz": "0d8b55c9afbc03bd",
    },
    ("softplus", "sigmoid"): {
        "fitness": "6cedc6cc8be0f506",
        "lcurve.out": "ec8a4ab8d496f397",
        "model.npz": "2b8c7d1e1d3b713c",
    },
}


def evaluation_digests(dataset, base_dir, desc, fit) -> dict[str, str]:
    """Digests of the fitness, ``lcurve.out`` and trained parameters of
    one 8-step evaluation that validates three times."""
    problem = DeepMDProblem(
        dataset,
        base_dir=base_dir,
        settings=EvaluatorSettings(numb_steps=8, disp_freq=4),
    )
    phenome = {
        "rcut": 5.0, "rcut_smth": 1.0, "start_lr": 3e-3, "stop_lr": 1e-4,
        "scale_by_worker": "none", "desc_activ_func": desc,
        "fitting_activ_func": fit,
    }  # fmt: skip
    fitness, meta = problem.evaluate_with_metadata(phenome, uuid="pinned")
    lcurve, weights = artifact_bytes(Path(meta["workdir"]))
    params = b"".join(
        name.encode() + weights[name] for name in sorted(weights)
    )
    return {
        name: hashlib.sha256(raw).hexdigest()[:16]
        for name, raw in (
            ("fitness", fitness.tobytes()),
            ("lcurve.out", lcurve),
            ("model.npz", params),
        )
    }


@pytest.mark.parametrize("desc,fit", sorted(PINNED_EVALUATIONS))
def test_an_evaluation_keeps_the_pinned_bits(
    small_dataset, tmp_path, desc, fit
):
    if host_bits() != PINNED_HOST:
        pytest.skip("the digests were pinned on another instruction set")
    digests = evaluation_digests(small_dataset, tmp_path, desc, fit)
    assert digests == PINNED_EVALUATIONS[desc, fit]
