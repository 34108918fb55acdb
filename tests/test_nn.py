"""Tests for repro.nn: activations, layers, MLP, optimizers, schedules,
and the energy/force loss with its prefactor schedule."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.nn import (
    ACTIVATION_NAMES,
    ACTIVATIONS,
    Adam,
    Dense,
    EnergyForceLoss,
    ExponentialDecay,
    MLP,
    PrefactorSchedule,
    ResidualDense,
    SGD,
    get_activation,
    scale_lr_by_workers,
)


class TestActivations:
    def test_registry_matches_paper_names(self):
        assert ACTIVATION_NAMES == (
            "relu",
            "relu6",
            "softplus",
            "sigmoid",
            "tanh",
        )

    def test_all_registered_callables(self):
        x = Tensor(np.linspace(-2, 2, 7))
        for name in ACTIVATION_NAMES:
            out = ACTIVATIONS[name](x)
            assert out.shape == x.shape

    def test_get_activation_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown activation"):
            get_activation("gelu")

    def test_tanh_matches_numpy(self):
        x = np.linspace(-2, 2, 9)
        assert np.allclose(get_activation("tanh")(Tensor(x)).data, np.tanh(x))


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_parameters_require_grad(self):
        layer = Dense(4, 3, rng=0)
        assert all(p.requires_grad for p in layer.parameters)

    def test_n_parameters(self):
        assert Dense(4, 3, rng=0).n_parameters() == 4 * 3 + 3

    def test_activation_applied(self):
        relu = get_activation("relu")
        layer = Dense(2, 2, activation=relu, rng=0)
        out = layer(Tensor(np.full((1, 2), -100.0)))
        assert np.all(out.data >= 0.0)

    def test_deterministic_with_seed(self):
        w1 = Dense(3, 3, rng=7).weight.data
        w2 = Dense(3, 3, rng=7).weight.data
        assert np.array_equal(w1, w2)


class TestResidualDense:
    def test_same_width_adds_input(self):
        layer = ResidualDense(3, 3, rng=0)
        layer.weight.data[:] = 0.0
        x = np.arange(3.0).reshape(1, 3)
        out = layer(Tensor(x))
        assert np.allclose(out.data, x)

    def test_double_width_concatenates(self):
        layer = ResidualDense(2, 4, rng=0)
        layer.weight.data[:] = 0.0
        x = np.array([[1.0, 2.0]])
        out = layer(Tensor(x))
        assert np.allclose(out.data, [[1.0, 2.0, 1.0, 2.0]])

    def test_other_width_plain_dense(self):
        layer = ResidualDense(2, 3, rng=0)
        layer.weight.data[:] = 0.0
        out = layer(Tensor(np.array([[5.0, 5.0]])))
        assert np.allclose(out.data, 0.0)


class TestMLP:
    def test_shapes_through_network(self):
        net = MLP([4, 8, 8, 1], activation=get_activation("tanh"), rng=0)
        out = net(Tensor(np.ones((10, 4))))
        assert out.shape == (10, 1)

    def test_requires_two_widths(self):
        with pytest.raises(ValueError):
            MLP([4], activation=get_activation("tanh"))

    def test_final_activation_none_is_linear(self):
        net = MLP([2, 4, 1], activation=get_activation("relu"), rng=0)
        big = net(Tensor(np.full((1, 2), 1000.0)))
        # linear head can be negative even with relu hidden
        assert big.data.shape == (1, 1)

    def test_parameter_count(self):
        net = MLP([2, 3, 1], activation=get_activation("tanh"), rng=0)
        assert net.n_parameters() == (2 * 3 + 3) + (3 * 1 + 1)

    def test_gradients_flow_to_all_parameters(self):
        net = MLP([3, 5, 1], activation=get_activation("tanh"), rng=0)
        out = net(Tensor(np.random.default_rng(0).normal(size=(4, 3))))
        (out * out).sum().backward()
        for p in net.parameters:
            assert p.grad is not None
            assert np.any(p.grad != 0.0)


class TestOptimizers:
    def _quadratic_problem(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        return x

    def test_sgd_descends_quadratic(self):
        x = self._quadratic_problem()
        opt = SGD([x], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        assert np.allclose(x.data, 0.0, atol=1e-4)

    def test_sgd_momentum_converges(self):
        x = self._quadratic_problem()
        opt = SGD([x], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        assert np.allclose(x.data, 0.0, atol=1e-3)

    def test_adam_descends_quadratic(self):
        x = self._quadratic_problem()
        opt = Adam([x], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            (x * x).sum().backward()
            opt.step()
        assert np.allclose(x.data, 0.0, atol=1e-3)

    def test_adam_bias_correction_first_step(self):
        # first Adam step should be ~lr * sign(grad)
        x = Tensor(np.array([10.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.zero_grad()
        (x * x).sum().backward()
        opt.step()
        assert np.allclose(x.data, 10.0 - 0.1, atol=1e-6)

    def test_optimizer_rejects_constant_tensors(self):
        with pytest.raises(ValueError, match="require grad"):
            SGD([Tensor([1.0])], lr=0.1)

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_step_skips_none_grads(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.step()  # no backward happened; should not raise
        assert np.allclose(x.data, [1.0])


class TestExponentialDecay:
    def test_endpoints(self):
        sched = ExponentialDecay(1e-3, 1e-5, total_steps=100)
        assert np.isclose(sched(0), 1e-3)
        assert np.isclose(sched(100), 1e-5)

    def test_monotone_decay(self):
        sched = ExponentialDecay(1e-3, 1e-5, total_steps=50)
        lrs = [sched(t) for t in range(0, 60, 5)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_geometric_shape(self):
        sched = ExponentialDecay(1e-2, 1e-4, total_steps=10)
        # equal step ratios
        r1 = sched(5) / sched(0)
        r2 = sched(10) / sched(5)
        assert np.isclose(r1, r2)

    def test_decay_fraction(self):
        sched = ExponentialDecay(1e-3, 1e-5, total_steps=100)
        assert np.isclose(sched.decay_fraction(0), 1.0)
        assert np.isclose(sched.decay_fraction(100), 1e-2)

    def test_keeps_decaying_past_total_steps(self):
        sched = ExponentialDecay(1e-3, 1e-5, total_steps=10)
        assert sched(20) < sched(10)

    def test_negative_step_raises(self):
        sched = ExponentialDecay(1e-3, 1e-5, total_steps=10)
        with pytest.raises(ValueError):
            sched(-1)

    def test_invalid_rates_raise(self):
        with pytest.raises(ValueError):
            ExponentialDecay(0.0, 1e-5, total_steps=10)

    @pytest.mark.parametrize(
        "scheme,factor",
        [("linear", 6.0), ("sqrt", np.sqrt(6.0)), ("none", 1.0)],
    )
    def test_worker_scaling_schemes(self, scheme, factor):
        assert np.isclose(
            scale_lr_by_workers(1e-3, 6, scheme), 1e-3 * factor
        )

    def test_worker_scaling_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown worker scaling"):
            scale_lr_by_workers(1e-3, 6, "log")

    def test_worker_scaling_invalid_count(self):
        with pytest.raises(ValueError):
            scale_lr_by_workers(1e-3, 0, "none")

    def test_schedule_applies_worker_scaling(self):
        sched = ExponentialDecay(
            1e-3, 1e-5, total_steps=10, n_workers=6, scale_by_worker="linear"
        )
        assert np.isclose(sched(0), 6e-3)
        assert np.isclose(sched(10), 1e-5)  # stop rate is not scaled


class TestPrefactorSchedule:
    def test_paper_defaults(self):
        p = PrefactorSchedule()
        assert (p.pe_start, p.pf_start, p.pe_limit, p.pf_limit) == (
            0.02,
            1000.0,
            1.0,
            1.0,
        )

    def test_start_of_training_force_dominates(self):
        pe, pf = PrefactorSchedule().at(1.0)
        assert pf / pe > 1000.0

    def test_end_of_training_balanced(self):
        pe, pf = PrefactorSchedule().at(0.0)
        assert pe == 1.0 and pf == 1.0

    def test_interpolation_monotone(self):
        p = PrefactorSchedule()
        fs = np.linspace(1.0, 0.0, 10)
        pfs = [p.at(f)[1] for f in fs]
        pes = [p.at(f)[0] for f in fs]
        assert all(a >= b for a, b in zip(pfs, pfs[1:]))  # force decreases
        assert all(a <= b for a, b in zip(pes, pes[1:]))  # energy increases


class TestEnergyForceLoss:
    def _loss(self):
        sched = ExponentialDecay(1e-3, 1e-5, total_steps=100)
        return EnergyForceLoss(sched, n_atoms=10)

    def test_zero_when_exact(self):
        loss = self._loss()
        e = Tensor([1.0, 2.0])
        f = Tensor(np.ones((2, 10, 3)))
        val = loss(0, e, e, f, f)
        assert np.isclose(val.data, 0.0)

    def test_positive_otherwise(self):
        loss = self._loss()
        e = Tensor([1.0])
        f = Tensor(np.zeros((1, 10, 3)))
        val = loss(0, e, Tensor([2.0]), f, Tensor(np.ones((1, 10, 3))))
        assert float(val.data) > 0.0

    def test_force_term_dominates_early(self):
        loss = self._loss()
        e_err = loss(
            0,
            Tensor([1.0]),
            Tensor([0.0]),
            Tensor(np.zeros((1, 10, 3))),
            Tensor(np.zeros((1, 10, 3))),
        )
        f_err = loss(
            0,
            Tensor([0.0]),
            Tensor([0.0]),
            Tensor(np.full((1, 10, 3), 0.1)),
            Tensor(np.zeros((1, 10, 3))),
        )
        assert float(f_err.data) > float(e_err.data)

    def test_rmse_helpers(self):
        e_rmse = EnergyForceLoss.rmse_energy(
            np.array([11.0]), np.array([10.0]), n_atoms=10
        )
        assert np.isclose(e_rmse, 0.1)
        f_rmse = EnergyForceLoss.rmse_force(
            np.ones((1, 2, 3)), np.zeros((1, 2, 3))
        )
        assert np.isclose(f_rmse, 1.0)

    def test_loss_differentiable(self):
        loss = self._loss()
        e = Tensor([1.5], requires_grad=True)
        val = loss(
            0,
            e,
            Tensor([1.0]),
            Tensor(np.zeros((1, 10, 3))),
            Tensor(np.zeros((1, 10, 3))),
        )
        val.backward()
        assert e.grad is not None
