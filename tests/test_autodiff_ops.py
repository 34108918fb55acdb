"""Gradient checks for every autodiff primitive against central
differences, including broadcasting and indexing edge cases."""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import functional as F
from repro.autodiff.gradcheck import check_gradients

RNG = np.random.default_rng(20230807)


def _vec(n=5):
    return RNG.normal(size=n)


def _mat(r=3, c=4):
    return RNG.normal(size=(r, c))


class TestArithmetic:
    def test_add(self):
        check_gradients(lambda a, b: (a + b).sum(), [_vec(), _vec()])

    def test_add_broadcast_scalar(self):
        check_gradients(lambda a, b: (a + b).sum(), [_vec(), _vec(1)])

    def test_add_broadcast_matrix_row(self):
        check_gradients(
            lambda a, b: ((a + b) ** 2.0).sum(), [_mat(3, 4), _vec(4)]
        )

    def test_sub(self):
        check_gradients(lambda a, b: ((a - b) ** 2.0).sum(), [_vec(), _vec()])

    def test_rsub_scalar(self):
        check_gradients(lambda a: ((1.0 - a) ** 2.0).sum(), [_vec()])

    def test_mul(self):
        check_gradients(lambda a, b: (a * b).sum(), [_vec(), _vec()])

    def test_mul_broadcast(self):
        check_gradients(
            lambda a, b: (a * b).sum(), [_mat(2, 3), _vec(3)]
        )

    def test_div(self):
        b = np.abs(_vec()) + 1.0
        check_gradients(lambda a, b: (a / b).sum(), [_vec(), b])

    def test_rdiv_scalar(self):
        a = np.abs(_vec()) + 1.0
        check_gradients(lambda a: (2.0 / a).sum(), [a])

    def test_neg(self):
        check_gradients(lambda a: (-a * a).sum(), [_vec()])

    def test_power(self):
        a = np.abs(_vec()) + 0.5
        check_gradients(lambda a: (a**3.0).sum(), [a])

    def test_power_fractional(self):
        a = np.abs(_vec()) + 0.5
        check_gradients(lambda a: (a**0.5).sum(), [a])

    def test_square(self):
        check_gradients(lambda a: F.square(a).sum(), [_vec()])

    def test_abs(self):
        a = _vec() + 0.1  # stay away from the kink
        check_gradients(lambda a: F.abs(a).sum(), [a])


def masked_sigmoid(x):
    """The logistic kernel as it was: one half through boolean gathers."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestTranscendental:
    def test_exp(self):
        check_gradients(lambda a: F.exp(a).sum(), [_vec()])

    def test_log(self):
        a = np.abs(_vec()) + 0.5
        check_gradients(lambda a: F.log(a).sum(), [a])

    def test_sqrt(self):
        a = np.abs(_vec()) + 0.5
        check_gradients(lambda a: F.sqrt(a).sum(), [a])

    @pytest.mark.parametrize(
        "fn", [F.tanh, F.sigmoid, F.softplus, F.relu, F.relu6]
    )
    def test_activations(self, fn):
        a = _vec(8) * 2.0 + 0.05  # avoid exact kink points
        check_gradients(lambda a: (fn(a) ** 2.0).sum(), [a])

    def test_softplus_large_positive_no_overflow(self):
        out = F.softplus(ad.Tensor([700.0]))
        assert np.isfinite(out.data).all()
        assert np.allclose(out.data, [700.0])

    def test_softplus_large_negative(self):
        out = F.softplus(ad.Tensor([-700.0]))
        assert np.allclose(out.data, [0.0])

    def test_sigmoid_extremes_stable(self):
        out = F.sigmoid(ad.Tensor([-800.0, 800.0]))
        assert np.allclose(out.data, [0.0, 1.0])

    def test_logistic_kernel_is_the_masked_one_byte_for_byte(self):
        special = np.array(
            [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf,
             -np.inf, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8, 36.7,
             -36.7, 1e-17, -1e-17]
        )  # fmt: skip
        rng = np.random.default_rng(0)
        arrays = [special, rng.normal(size=(3, 4, 5))]
        arrays += [rng.normal(size=10_000) * scale for scale in (1, 30, 1e3)]
        for x in arrays:
            got = F._sigmoid_data(x)
            assert got.dtype == x.dtype and got.shape == x.shape
            assert got.tobytes() == masked_sigmoid(x).tobytes()
        assert np.isnan(F._sigmoid_data(np.array([np.nan, 1.0])))[0]

    def test_softplus_second_derivative_reuses_its_first(self):
        x = ad.Tensor(_vec(6) * 3.0, requires_grad=True)
        (g,) = ad.grad(F.softplus(x).sum(), [x], create_graph=True)
        g.sum().backward()
        s = masked_sigmoid(x.data)
        assert g.data.tobytes() == s.tobytes()
        assert x.grad.tobytes() == (s * (1.0 - s)).tobytes()

    def test_relu6_caps_at_six(self):
        out = F.relu6(ad.Tensor([-1.0, 3.0, 10.0]))
        assert np.allclose(out.data, [0.0, 3.0, 6.0])

    def test_relu6_gradient_zero_outside_band(self):
        x = ad.Tensor([-1.0, 3.0, 10.0], requires_grad=True)
        F.relu6(x).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestComparison:
    def test_maximum(self):
        check_gradients(
            lambda a, b: F.maximum(a, b).sum(), [_vec(), _vec()]
        )

    def test_minimum(self):
        check_gradients(
            lambda a, b: F.minimum(a, b).sum(), [_vec(), _vec()]
        )

    def test_maximum_tie_sends_gradient_to_first(self):
        a = ad.Tensor([1.0], requires_grad=True)
        b = ad.Tensor([1.0], requires_grad=True)
        F.maximum(a, b).sum().backward()
        assert np.allclose(a.grad, [1.0])
        assert np.allclose(b.grad, [0.0])

    def test_where(self):
        cond = np.array([True, False, True, False, True])
        check_gradients(
            lambda a, b: F.where(cond, a, b).sum(), [_vec(), _vec()]
        )

    def test_clip_gradient_mask(self):
        x = ad.Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        F.clip(x, 0.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestLinalgAndShape:
    def test_matmul_2d(self):
        check_gradients(
            lambda a, b: (a @ b).sum(), [_mat(3, 4), _mat(4, 2)]
        )

    def test_matmul_batched(self):
        check_gradients(
            lambda a, b: F.tanh(a @ b).sum(),
            [RNG.normal(size=(2, 3, 4)), _mat(4, 2)],
        )

    def test_matmul_batched_both(self):
        check_gradients(
            lambda a, b: (a @ b).sum(),
            [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 4, 2))],
        )

    def test_matmul_vec_right(self):
        check_gradients(
            lambda a, v: (a @ v).sum(), [_mat(3, 4), _vec(4)]
        )

    def test_matmul_vec_left(self):
        check_gradients(
            lambda v, b: (v @ b).sum(), [_vec(3), _mat(3, 2)]
        )

    def test_matmul_vec_vec(self):
        check_gradients(lambda a, b: a @ b, [_vec(4), _vec(4)])

    def test_dot(self):
        check_gradients(lambda a, b: F.dot(a, b), [_vec(4), _vec(4)])

    def test_dot_rejects_matrices(self):
        with pytest.raises(ValueError):
            F.dot(ad.Tensor(_mat()), ad.Tensor(_mat()))

    def test_sum_axis(self):
        check_gradients(
            lambda a: (F.sum(a, axis=0) ** 2.0).sum(), [_mat()]
        )

    def test_sum_axis_keepdims(self):
        check_gradients(
            lambda a: (F.sum(a, axis=1, keepdims=True) ** 2.0).sum(),
            [_mat()],
        )

    def test_sum_negative_axis(self):
        check_gradients(
            lambda a: (F.sum(a, axis=-1) ** 2.0).sum(), [_mat()]
        )

    def test_sum_axis_tuple(self):
        check_gradients(
            lambda a: (F.sum(a, axis=(0, 1)) ** 2.0).sum(),
            [RNG.normal(size=(2, 3, 4))],
        )

    def test_mean(self):
        check_gradients(lambda a: (F.mean(a) ** 2.0).sum(), [_mat()])

    def test_mean_axis(self):
        check_gradients(
            lambda a: (F.mean(a, axis=1) ** 2.0).sum(), [_mat()]
        )

    def test_reshape(self):
        check_gradients(
            lambda a: (F.reshape(a, (4, 3)) ** 2.0).sum(), [_mat(3, 4)]
        )

    def test_transpose(self):
        check_gradients(
            lambda a: (a.T @ a).sum(), [_mat(3, 4)]
        )

    def test_transpose_axes(self):
        check_gradients(
            lambda a: (F.transpose(a, (1, 2, 0)) ** 2.0).sum(),
            [RNG.normal(size=(2, 3, 4))],
        )

    def test_swapaxes(self):
        check_gradients(
            lambda a: (F.swapaxes(a, -1, -2) ** 2.0).sum(),
            [RNG.normal(size=(2, 3, 4))],
        )

    def test_broadcast_to(self):
        check_gradients(
            lambda a: (F.broadcast_to(a, (3, 4)) ** 2.0).sum(),
            [_vec(4)],
        )

    @pytest.mark.parametrize(
        "shapes",
        [((4, 3), (4, 2)), ((2, 5, 4, 3), (2, 5, 4, 2)), ((2, 4, 3), (4, 2))],
    )
    def test_matmul_tn(self, shapes):
        a, b = (RNG.normal(size=s) for s in shapes)
        out = F.matmul_tn(ad.Tensor(a), ad.Tensor(b))
        assert np.array_equal(out.data, np.swapaxes(a, -1, -2) @ b)
        check_gradients(lambda x, y: F.tanh(F.matmul_tn(x, y)).sum(), [a, b])

    @pytest.mark.parametrize(
        "shapes",
        [((3, 4), (2, 4)), ((2, 5, 3, 4), (2, 5, 2, 4)), ((2, 3, 4), (2, 4))],
    )
    def test_matmul_nt(self, shapes):
        a, b = (RNG.normal(size=s) for s in shapes)
        out = F.matmul_nt(ad.Tensor(a), ad.Tensor(b))
        assert np.array_equal(out.data, a @ np.swapaxes(b, -1, -2))
        check_gradients(lambda x, y: F.tanh(F.matmul_nt(x, y)).sum(), [a, b])

    @pytest.mark.parametrize(
        "shape,axis,keepdims",
        [
            ((7, 5), 0, False),  # a bias gradient
            ((2, 3, 6, 3), 2, False),  # the central force term
            ((2, 3, 6, 3), (1, 2), True),
            ((4, 3, 2), (0, 1), False),
            ((4, 3, 2), -1, True),  # trailing: NumPy's pairwise sum
            ((4, 3, 2), (0, 2), False),  # not one run: NumPy
            ((4, 3, 2), None, False),
        ],
    )
    def test_sum_as_ones_product(self, shape, axis, keepdims):
        """A strided run of axes is summed as a product with a ones
        vector: same shape as NumPy's sum, values to rounding."""
        x = RNG.normal(size=shape)
        for data in (x, np.swapaxes(x, 0, 1)):  # contiguous, strided
            got = F.sum(ad.Tensor(data), axis=axis, keepdims=keepdims).data
            expected = np.sum(data, axis=axis, keepdims=keepdims)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-14)
        check_gradients(
            lambda a: (F.sum(a, axis=axis, keepdims=keepdims) ** 2.0).sum(),
            [x],
        )


class TestIndexing:
    def test_getitem_slice(self):
        check_gradients(lambda a: (a[1:3] ** 2.0).sum(), [_vec(6)])

    def test_getitem_2d(self):
        check_gradients(lambda a: (a[:, 1:3] ** 2.0).sum(), [_mat()])

    def test_getitem_int_index(self):
        check_gradients(lambda a: (a[2] ** 2.0).sum(), [_mat()])

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        check_gradients(lambda a: (a[idx] ** 2.0).sum(), [_vec(4)])

    def test_take_axis0(self):
        idx = np.array([0, 2, 2, 1])
        check_gradients(
            lambda a: (F.take(a, idx) ** 2.0).sum(), [_mat(3, 2)]
        )

    def test_take_axis1(self):
        idx = np.array([1, 1, 3])
        check_gradients(
            lambda a: (F.take(a, idx, axis=1) ** 2.0).sum(), [_mat(3, 4)]
        )

    def test_index_add(self):
        idx = np.array([0, 1, 1, 2])
        check_gradients(
            lambda b, v: (F.index_add(b, idx, v) ** 2.0).sum(),
            [np.zeros((3, 2)), RNG.normal(size=(4, 2))],
        )

    def test_index_add_repeated_indices_accumulate(self):
        base = ad.Tensor(np.zeros(2))
        vals = ad.Tensor([1.0, 2.0, 3.0])
        out = F.index_add(base, np.array([0, 0, 1]), vals)
        assert np.allclose(out.data, [3.0, 3.0])

    def test_concatenate(self):
        check_gradients(
            lambda a, b: (F.concatenate([a, b], axis=0) ** 2.0).sum(),
            [_mat(2, 3), _mat(4, 3)],
        )

    def test_concatenate_last_axis(self):
        check_gradients(
            lambda a, b: (F.concatenate([a, b], axis=-1) ** 2.0).sum(),
            [_mat(2, 3), _mat(2, 2)],
        )

    def test_stack(self):
        check_gradients(
            lambda a, b: (F.stack([a, b], axis=0) ** 2.0).sum(),
            [_vec(4), _vec(4)],
        )


class TestDoubleBackwardOps:
    """Every op used inside force computation must be twice
    differentiable; spot-check the critical ones."""

    @pytest.mark.parametrize(
        "fn",
        [F.tanh, F.sigmoid, F.softplus],
        ids=["tanh", "sigmoid", "softplus"],
    )
    def test_activation_double(self, fn):
        x0 = _vec(4)
        x = ad.Tensor(x0, requires_grad=True)
        y = fn(x).sum()
        (g,) = ad.grad(y, [x], create_graph=True)
        z = (g * g).sum()
        (gz,) = ad.grad(z, [x])
        # compare against finite differences of z(x)
        eps = 1e-6
        num = np.zeros_like(x0)
        for i in range(len(x0)):
            for sign, store in ((1, "p"), (-1, "m")):
                xs = x0.copy()
                xs[i] += sign * eps
                xt = ad.Tensor(xs, requires_grad=True)
                (gg,) = ad.grad(fn(xt).sum(), [xt], create_graph=False)
                val = float((gg.data**2).sum())
                if sign == 1:
                    fp = val
                else:
                    fm = val
            num[i] = (fp - fm) / (2 * eps)
        assert np.allclose(gz.data, num, rtol=1e-4, atol=1e-7)

    def test_matmul_double(self):
        A0 = _mat(2, 3)
        x0 = _vec(3)
        A = ad.Tensor(A0, requires_grad=True)
        x = ad.Tensor(x0, requires_grad=True)
        y = F.tanh(A @ x).sum()
        (gx,) = ad.grad(y, [x], create_graph=True)
        z = (gx * gx).sum()
        (gA,) = ad.grad(z, [A])
        assert gA.data.shape == A0.shape
        assert np.isfinite(gA.data).all()

    def test_transposed_products_double(self):
        """The mutual adjoints differentiate through each other."""
        a0, b0 = _mat(4, 3), _mat(4, 2)
        weights = _mat(3, 2)

        def z_of(a):
            b = ad.Tensor(b0, requires_grad=True)
            (gb,) = ad.grad(
                F.sum(F.mul(F.tanh(F.matmul_tn(a, b)), weights)),
                [b],
                create_graph=True,
            )
            return F.sum(F.mul(gb, gb))

        check_gradients(z_of, [a0])

    def test_index_add_double(self):
        idx = np.array([0, 1, 1])
        v0 = _vec(3)
        v = ad.Tensor(v0, requires_grad=True)
        out = F.index_add(ad.Tensor(np.zeros(2)), idx, v * v)
        (g,) = ad.grad(out.sum(), [v], create_graph=True)  # 2v
        z = (g * g).sum()  # 4 v^2
        z.backward()
        assert np.allclose(v.grad, 8.0 * v0)
