"""Differentiable primitives.

Every function here returns a :class:`~repro.autodiff.tensor.Tensor`
with one vector-Jacobian product per parent, each written in terms of
other primitives, which is what makes second-order differentiation
(needed for force training) work without any special casing — and what
lets the backward pass skip a parent nobody wants the gradient of.

Numerical-stability notes are attached to the activations: ``softplus``
and ``sigmoid`` use the standard exp-overflow-safe forms since the HPO
search deliberately wanders into extreme learning rates that push
pre-activations far from zero.
"""

from __future__ import annotations

import weakref
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.autodiff.tensor import ArrayLike, Tensor, as_tensor, make_op

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "exp",
    "log",
    "sqrt",
    "square",
    "abs",
    "tanh",
    "sigmoid",
    "softplus",
    "relu",
    "relu6",
    "maximum",
    "minimum",
    "where",
    "clip",
    "matmul",
    "matmul_tn",
    "matmul_nt",
    "sum",
    "mean",
    "reshape",
    "transpose",
    "swapaxes",
    "getitem",
    "take",
    "index_add",
    "concatenate",
    "stack",
    "unbroadcast",
    "dot",
]

_py_sum = sum
_py_abs = abs


def unbroadcast(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce ``t`` to ``shape`` by summing broadcast axes (differentiable)."""
    if t.shape == tuple(shape):
        return t
    extra = t.ndim - len(shape)
    if extra > 0:
        t = sum(t, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and t.shape[i] != 1)
    if axes:
        t = sum(t, axis=axes, keepdims=True)
    return reshape(t, tuple(shape))


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    vjps = (
        lambda g: unbroadcast(g, a.shape),
        lambda g: unbroadcast(g, b.shape),
    )
    return make_op(a.data + b.data, (a, b), vjps, "add")


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    vjps = (
        lambda g: unbroadcast(g, a.shape),
        lambda g: unbroadcast(neg(g), b.shape),
    )
    return make_op(a.data - b.data, (a, b), vjps, "sub")


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    vjps = (
        lambda g: unbroadcast(mul(g, b), a.shape),
        lambda g: unbroadcast(mul(g, a), b.shape),
    )
    return make_op(a.data * b.data, (a, b), vjps, "mul")


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    vjps = (
        lambda g: unbroadcast(div(g, b), a.shape),
        lambda g: unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape),
    )
    return make_op(a.data / b.data, (a, b), vjps, "div")


def neg(a: ArrayLike) -> Tensor:
    a = as_tensor(a)

    return make_op(-a.data, (a,), (neg,), "neg")


def power(a: ArrayLike, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant (non-tensor) exponent."""
    a = as_tensor(a)
    p = float(exponent)

    def vjp(g: Tensor):
        return mul(g, mul(power(a, p - 1.0), p))

    return make_op(a.data**p, (a,), (vjp,), "power")


def square(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    return mul(a, a)


def exp(a: ArrayLike) -> Tensor:
    a = as_tensor(a)

    def vjp(g: Tensor):
        return mul(g, out())

    result = make_op(np.exp(a.data), (a,), (vjp,), "exp")
    out = weakref.ref(result)  # a node holding itself is left to the GC
    return result


def log(a: ArrayLike) -> Tensor:
    a = as_tensor(a)

    def vjp(g: Tensor):
        return div(g, a)

    return make_op(np.log(a.data), (a,), (vjp,), "log")


def sqrt(a: ArrayLike) -> Tensor:
    a = as_tensor(a)

    def vjp(g: Tensor):
        return div(g, mul(out(), 2.0))

    result = make_op(np.sqrt(a.data), (a,), (vjp,), "sqrt")
    out = weakref.ref(result)
    return result


def abs(a: ArrayLike) -> Tensor:  # noqa: A001 - mirrors numpy naming
    a = as_tensor(a)
    sign = np.sign(a.data)

    def vjp(g: Tensor):
        return mul(g, Tensor(sign))

    return make_op(np.abs(a.data), (a,), (vjp,), "abs")


# ----------------------------------------------------------------------
# activations (the five searched over in the paper, §2.2.1)
# ----------------------------------------------------------------------
def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # exp-overflow-safe logistic without gathers: with e = exp(-|x|),
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, both from one divide
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


class _SmoothActivation(NamedTuple):
    """How a smooth activation's derivative depends on the tensor its
    forward pass saved (its output ``y``, or its input ``x``).

    ``derivs[0]`` is ``f'`` as an array function of the saved array and
    ``derivs[k + 1]`` the derivative of ``derivs[k]`` with respect to
    it; each also gets the array of the order below (``None`` for
    ``f'``), so softplus's ``f''`` reuses its ``f'``.  ``tail`` is the
    derivative of the last of them as a composite of primitives,
    differentiable to any order — force training stops one short of it.
    """

    name: str
    derivs: tuple[
        Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray], ...
    ]
    tail: Callable[[Tensor], ArrayLike]


def _sigmoid_third(x: Tensor) -> Tensor:
    s = sigmoid(x)
    return mul(mul(s, sub(1.0, s)), sub(1.0, mul(s, 2.0)))


def _logistic_slope(y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


_TANH = _SmoothActivation(
    "tanh",
    (lambda y, _: 1.0 - y * y, lambda y, _: y * -2.0),
    lambda y: -2.0,
)
_SIGMOID = _SmoothActivation(
    "sigmoid",
    (lambda y, _: _logistic_slope(y), lambda y, _: 1.0 - y * 2.0),
    lambda y: -2.0,
)
_SOFTPLUS = _SmoothActivation(
    "softplus",
    (lambda x, _: _sigmoid_data(x), lambda x, s: _logistic_slope(s)),
    _sigmoid_third,
)


class _Slopes:
    """One activation call's derivative arrays, each computed from the
    saved tensor on first use and kept while the graph lives: a
    training step multiplies by ``f'`` three times per layer.

    The saved tensor is held weakly.  It is the node whose vjp holds
    this object, or a parent of it, so it is alive whenever
    :meth:`times` runs — and a strong reference would close a cycle
    that keeps every step's graph, arrays included, until the cyclic
    collector gets to it.
    """

    __slots__ = ("rule", "saved", "arrays")

    def __init__(self, rule: _SmoothActivation, saved: Tensor) -> None:
        self.rule = rule
        self.saved = weakref.ref(saved)
        self.arrays: dict[int, np.ndarray] = {}

    def times(self, g: Tensor, order: int = 0) -> Tensor:
        """``g * derivs[order](saved)`` as one tape node.

        It is linear in ``g``, so that vjp is the same node over the
        incoming gradient; the vjp of ``saved`` is the node one order
        up.
        """
        rule, saved = self.rule, self.saved()
        if order == len(rule.derivs):
            return mul(g, rule.tail(saved))
        slope = self.arrays.get(order)
        if slope is None:
            # order k > 0 is asked for only by the node of order k - 1,
            # whose array is kept
            slope = self.arrays[order] = rule.derivs[order](
                saved.data, self.arrays.get(order - 1)
            )
        vjps = (
            lambda gg: self.times(gg, order),
            lambda gg: self.times(mul(gg, g), order + 1),
        )
        return make_op(g.data * slope, (g, saved), vjps, rule.name + "_grad")


def tanh(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out = make_op(np.tanh(a.data), (a,), (lambda g: slopes.times(g),), "tanh")
    slopes = _Slopes(_TANH, out)
    return out


def sigmoid(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    out = make_op(
        _sigmoid_data(a.data), (a,), (lambda g: slopes.times(g),), "sigmoid"
    )
    slopes = _Slopes(_SIGMOID, out)
    return out


def softplus(a: ArrayLike) -> Tensor:
    """``log(1 + exp(x))`` computed as ``max(x, 0) + log1p(exp(-|x|))``."""
    a = as_tensor(a)
    x = a.data
    out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    slopes = _Slopes(_SOFTPLUS, a)
    return make_op(out_data, (a,), (slopes.times,), "softplus")


def relu(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    mask = (a.data > 0.0).astype(np.float64)

    def vjp(g: Tensor):
        return mul(g, Tensor(mask))

    return make_op(a.data * mask, (a,), (vjp,), "relu")


def relu6(a: ArrayLike) -> Tensor:
    """``min(max(x, 0), 6)`` — the capped ReLU searched by the paper."""
    a = as_tensor(a)
    mask = ((a.data > 0.0) & (a.data < 6.0)).astype(np.float64)

    def vjp(g: Tensor):
        return mul(g, Tensor(mask))

    return make_op(np.clip(a.data, 0.0, 6.0), (a,), (vjp,), "relu6")


def _select_vjps(take_a: np.ndarray, a: Tensor, b: Tensor):
    """Vjps of an elementwise choice between ``a`` (where the 0/1 array
    ``take_a`` is 1) and ``b``."""
    return (
        lambda g: unbroadcast(mul(g, Tensor(take_a)), a.shape),
        lambda g: unbroadcast(mul(g, Tensor(1.0 - take_a)), b.shape),
    )


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise max; ties send the full gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = (a.data >= b.data).astype(np.float64)

    return make_op(
        np.maximum(a.data, b.data), (a, b), _select_vjps(take_a, a, b), "maximum"
    )


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise min; ties send the full gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = (a.data <= b.data).astype(np.float64)

    return make_op(
        np.minimum(a.data, b.data), (a, b), _select_vjps(take_a, a, b), "minimum"
    )


def where(cond: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Select ``a`` where ``cond`` (a constant boolean array) else ``b``."""
    a, b = as_tensor(a), as_tensor(b)
    c = np.asarray(cond, dtype=bool)
    cf = c.astype(np.float64)

    return make_op(
        np.where(c, a.data, b.data), (a, b), _select_vjps(cf, a, b), "where"
    )


def clip(a: ArrayLike, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)
    mask = ((a.data > lo) & (a.data < hi)).astype(np.float64)

    def vjp(g: Tensor):
        return mul(g, Tensor(mask))

    return make_op(np.clip(a.data, lo, hi), (a,), (vjp,), "clip")


# ----------------------------------------------------------------------
# linear algebra / reductions / shape
# ----------------------------------------------------------------------
def matmul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Batched matrix multiplication with NumPy broadcasting semantics.

    Supports 1-D operands with the usual promotion rules; batch
    dimensions broadcast, and gradients are summed back down.
    """
    a, b = as_tensor(a), as_tensor(b)
    a_vec = a.ndim == 1
    b_vec = b.ndim == 1

    def lift(g: Tensor) -> Tensor:
        """``g`` with the axes 1-D operands dropped put back."""
        if a_vec and b_vec:
            return reshape(g, (1, 1))
        if a_vec:
            # (n,) @ (..., n, m) -> (..., m); lift g to (..., 1, m)
            return reshape(g, g.shape[:-1] + (1, g.shape[-1]))
        if b_vec:
            return reshape(g, g.shape + (1,))
        return g

    def vjp_a(g: Tensor):
        b2 = reshape(b, (-1, 1)) if b_vec else b
        ga = matmul_nt(lift(g), b2)
        if a_vec:
            return reshape(unbroadcast(ga, (1, a.shape[0])), a.shape)
        return unbroadcast(ga, a.shape)

    def vjp_b(g: Tensor):
        a2 = reshape(a, (1, -1)) if a_vec else a
        gb = matmul_tn(a2, lift(g))
        if b_vec:
            return reshape(unbroadcast(gb, (b.shape[0], 1)), b.shape)
        return unbroadcast(gb, b.shape)

    return make_op(a.data @ b.data, (a, b), (vjp_a, vjp_b), "matmul")


def matmul_tn(a: ArrayLike, b: ArrayLike) -> Tensor:
    """``a^T @ b`` over the last two axes as one node: the sum over the
    row axis both operands share, ``(..., k, n), (..., k, p) -> (..., n, p)``.

    The transpose is a view, never a copy or a tape node.  With
    :func:`matmul_nt` this is a pair of mutual adjoints: each one's
    vjps are a :func:`matmul` and the other one.
    """
    a, b = as_tensor(a), as_tensor(b)

    vjps = (
        lambda g: unbroadcast(matmul_nt(b, g), a.shape),
        lambda g: unbroadcast(matmul(a, g), b.shape),
    )
    return make_op(
        a.data.swapaxes(-1, -2) @ b.data, (a, b), vjps, "matmul_tn"
    )


def matmul_nt(a: ArrayLike, b: ArrayLike) -> Tensor:
    """``a @ b^T`` over the last two axes as one node: the sum over the
    column axis both operands share, ``(..., n, k), (..., p, k) -> (..., n, p)``."""
    a, b = as_tensor(a), as_tensor(b)

    vjps = (
        lambda g: unbroadcast(matmul(g, b), a.shape),
        lambda g: unbroadcast(matmul_tn(g, a), b.shape),
    )
    return make_op(
        a.data @ b.data.swapaxes(-1, -2), (a, b), vjps, "matmul_nt"
    )


def dot(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Inner product of two 1-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("dot expects 1-D tensors; use matmul for matrices")
    return sum(mul(a, b))


def sum(  # noqa: A001 - mirrors numpy naming
    a: ArrayLike,
    axis: Union[None, int, tuple[int, ...]] = None,
    keepdims: bool = False,
) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape

    if axis is None:
        axes: tuple[int, ...] = tuple(range(a.ndim))
    elif isinstance(axis, int):
        axes = (axis % a.ndim,)
    else:
        axes = tuple(ax % a.ndim for ax in axis)
    out_data = _sum_data(a.data, axes, keepdims)

    def vjp(g: Tensor):
        if not keepdims:
            shape_kept = tuple(
                1 if i in axes else s for i, s in enumerate(in_shape)
            )
            g = reshape(g, shape_kept)
        return broadcast_to(g, in_shape)

    return make_op(out_data, (a,), (vjp,), "sum")


def _sum_data(x: np.ndarray, axes: tuple[int, ...], keepdims: bool) -> np.ndarray:
    """``x.sum(axes)``, as a product with a ones vector when the axes
    are one run of adjacent axes of a contiguous array, strided in
    memory (axes after them left over).

    NumPy adds along such a run one strided element at a time — the
    bias gradient of a layer over 27 k rows, the sum over each atom's
    neighbour slots — while BLAS does the same sum in one pass, several
    times faster; it rounds differently from NumPy's pairwise summation
    (DESIGN.md §10).  A run at the end of the array is contiguous
    memory, which NumPy already sums pairwise at full speed.
    """
    first = min(axes, default=0)
    stop = first + len(axes)
    shape = x.shape
    post = int(np.prod(shape[stop:]))
    if (
        post == 1
        or not axes
        or sorted(axes) != list(range(first, stop))
        or not x.flags.c_contiguous
    ):
        return x.sum(axis=axes, keepdims=keepdims)
    run = int(np.prod(shape[first:stop]))
    pre = int(np.prod(shape[:first]))
    out = np.matmul(np.ones(run), x.reshape(pre, run, post))
    kept = (1,) * len(axes) if keepdims else ()
    return out.reshape(shape[:first] + kept + shape[stop:])


def mean(
    a: ArrayLike,
    axis: Union[None, int, tuple[int, ...]] = None,
    keepdims: bool = False,
) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, int):
        count = a.shape[axis]
    else:
        count = 1
        for ax in axis:
            count *= a.shape[ax]
    return div(sum(a, axis=axis, keepdims=keepdims), float(count))


def broadcast_to(a: ArrayLike, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape

    def vjp(g: Tensor):
        return unbroadcast(g, in_shape)

    return make_op(
        np.broadcast_to(a.data, shape).copy(), (a,), (vjp,), "broadcast_to"
    )


def reshape(a: ArrayLike, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape

    def vjp(g: Tensor):
        return reshape(g, in_shape)

    return make_op(a.data.reshape(shape), (a,), (vjp,), "reshape")


def transpose(a: ArrayLike, axes: Optional[Sequence[int]] = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g: Tensor):
        return transpose(g, inverse)

    return make_op(a.data.transpose(axes), (a,), (vjp,), "transpose")


def swapaxes(a: ArrayLike, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)

    def vjp(g: Tensor):
        return swapaxes(g, ax1, ax2)

    return make_op(a.data.swapaxes(ax1, ax2), (a,), (vjp,), "swapaxes")


def getitem(a: ArrayLike, idx) -> Tensor:
    """Basic and advanced indexing; backward scatter-adds into zeros."""
    a = as_tensor(a)
    in_shape = a.shape

    def vjp(g: Tensor):
        return _scatter(g, idx, in_shape)

    return make_op(a.data[idx], (a,), (vjp,), "getitem")


def _scatter(g: Tensor, idx, shape: tuple[int, ...]) -> Tensor:
    """Place ``g`` into a zero tensor of ``shape`` at ``idx`` (add-mode)."""
    zero = Tensor(np.zeros(shape))
    return _scatter_add(zero, idx, g)


def _is_basic_index(idx) -> bool:
    """Whether ``idx`` selects by ints, slices, ``...`` and ``None`` only."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(
        p is None or p is Ellipsis or isinstance(p, (int, np.integer, slice))
        for p in parts
    )


def _scatter_add(base: Tensor, idx, values: Tensor) -> Tensor:
    base, values = as_tensor(base), as_tensor(values)

    out_data = base.data.copy()
    if _is_basic_index(idx):
        # basic indexing never visits an element twice
        out_data[idx] += values.data
    else:
        np.add.at(out_data, idx, values.data)
    vjps = (lambda g: g, lambda g: getitem(g, idx))
    return make_op(out_data, (base, values), vjps, "scatter_add")


def _add_at_axis(
    out: np.ndarray, indices: np.ndarray, values: np.ndarray, axis: int
) -> None:
    """``out[indices] += values`` along ``axis``, in place, a repeated
    index accumulating in index order (``np.add.at``).

    Rows scattered into an all-zero matrix are summed per column by
    ``np.bincount`` instead: it adds in the same sequential order
    starting from the same zeros, so the bits are the same.
    """
    if axis != 0:
        out = np.moveaxis(out, axis, 0)
        values = np.moveaxis(values, axis, 0)
    if (
        out.ndim == 2
        and indices.ndim == 1
        and values.shape == (len(indices), out.shape[1])
        and len(indices)
        and indices.min() >= 0
        and indices.max() < len(out)
        and not out.any()
    ):
        for col in range(out.shape[1]):
            out[:, col] = np.bincount(
                indices, weights=values[:, col], minlength=len(out)
            )
    else:
        np.add.at(out, indices, values)


def take(a: ArrayLike, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Gather rows along ``axis`` with an integer index array."""
    a = as_tensor(a)
    indices = np.asarray(indices)
    in_shape = a.shape

    def vjp(g: Tensor):
        return _take_adjoint(g, indices, in_shape, axis)

    return make_op(np.take(a.data, indices, axis=axis), (a,), (vjp,), "take")


def _take_adjoint(
    g: Tensor, indices: np.ndarray, shape: tuple[int, ...], axis: int
) -> Tensor:
    """Adjoint of :func:`take`: scatter-add ``g`` back along ``axis``."""
    g = as_tensor(g)

    def vjp(gg: Tensor):
        return take(gg, indices, axis=axis)

    out_data = np.zeros(shape)
    _add_at_axis(out_data, indices, g.data, axis)
    return make_op(out_data, (g,), (vjp,), "take_adjoint")


def index_add(
    base: ArrayLike, indices: np.ndarray, values: ArrayLike, axis: int = 0
) -> Tensor:
    """``base`` with ``values`` scatter-added at ``indices`` along ``axis``.

    This is the primitive used to accumulate per-pair force
    contributions onto per-atom force vectors; its adjoint w.r.t.
    ``values`` is a gather, so the whole force pipeline stays twice
    differentiable.
    """
    base, values = as_tensor(base), as_tensor(values)
    indices = np.asarray(indices)

    out_data = base.data.copy()
    _add_at_axis(out_data, indices, values.data, axis)
    vjps = (lambda g: g, lambda g: take(g, indices, axis=axis))
    return make_op(out_data, (base, values), vjps, "index_add")


def concatenate(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def part(i: int):
        def vjp(g: Tensor):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            return getitem(g, tuple(sl))

        return vjp

    return make_op(
        np.concatenate([t.data for t in ts], axis=axis),
        tuple(ts),
        tuple(part(i) for i in range(len(ts))),
        "concat",
    )


def stack(tensors: Sequence[ArrayLike], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]

    def part(i: int):
        def vjp(g: Tensor):
            sl = [slice(None)] * g.ndim
            sl[axis] = i
            return getitem(g, tuple(sl))

        return vjp

    return make_op(
        np.stack([t.data for t in ts], axis=axis),
        tuple(ts),
        tuple(part(i) for i in range(len(ts))),
        "stack",
    )
