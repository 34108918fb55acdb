"""The :class:`Tensor` type and the reverse-mode differentiation core.

Design
------
A :class:`Tensor` wraps a ``float64`` NumPy array plus, when it was
produced by a differentiable primitive, a tuple of parent tensors and
one *vector-Jacobian product* closure per parent,
``vjps[i](g) -> Tensor | None``.  Crucially, every vjp is written in
terms of Tensor operations, so running the backward pass while gradient
recording is enabled yields gradient tensors that are themselves nodes
of a differentiable graph.  That property gives us double-backward —
required for training on forces, which are first-order gradients of the
predicted energy.

The backward pass is demand-driven: it visits only the nodes that lie
on a path from the output to a requested target and calls only the vjps
of parents on such a path, so a gradient nobody asked for (a weight's,
while the forces are taken; a constant's, ever) is never computed.
What it does compute is accumulated in the order a propagate-everything
pass would use, so the results are the same bit for bit.

The pass is iterative (explicit topological order, no recursion) so
deep graphs — e.g. a 2000-step unrolled descriptor — do not hit
Python's recursion limit.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]
#: one parent's share of a node's backward pass
Vjp = Callable[["Tensor"], Optional["Tensor"]]

_state = threading.local()


def is_grad_enabled() -> bool:
    """Whether new operations are being recorded onto the tape."""
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Operations performed inside produce constant tensors; use it for
    evaluation passes where gradients are not needed.
    """
    prev = is_grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """A NumPy array with a gradient tape.

    Parameters
    ----------
    data:
        Anything convertible to a ``float64`` ndarray.
    requires_grad:
        Mark this tensor as a differentiation leaf.  Calling
        :meth:`backward` on a scalar downstream of it will accumulate
        into :attr:`grad`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_vjps",
        "name",
        "__weakref__",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        *,
        _parents: tuple["Tensor", ...] = (),
        _vjps: tuple[Vjp, ...] = (),
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjps = _vjps
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def is_leaf(self) -> bool:
        """True when this tensor was not produced by a recorded op."""
        return not self._parents

    def numpy(self) -> np.ndarray:
        """The underlying array (a direct reference, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A constant tensor sharing this tensor's data."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor({np.array2string(self.data, precision=6)}{grad_flag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # operator sugar (implementations live in repro.autodiff.functional)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import functional as F

        return F.add(self, other)

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import functional as F

        return F.mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import functional as F

        return F.sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import functional as F

        return F.sub(other, self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import functional as F

        return F.div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import functional as F

        return F.div(other, self)

    def __neg__(self) -> "Tensor":
        from repro.autodiff import functional as F

        return F.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.autodiff import functional as F

        return F.power(self, exponent)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        from repro.autodiff import functional as F

        return F.matmul(self, other)

    def __getitem__(self, idx) -> "Tensor":
        from repro.autodiff import functional as F

        return F.getitem(self, idx)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        from repro.autodiff import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        from repro.autodiff import functional as F

        return F.transpose(self, axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, a: int, b: int) -> "Tensor":
        from repro.autodiff import functional as F

        return F.swapaxes(self, a, b)

    # ------------------------------------------------------------------
    # differentiation
    # ------------------------------------------------------------------
    def backward(self, gradient: Optional[ArrayLike] = None) -> None:
        """Accumulate ``d(self)/d(leaf)`` into the :attr:`grad` of every
        reachable leaf that requires grad — the only gradients computed.

        ``gradient`` seeds the backward pass; it defaults to ones (and
        for a scalar output that is the conventional ``1.0``).
        """
        if gradient is None:
            seed = Tensor(np.ones_like(self.data))
        else:
            seed = as_tensor(gradient)
        order = _toposort(self)
        leaves = [n for n in order if n.requires_grad and n.is_leaf]
        grads = _backprop(order, seed, leaves, create_graph=False)
        for leaf in leaves:
            g = grads.get(id(leaf))
            if g is None:
                continue
            contrib = _unbroadcast_data(g.data, leaf.data.shape)
            if leaf.grad is None:
                leaf.grad = contrib.copy()
            else:
                leaf.grad = leaf.grad + contrib


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _toposort(root: Tensor) -> list[Tensor]:
    """Reverse topological order (outputs first) via iterative DFS."""
    order: list[Tensor] = []
    visited: set[int] = set()
    # stack of (node, child_index)
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    on_stack: set[int] = {id(root)}
    while stack:
        node, idx = stack[-1]
        if idx < len(node._parents):
            stack[-1] = (node, idx + 1)
            child = node._parents[idx]
            if id(child) not in visited and id(child) not in on_stack:
                stack.append((child, 0))
                on_stack.add(id(child))
        else:
            stack.pop()
            on_stack.discard(id(node))
            visited.add(id(node))
            order.append(node)
    order.reverse()
    return order


def _unbroadcast_data(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _backprop(
    order: Sequence[Tensor],
    seed: Tensor,
    targets: Iterable[Tensor],
    create_graph: bool,
) -> dict[int, Tensor]:
    """Propagate ``seed`` backward from ``order[0]`` towards ``targets``.

    ``order`` is the output's :func:`_toposort`.  Only nodes on a path
    from the output to a target are visited, and of their vjps only
    those of parents on such a path are called.  Returns the
    (Tensor-valued) gradient of every visited node, keyed by ``id``.
    When ``create_graph`` is false the vjp evaluations run under
    :func:`no_grad`, producing constant gradient tensors.
    """
    from repro.autodiff import functional as F

    output = order[0]
    if seed.data.shape != output.data.shape:
        raise ValueError(
            f"seed gradient shape {seed.data.shape} does not match output "
            f"shape {output.data.shape}"
        )
    # parents come after their children in ``order``: walking it
    # backwards marks a node once all of its parents are decided
    demand = {id(t) for t in targets}
    for node in reversed(order):
        if any(id(p) in demand for p in node._parents):
            demand.add(id(node))
    grads: dict[int, Tensor] = {id(output): seed}
    ctx = contextlib.nullcontext() if create_graph else no_grad()
    with ctx:
        for node in order:
            g = grads.get(id(node))
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                if id(parent) not in demand:
                    continue
                pg = vjp(g)
                if pg is None:
                    continue
                existing = grads.get(id(parent))
                grads[id(parent)] = (
                    pg if existing is None else F.add(existing, pg)
                )
    return grads


def grad(
    output: Tensor,
    inputs: Iterable[Tensor],
    grad_output: Optional[ArrayLike] = None,
    create_graph: bool = False,
    allow_unused: bool = False,
) -> list[Tensor]:
    """Compute ``d(output)/d(input)`` for each input — and for nothing
    that does not lie between the output and an input.

    Unlike :meth:`Tensor.backward`, this does not mutate ``.grad``; it
    returns gradient tensors directly.  With ``create_graph=True`` the
    returned tensors participate in the tape, so they can be
    differentiated again (the double-backward used by force training).
    """
    inputs = list(inputs)
    if grad_output is None:
        seed = Tensor(np.ones_like(output.data))
    else:
        seed = as_tensor(grad_output)
    order = _toposort(output)
    table = _backprop(order, seed, inputs, create_graph=create_graph)
    from repro.autodiff import functional as F

    out: list[Tensor] = []
    ctx = contextlib.nullcontext() if create_graph else no_grad()
    with ctx:
        for inp in inputs:
            g = table.get(id(inp))
            if g is None:
                if not allow_unused:
                    raise ValueError(
                        "one of the requested inputs is not part of the graph "
                        "reaching the output (pass allow_unused=True to get "
                        "zeros instead)"
                    )
                g = Tensor(np.zeros_like(inp.data))
            elif g.data.shape != inp.data.shape:
                g = F.unbroadcast(g, inp.data.shape)
            out.append(g)
    return out


def make_op(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    vjps: tuple[Vjp, ...],
    name: Optional[str] = None,
) -> Tensor:
    """Construct the output tensor of a primitive operation.

    ``vjps[i]`` maps the output's gradient to ``parents[i]``'s share of
    it (``None`` for no contribution).  Records the tape edge only when
    gradient recording is enabled and at least one parent requires (or
    carries) gradients.
    """
    track = is_grad_enabled() and any(
        p.requires_grad or p._parents for p in parents
    )
    if track:
        return Tensor(data, _parents=parents, _vjps=vjps, name=name)
    return Tensor(data, name=name)
