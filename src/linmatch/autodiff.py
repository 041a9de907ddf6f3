"""Minimal reverse-mode automatic differentiation over numpy arrays.

All network math in this package (attention kernels, encoder layers, losses)
is written against the `Tensor` type defined here, so a single implementation
serves both inference and training.  Inference wraps arrays in `no_grad()`
mode, in which no tape is recorded and the op functions reduce to plain numpy
calls plus a constant-time dispatch.

The op set is deliberately small, and ops are plain functions (`Tensor` has
no operator overloads): `add`, `sub` and `mul` with broadcasting, `matmul`,
`tsum`, `relu`, a row gather and row L2 normalization; gradients of broadcast
ops are reduced back to the operand shape by `_unbroadcast`.  Encoder layers
are fused ops built elsewhere through `node` with a hand-written backward:
projected attention (it applies the feature map `phi_array`, splits heads
and scatters neighborhood rows) and the feed-forward block.

A thread-local operation counter can be enabled with `count_ops()`; it records
multiply counts and every allocated result shape (fused ops report their
intermediates through `note_mul`/`note_alloc`), which is how the complexity
audit asserts that the linear-attention path never materializes an
N-by-M buffer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class OpCounter:
    """Tally of multiplies and array allocations made by tensor ops."""

    def __init__(self):
        self.multiplies = 0
        self.allocations = []  # list of shape tuples

    def note_alloc(self, shape):
        self.allocations.append(tuple(shape))

    def max_allocation(self) -> int:
        return max((int(np.prod(s)) for s in self.allocations), default=0)

    def has_allocation(self, shape) -> bool:
        return tuple(shape) in self.allocations


def _counter() -> OpCounter | None:
    return getattr(_state, "op_counter", None)


@contextmanager
def count_ops():
    """Enable op counting inside the block; yields the counter."""
    prev = _counter()
    counter = OpCounter()
    _state.op_counter = counter
    try:
        yield counter
    finally:
        _state.op_counter = prev


def note_alloc(arr):
    """Record an allocated array's shape with the active counter, if any."""
    c = _counter()
    if c is not None and arr.ndim >= 1:
        c.note_alloc(arr.shape)


def note_mul(size):
    """Record `size` multiplies with the active counter, if any."""
    c = _counter()
    if c is not None:
        c.multiplies += size


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad and _grad_enabled()
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self, grad=None):
        """Reverse-mode sweep from this node (typically a scalar loss)."""
        if grad is None:
            grad = np.ones_like(self.data)
        topo, seen = [], set()

        def visit(t):
            if id(t) in seen or not t.requires_grad:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(self)
        visit = None  # drop the closure's self-reference: the graph is freed on return, not by gc
        self._accumulate(grad)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def node(data, parents, backward):
    """Result Tensor of an op (here or fused elsewhere); `backward(g)` feeds the parents."""
    note_alloc(data)
    need = _grad_enabled() and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=need, _parents=parents, _backward=backward if need else None)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return node(out_data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return node(out_data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data
    note_mul(out_data.size)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return node(out_data, (a, b), backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data
    note_mul(a.data.size * (b.data.shape[1] if b.data.ndim == 2 else 1))  # n * k * m

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T if b.data.ndim == 2 else np.outer(g, b.data))
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return node(out_data, (a, b), backward)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return node(out_data, (a,), backward)


def phi_array(x):
    """Positive feature map elu(x) + 1 on an array: x + 1 for x >= 0, exp(x) below,
    computed as exp(min(x, 0)) + max(x, 0) (fewer passes than `np.where`)."""
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def relu(a):
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        # subgradient 0 at the kink
        a._accumulate(g * (a.data > 0))

    return node(out_data, (a,), backward)


def gather_rows(a, idx):
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return node(out_data, (a,), backward)


def row_l2_normalize(x):
    """Divide each row by its Euclidean norm (rows must be nonzero)."""
    x = as_tensor(x)
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    note_mul(2 * x.data.size)

    def backward(g):
        # g / norm, then the two shares of x * x: the separate ops' formulas and order
        x._accumulate(g / norms)
        gs = (-g * x.data / (norms * norms)).sum(axis=1, keepdims=True) * 0.5 / norms
        x._accumulate(gs * x.data)
        x._accumulate(gs * x.data)

    return node(x.data / norms, (x,), backward)
