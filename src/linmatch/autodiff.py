"""Minimal reverse-mode automatic differentiation over numpy arrays.

All network math in this package (attention kernels, encoder layers, losses)
is written against the `Tensor` type defined here, so a single implementation
serves both inference and training.  Inference wraps arrays in `no_grad()`
mode, in which no tape is recorded and the op functions reduce to plain numpy
calls plus a constant-time dispatch.

The op set is deliberately small, and ops are plain functions (`Tensor` has
no operator overloads): `add`, `sub`, `mul` and `div` with broadcasting,
`matmul`, `tsum`, `relu`, `sqrt`, a row gather, two-way column concatenation
and a fused layer norm; gradients of broadcast ops are reduced back to the
operand shape by `_unbroadcast`.  The attention kernels apply the feature map
`phi_array`, split heads and scatter neighborhood rows inside their own fused
ops, built through `node` with a hand-written backward.

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


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data
    note_mul(out_data.size)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

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


def sqrt(a):
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / out_data)

    return node(out_data, (a,), backward)


def concat_cols(a, b):
    """Concatenate two 2-D tensors along axis 1."""
    a, b = as_tensor(a), as_tensor(b)
    na = a.data.shape[1]
    out_data = np.concatenate([a.data, b.data], axis=1)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g[:, :na])
        if b.requires_grad:
            b._accumulate(g[:, na:])

    return node(out_data, (a, b), backward)


def gather_rows(a, idx):
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return node(out_data, (a,), backward)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize each row to zero mean / unit variance, then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    nf = x.data.shape[1]
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xn = xc * inv
    out_data = xn * gamma.data + beta.data
    note_mul(out_data.size)

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xn).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if x.requires_grad:
            dxn = g * gamma.data
            term = nf * dxn - dxn.sum(axis=1, keepdims=True) - xn * (dxn * xn).sum(axis=1, keepdims=True)
            x._accumulate(inv / nf * term)

    return node(out_data, (x, gamma, beta), backward)


def row_l2_normalize(x):
    """Divide each row by its Euclidean norm (rows must be nonzero)."""
    norms = sqrt(tsum(mul(x, x), axis=1, keepdims=True))
    return div(x, norms)
