"""Minimal reverse-mode automatic differentiation over numpy arrays.

All network math in this package (attention kernels, encoder layers, the
loss) is written against the `Tensor` type defined here, so a single
implementation serves both inference and training.  There is one rule: a node
records its parents and backward iff a parent requires gradients.  Inference
passes array weights, so nothing on its path requires gradients and it records
nothing; its ops are plain numpy calls plus a constant-time dispatch.

There is no generic op set: every op is fused, built through `node` with a
hand-written backward, and `Tensor` has no operator overloads.  This module
holds row L2 normalization; the others are projected attention (it applies
the feature map `phi_array`, splits heads and scatters neighborhood rows),
the feed-forward block and layer 0's carrier in `encoder`, and the triplet
loss and its confidence in `training`.  Each backward uses the formulas of the
separate ops it replaced (add, sub, mul, matmul, sum, relu, row gather;
`tests/reference_ops` keeps them) and feeds shared inputs in their order, so
gradients keep their bits.  The sweep visits parents depth first, in listed
order, and runs the nodes in reverse, so a parent listed first gives its
shares after those given through later parents: the loss lists its confidence
first, so that its shares reach f last.

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


class _State(threading.local):
    # the per-thread default as a class attribute: every op reads it, and reading a
    # thread-local attribute never set is a failed lookup, about six times slower
    op_counter = None


_state = _State()


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


@contextmanager
def count_ops():
    """Enable op counting inside the block; yields the counter."""
    prev = _state.op_counter
    counter = OpCounter()
    _state.op_counter = counter
    try:
        yield counter
    finally:
        _state.op_counter = prev


def note_alloc(arr):
    """Record an allocated array's shape with the active counter, if any."""
    c = _state.op_counter
    if c is not None and arr.ndim >= 1:
        c.note_alloc(arr.shape)


def note_mul(size):
    """Record `size` multiplies with the active counter, if any."""
    c = _state.op_counter
    if c is not None:
        c.multiplies += size


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from this node (typically a scalar loss), seeded with ones."""
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
        self._accumulate(np.ones_like(self.data))
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data, parents, backward):
    """Result Tensor of an op (here or fused elsewhere); `backward(g)` feeds the parents."""
    note_alloc(data)
    need = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=need, _parents=parents, _backward=backward)


def phi_array(x):
    """Positive feature map elu(x) + 1 on an array: x + 1 for x >= 0, exp(x) below,
    computed as exp(min(x, 0)) + max(x, 0) (fewer passes than `np.where`)."""
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out += np.maximum(x, 0.0)
    return out


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
