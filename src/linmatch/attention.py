"""Attention kernels: linear, neighborhood-restricted, and softmax.

Multi-head attention splits the C' columns into `heads` contiguous groups of
d = C' / heads.  The linear and restricted kernels view their inputs as
(rows, heads, d) arrays and serve every head with the same batched numpy
calls; each is one autodiff op with a hand-written backward.

The linear kernel replaces the N-by-M weight matrix with per-head
accumulators built from the positive feature map phi(x) = elu(x) + 1,
K_v = phi(K)^T V (d x d) and K_m = sum_j phi(K_j), and gives query row i
(phi(Q_i) K_v) / (phi(Q_i) . K_m) at cost O((M + N) C' d).  K_m is the last
column of K_v once V gets a ones column, so one product yields numerator and
denominator; phi > 0, so the denominator never vanishes.

The restricted kernel applies the same ratio within the neighborhoods of a
`Membership`, which `build_neighborhoods` returns and which checks every set
once, when built.  It holds them as arrays, with no per-neighborhood records:
each side's member rows, set after set (CSR segments).  K_v is summed over a
segment's key rows and applied to its query rows by one batched matmul per
distinct segment size (never a d x d product per member), and the results are
sum-scattered into the output rows: rows outside every neighborhood stay
exactly zero, rows in several get the plain sum.  The reverse direction
(target rows querying source rows) swaps the two sides.  The linear kernel
is the same op with one segment holding every row.

The softmax kernel is a single-head numpy reference (correctness oracle and
complexity baseline) that deliberately materializes the N-by-M weight
matrix.  The other kernels take numpy arrays or autodiff Tensors; numpy in,
numpy out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor


@dataclass
class ProjectedTriplet:
    """Query/key/value matrices sharing column count; K and V share rows."""

    q: object  # N x C' array or Tensor
    k: object  # M x C'
    v: object  # M x C'

    def __post_init__(self):
        qs, ks, vs = (_shape(x) for x in (self.q, self.k, self.v))
        if ks[0] != vs[0]:
            raise ValueError(f"key/value row mismatch: {ks[0]} vs {vs[0]}")
        if not (qs[1] == ks[1] == vs[1]):
            raise ValueError(f"column mismatch: q={qs[1]} k={ks[1]} v={vs[1]}")


class NeighborhoodPair(NamedTuple):
    """A matched seed plus the per-side index sets attending to each other."""

    seed: tuple  # (source_index, target_index)
    source_set: np.ndarray
    target_set: np.ndarray


class Segments:
    """One side's member rows, concatenated segment by segment, and the segments' sizes.

    `rows=None` stands for every input row, in order, as one segment.  `ids`
    holds each member's segment.  `groups` pairs each distinct segment size
    with the ids of the segments of that size and their members' positions,
    a (segments, size) array; it and the scatter `levels` are built on first use.
    """

    def __init__(self, rows=None, sizes=None):
        if rows is None:  # position None indexes x[None]: the whole array, as a view
            self.rows, self.count, self.groups = None, 1, [(np.zeros(1, dtype=np.intp), None)]
            return
        self.rows = np.asarray(rows).astype(np.intp, copy=False)
        sizes = self.sizes = np.asarray(sizes).astype(np.intp, copy=False)
        self.count, self.ids = len(sizes), np.repeat(np.arange(len(sizes)), sizes)
        self.starts = np.cumsum(sizes) - sizes
        self.order = np.argsort(self.rows, kind="stable")  # equal rows keep set order

    @cached_property
    def groups(self):
        return [(segs, self.starts[segs][:, None] + np.arange(size))
                for size in np.unique(self.sizes) for segs in [np.flatnonzero(self.sizes == size)]]

    @cached_property
    def levels(self):
        # level L holds each row's (L+1)-th member, so a level repeats no row and
        # adding level by level sums in member order, exactly as np.add.at does
        rows = self.rows[self.order]
        rank = np.arange(rows.size) - np.searchsorted(rows, rows)
        return [(self.rows[lv], lv) for r in range(rank.max(initial=-1) + 1)
                for lv in [self.order[rank == r]]]

    def gather(self, x):
        return x if self.rows is None else x[self.rows]

    def scatter(self, x, n):
        """Sum member rows back into an (n, ...) array."""
        if self.rows is None:
            return x
        out = np.zeros((n,) + x.shape[1:], dtype=x.dtype)
        for rows, members in self.levels:
            out[rows] += x[members]
        return out

    def seg_outer(self, a, b):
        """Per segment, the sum over its members of a_e^T b_e: (S, H, da, db)."""
        out = np.empty((self.count,) + a.shape[1:] + b.shape[-1:], dtype=a.dtype)
        for segs, pos in self.groups:
            out[segs] = np.matmul(a[pos].transpose(0, 2, 3, 1), b[pos].transpose(0, 2, 1, 3))
        return out

    def seg_apply(self, a, t):
        """a_e @ t[segment of e] for every member e: (members, H, dt)."""
        out = np.empty(a.shape[:-1] + t.shape[-1:], dtype=a.dtype)
        for segs, pos in self.groups:
            out[pos] = np.matmul(a[pos].transpose(0, 2, 1, 3), t[segs]).transpose(0, 2, 1, 3)
        return out


class Membership:
    """Neighborhood s is seed row s with segment s of each side; indexing gives pair views.

    Construction checks all sets at once, over each side's concatenated rows:
    one set per seed, each non-empty, repeating no index and holding its seed.
    """

    def __init__(self, seeds, source: Segments, target: Segments):
        self.seeds = np.asarray(seeds, dtype=np.intp).reshape(len(seeds), 2)
        self.source, self.target = source, target
        for side, seed in zip((source, target), self.seeds.T):
            if side.count != len(seed):
                raise ValueError("each neighborhood side needs one set per seed")
            if not side.sizes.all():
                raise ValueError("neighborhood sides must be non-empty")
            # equal rows sit together in set order, so a repeat within a set is adjacent
            rows = side.rows[side.order]
            if ((rows[1:] == rows[:-1]) & (np.diff(side.ids[side.order]) == 0)).any():
                raise ValueError("a neighborhood side must not repeat an index")
            # with no repeats, a set holds its seed at most once
            if np.count_nonzero(side.rows == seed[side.ids]) != side.count:
                raise ValueError("seed indices must belong to their own sets")

    @classmethod
    def of(cls, pairs) -> "Membership":
        """The `Membership` of a list of `NeighborhoodPair`, as arrays."""
        seeds, *sides = list(zip(*pairs)) or [(), (), ()]  # seeds, source sets, target sets
        return cls(seeds, *(Segments(np.concatenate(s or [[]]), list(map(len, s))) for s in sides))

    def __len__(self):
        return len(self.seeds)

    def __getitem__(self, s):
        a, b = (side.rows[side.starts[s]:][:side.sizes[s]] for side in (self.source, self.target))
        return NeighborhoodPair(tuple(self.seeds[s].tolist()), a, b)


def _shape(x):
    return x.data.shape if isinstance(x, Tensor) else np.shape(x)


def _dispatch(kernel_core, t: ProjectedTriplet, *args):
    """Run a Tensor-level core; unwrap to numpy when inputs are plain arrays."""
    if any(isinstance(x, Tensor) for x in (t.q, t.k, t.v)):
        return kernel_core(as_tensor(t.q), as_tensor(t.k), as_tensor(t.v), *args)
    with ad.no_grad():
        out = kernel_core(as_tensor(np.asarray(t.q)), as_tensor(np.asarray(t.k)),
                          as_tensor(np.asarray(t.v)), *args)
    return out.data


def _segment_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                       qside: Segments, kside: Segments) -> Tensor:
    """Per segment and head, phi(Q) K_v / phi(Q).K_m, summed into the query rows."""
    (n, c), m = q.data.shape, k.data.shape[0]
    if heads < 1 or c % heads:
        raise ValueError(f"column count {c} not divisible by {heads} heads")
    d = c // heads
    pq = ad.phi_array(qside.gather(q.data.reshape(n, heads, d)))
    pk = ad.phi_array(kside.gather(k.data.reshape(m, heads, d)))
    v1 = kside.gather(v.data.reshape(m, heads, d))
    v1 = np.concatenate([v1, np.ones_like(v1[..., :1])], axis=-1)
    kv = kside.seg_outer(pk, v1)  # (S, H, d, d + 1): [K_v | K_m]
    nd = qside.seg_apply(pq, kv)  # per query member: [numerator | denominator]
    den = nd[..., d:]
    o = nd[..., :d] / den
    ad.note_mul((pk.size + pq.size) * (d + 1) + pq.size)
    for a in (pq, pk, v1, kv, nd):
        ad.note_alloc(a)

    def backward(g):
        dnum = qside.gather(g.reshape(n, heads, d)) / den
        dnd = np.concatenate([dnum, -(dnum * o).sum(axis=-1, keepdims=True)], axis=-1)
        dkv = qside.seg_outer(pq, dnd)
        # phi'(x) is 1 where phi(x) = x + 1 >= 1, and phi(x) = exp(x) below
        if q.requires_grad:
            dpq = qside.seg_apply(dnd, kv.swapaxes(-1, -2)) * np.minimum(pq, 1.0)
            q._accumulate(qside.scatter(dpq, n).reshape(n, c))
        if k.requires_grad:
            dpk = kside.seg_apply(v1, dkv.swapaxes(-1, -2)) * np.minimum(pk, 1.0)
            k._accumulate(kside.scatter(dpk, m).reshape(m, c))
        if v.requires_grad:
            v._accumulate(kside.scatter(kside.seg_apply(pk, dkv)[..., :d], m).reshape(m, c))

    return ad.node(qside.scatter(o, n).reshape(n, c), (q, k, v), backward)


def linear_attention(t: ProjectedTriplet, heads: int = 1):
    """Attention via streamed accumulators; never forms an N x M matrix."""
    if _shape(t.k)[0] < 1:
        raise ValueError("linear_attention requires at least one key row")
    return _dispatch(_segment_attention, t, heads, Segments(), Segments())


def pairwise_attention(t: ProjectedTriplet, pairs, heads: int = 1, reverse: bool = False):
    """Linear attention restricted to neighborhood pairs, summed on overlap.

    `pairs` is a `Membership` or a list of `NeighborhoodPair`; source rows
    query target rows, or the other way round with `reverse`.  Rows outside
    every query-side set are exactly zero.
    """
    members = pairs if isinstance(pairs, Membership) else Membership.of(pairs)
    sides = (members.target, members.source) if reverse else (members.source, members.target)
    for side, n in zip(sides, (_shape(t.q)[0], _shape(t.k)[0])):
        if side.rows.size and (side.rows.min() < 0 or side.rows.max() >= n):
            raise ValueError("neighborhood index out of range")
    return _dispatch(_segment_attention, t, heads, *sides)


def softmax_attention_reference(t: ProjectedTriplet):
    """Scaled dot-product attention, O(N M C'); correctness/complexity baseline."""
    q, k, v = (np.asarray(x.data if isinstance(x, Tensor) else x) for x in (t.q, t.k, t.v))
    if k.shape[0] < 1:
        raise ValueError("softmax attention requires at least one key row")
    scores = q @ k.T / np.sqrt(q.shape[1])
    ad.note_mul(2 * scores.size * q.shape[1])
    ad.note_alloc(scores)
    w = np.exp(scores - scores.max(axis=1, keepdims=True))  # the shift cancels in the ratio
    return (w / w.sum(axis=1, keepdims=True)) @ v
