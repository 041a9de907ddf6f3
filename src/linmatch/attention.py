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

The linear and restricted kernels take a `ProjectedTriplet` of numpy arrays
(numpy out) or autodiff Tensors; `projected_attention`, which encoder layers
call, forms q, k and v inside the same op.  The softmax kernel is a
single-head numpy reference (correctness oracle and complexity baseline)
that deliberately materializes the N-by-M weight matrix.
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


class NeighborhoodPair(NamedTuple):  # kept for `Membership.__getitem__`, below
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

    def __len__(self):
        return len(self.seeds)

    # no caller in src/: the benchmark's tracer counts members through these views
    def __getitem__(self, s):
        a, b = (side.rows[side.starts[s]:][:side.sizes[s]] for side in (self.source, self.target))
        return NeighborhoodPair(tuple(self.seeds[s].tolist()), a, b)


def _shape(x):
    return x.data.shape if isinstance(x, Tensor) else np.shape(x)


def _segment_attention(q, k, v, heads: int, pairs, reverse: bool):
    """Per segment and head, phi(Q) K_v / phi(Q).K_m, summed into the query rows: the
    (n, C') output for arrays q, k and v, and `grads`, which maps its gradient to theirs."""
    (n, c), m = q.shape, k.shape[0]
    if pairs is None:
        if m < 1:
            raise ValueError("linear_attention requires at least one key row")
        qside = kside = Segments()
    else:
        sides = (pairs.source, pairs.target)
        qside, kside = sides[::-1] if reverse else sides
        for side, rows in ((qside, n), (kside, m)):
            if side.rows.size and (side.rows.min() < 0 or side.rows.max() >= rows):
                raise ValueError("neighborhood index out of range")
    if heads < 1 or c % heads:
        raise ValueError(f"column count {c} not divisible by {heads} heads")
    d = c // heads
    pq = ad.phi_array(qside.gather(q.reshape(n, heads, d)))
    pk = ad.phi_array(kside.gather(k.reshape(m, heads, d)))
    v1 = kside.gather(v.reshape(m, heads, d))
    v1 = np.concatenate([v1, np.ones_like(v1[..., :1])], axis=-1)
    kv = kside.seg_outer(pk, v1)  # (S, H, d, d + 1): [K_v | K_m]
    nd = qside.seg_apply(pq, kv)  # per query member: [numerator | denominator]
    den = nd[..., d:]
    o = nd[..., :d] / den
    ad.note_mul((pk.size + pq.size) * (d + 1) + pq.size)
    for a in (pq, pk, v1, kv, nd):
        ad.note_alloc(a)

    def grads(g):
        dnum = qside.gather(g.reshape(n, heads, d)) / den
        dnd = np.concatenate([dnum, -(dnum * o).sum(axis=-1, keepdims=True)], axis=-1)
        dkv = qside.seg_outer(pq, dnd)
        # phi'(x) is 1 where phi(x) = x + 1 >= 1, and phi(x) = exp(x) below
        dpq = qside.seg_apply(dnd, kv.swapaxes(-1, -2)) * np.minimum(pq, 1.0)
        dpk = kside.seg_apply(v1, dkv.swapaxes(-1, -2)) * np.minimum(pk, 1.0)
        return (qside.scatter(dpq, n).reshape(n, c), kside.scatter(dpk, m).reshape(m, c),
                kside.scatter(kside.seg_apply(pk, dkv)[..., :d], m).reshape(m, c))

    return qside.scatter(o, n).reshape(n, c), grads


def _triplet_attention(t: ProjectedTriplet, heads: int, pairs, reverse: bool):
    q, k, v = (as_tensor(x) for x in (t.q, t.k, t.v))
    out, grads = _segment_attention(q.data, k.data, v.data, heads, pairs, reverse)

    def backward(g):
        for x, dx in zip((q, k, v), grads(g)):
            if x.requires_grad:
                x._accumulate(dx)

    res = ad.node(out, (q, k, v), backward)
    return res if any(isinstance(x, Tensor) for x in (t.q, t.k, t.v)) else res.data


def linear_attention(t: ProjectedTriplet, heads: int = 1):
    """Attention via streamed accumulators; never forms an N x M matrix."""
    return _triplet_attention(t, heads, None, False)


def pairwise_attention(t: ProjectedTriplet, pairs, heads: int = 1, reverse: bool = False):
    """Linear attention restricted to neighborhood pairs, summed on overlap.

    `pairs` is a `Membership`; source rows query target rows, or the other
    way round with `reverse`.  Rows outside every query-side set are exactly
    zero.
    """
    return _triplet_attention(t, heads, pairs, reverse)


def projected_attention(xq: Tensor, xs: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                        heads: int = 1, pairs=None, reverse: bool = False) -> Tensor:
    """`linear_attention`, or `pairwise_attention` with `pairs`, of q = xq wq to k = xs wk
    and v = xs wv as one op.  A self layer (xq and xs one array) makes one product with
    [wq | wk | wv], others one with [wk | wv]: the column blocks equal separate products."""
    cq, ck = wq.data.shape[1], wk.data.shape[1]
    if xq.data is xs.data:
        qkv = xs.data @ np.concatenate([wq.data, wk.data, wv.data], axis=1)
        q, k, v = qkv[:, :cq], qkv[:, cq:cq + ck], qkv[:, cq + ck:]
    else:
        q, kv = xq.data @ wq.data, xs.data @ np.concatenate([wk.data, wv.data], axis=1)
        k, v = kv[:, :ck], kv[:, ck:]
    ProjectedTriplet(q, k, v)  # its shape checks
    ad.note_mul(xq.data.size * q.shape[1] + xs.data.size * (k.shape[1] + v.shape[1]))
    for a in (q, k, v):
        ad.note_alloc(a)
    out, grads = _segment_attention(q, k, v, heads, pairs, reverse)

    def backward(g):
        # v, k, then q, each input before its weight: the order of the matmul ops replaced
        dq, dk, dv = grads(g)
        for x, w, dx in ((xs, wv, dv), (xs, wk, dk), (xq, wq, dq)):
            if x.requires_grad:
                x._accumulate(dx @ w.data.T)
            if w.requires_grad:
                w._accumulate(x.data.T @ dx)

    return ad.node(out, (xq, xs, wq, wk, wv), backward)


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
