"""Attention kernels: linear, neighborhood-restricted, and softmax.

Multi-head attention splits the C' columns into `heads` contiguous groups of
d = C' / heads.  The linear and restricted kernels view their inputs as
(rows, heads, d) arrays and serve every head with the same batched numpy
calls.

The linear kernel replaces the N-by-M weight matrix with per-head
accumulators built from the positive feature map phi(x) = elu(x) + 1,
K_v = phi(K)^T V (d x d) and K_m = sum_j phi(K_j), and gives query row i
(phi(Q_i) K_v) / (phi(Q_i) . K_m) at cost O((M + N) C' d).  K_m is the last
column of K_v once V gets a ones column, so one product yields numerator and
denominator; phi > 0, so the denominator never vanishes.

The restricted kernel applies the same ratio within the neighborhoods of a
`Membership`, which `build_neighborhoods` returns and which checks every set
once, when built.  It holds them as arrays, with no per-neighborhood records:
each side's member rows, set after set (CSR segments), gathered after phi (once
per row) into a padded (segments, largest segment) layout.  One batched matmul
sums K_v over every segment's key rows and one applies it to the query rows
(never a d x d product per member), row-major, at cost O(segments x largest
segment).  Only [V | 1] and the incoming gradient are zero in empty slots: an
empty phi slot holds an arbitrary row's phi, which meets only those zeros, and
an empty query slot is never scattered.  The filled slots are sum-scattered
into the output rows: rows outside every neighborhood stay exactly zero, rows
in several get the plain sum, and the backward sums dK and dV in one pass.  The
reverse direction (target rows querying source rows) swaps the two sides.  The
linear kernel is the same computation with one segment, a view of every row.

`attention` is the one numpy kernel, linear without `pairs` and restricted
with them: it takes arrays q, k and v, returns the output array and a map from
its gradient to theirs, and records no autodiff node (numpy callers take
`[0]`).  `projected_attention`, which encoder layers call, is the one autodiff
op: it forms q, k and v, runs the same kernel and returns v too, and its
hand-written backward carries the kernel's gradient to the layer inputs and
weights.  The softmax kernel is a single-head numpy reference (correctness
oracle and complexity baseline) that deliberately materializes the N-by-M
weight matrix.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import autodiff as ad


class NeighborhoodPair(NamedTuple):  # kept for `Membership.__getitem__`, below
    """A matched seed plus the per-side index sets attending to each other."""

    seed: tuple  # (source_index, target_index)
    source_set: np.ndarray
    target_set: np.ndarray


class Segments:
    """One side's member rows, concatenated segment by segment, and the segments' sizes.

    `rows=None` stands for every input row, in order, as one segment.  `ids`
    holds each member's segment, `low` and `high` the least and greatest row.  `gather`
    fills a padded (segments, largest size, ...) layout straight from row space and
    `scatter` sums the filled slots of such arrays back into rows; its index and the
    scatter `levels` are built on first use.
    """

    def __init__(self, rows=None, sizes=None):
        if rows is None:  # x[None] is the whole array as one segment, a view
            self.rows = None
            return
        self.rows = np.asarray(rows).astype(np.intp, copy=False)
        sizes = self.sizes = np.asarray(sizes).astype(np.intp, copy=False)
        self.count, self.ids = len(sizes), np.repeat(np.arange(len(sizes)), sizes)
        self.starts = np.cumsum(sizes) - sizes
        self.order = np.argsort(self.rows, kind="stable")  # equal rows keep set order
        self.low, self.high = self.rows.min(initial=0), self.rows.max(initial=-1)

    @cached_property
    def padded(self):
        """Each slot's row (-1 when empty), each member's slot and the flat empty slots."""
        pos = np.arange(self.rows.size) - self.starts[self.ids]
        slots = np.full((self.count, self.sizes.max(initial=0)), -1, dtype=np.intp)
        slots[self.ids, pos] = self.rows
        return slots, pos, np.flatnonzero(slots < 0)

    @cached_property
    def levels(self):
        # level L holds each row's (L+1)-th member, so a level repeats no row and
        # adding level by level sums in member order, exactly as np.add.at does
        rows, pos = self.rows[self.order], self.padded[1]
        rank = np.arange(rows.size) - np.searchsorted(rows, rows)
        return [(self.rows[lv], self.ids[lv], pos[lv]) for r in range(rank.max(initial=-1) + 1)
                for lv in [self.order[rank == r]]]

    def gather(self, x, zero=True):
        """x's member rows in the padded layout, zero in empty slots unless not `zero`."""
        if self.rows is None:
            return x[None]
        out = x[self.padded[0]]
        if zero:
            out.reshape((-1,) + x.shape[1:])[self.padded[2]] = 0
        return out

    def scatter(self, n, *xs):
        """Sum the filled slots of padded arrays back into (n, ...) arrays, in one level pass."""
        if self.rows is None:
            return [x[0] for x in xs]
        outs = [np.zeros((n,) + x.shape[2:], dtype=x.dtype) for x in xs]
        for rows, segs, slots in self.levels:
            for out, x in zip(outs, xs):
                out[rows] += x[segs, slots]
        return outs


def seg_outer(a, b):
    """Per segment of a padded layout, the sum over its slots of a_e^T b_e: (S, H, da, db)."""
    return np.matmul(a.transpose(0, 2, 3, 1), b.transpose(0, 2, 1, 3))


def seg_apply(a, t):
    """a_e @ t[segment of e] for every slot e of a padded layout: a row-major (S, slots, H, dt)."""
    out = np.empty(a.shape[:3] + t.shape[-1:], np.result_type(a, t))
    np.matmul(a.transpose(0, 2, 1, 3), t, out=out.transpose(0, 2, 1, 3))
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


def _check_shapes(q, k, v):
    """ValueError unless q (N x C'), k and v (M x C') share columns and k and v rows."""
    (_, c), (m, ck), (mv, cv) = q.shape, k.shape, v.shape
    if m != mv:
        raise ValueError(f"key/value row mismatch: {m} vs {mv}")
    if not c == ck == cv:
        raise ValueError(f"column mismatch: q={c} k={ck} v={cv}")


def attention(q, k, v, heads: int = 1, pairs=None, reverse: bool = False):
    """Per segment and head, phi(Q) K_v / phi(Q).K_m, summed into the query rows: the
    (n, C') output for arrays q, k and v, and `grads`, which maps its gradient to theirs.
    `pairs`, a `Membership`, restricts source rows to query their target sets (the reverse
    with `reverse`); rows outside every query-side set are exactly zero."""
    _check_shapes(q, k, v)
    (n, c), m = q.shape, k.shape[0]
    if pairs is None:
        if m < 1:
            raise ValueError("attention requires at least one key row")
        qside = kside = Segments()
    else:
        sides = (pairs.source, pairs.target)
        qside, kside = sides[::-1] if reverse else sides
        for side, rows in ((qside, n), (kside, m)):
            if side.low < 0 or side.high >= rows:
                raise ValueError("neighborhood index out of range")
    if heads < 1 or c % heads:
        raise ValueError(f"column count {c} not divisible by {heads} heads")
    d = c // heads
    # phi once per row, so an empty slot holds some row's (see the module docstring); [v | 1]
    # is padded where used, so inference keeps no padded copy
    pq = qside.gather(ad.phi_array(q.reshape(n, heads, d)), zero=False)
    pk = kside.gather(ad.phi_array(k.reshape(m, heads, d)), zero=False)
    v1 = np.ones((m, heads, d + 1), dtype=v.dtype)
    v1[..., :d] = v.reshape(m, heads, d)
    kv = seg_outer(pk, kside.gather(v1))  # (S, H, d, d + 1): [K_v | K_m]
    nd = seg_apply(pq, kv)  # per query slot: [numerator | denominator]
    den = nd[..., d:]
    o = nd[..., :d] / den
    ad.note_mul((pk.size + pq.size) * (d + 1) + pq.size)
    for a in (pq, pk, v1, kv, nd, o):
        ad.note_alloc(a)

    def grads(g):
        dnum = qside.gather(g.reshape(n, heads, d)) / den
        dnd = np.concatenate([dnum, -(dnum * o).sum(axis=-1, keepdims=True)], axis=-1)
        dkv = seg_outer(pq, dnd)
        # phi'(x) is 1 where phi(x) = x + 1 >= 1, and phi(x) = exp(x) below
        dpq = seg_apply(dnd, kv.swapaxes(-1, -2)) * np.minimum(pq, 1.0)
        dpk = seg_apply(kside.gather(v1), dkv.swapaxes(-1, -2)) * np.minimum(pk, 1.0)
        dk, dv = kside.scatter(m, dpk, seg_apply(pk, dkv)[..., :d])
        return qside.scatter(n, dpq)[0].reshape(n, c), dk.reshape(m, c), dv.reshape(m, c)

    return qside.scatter(n, o)[0].reshape(n, c), grads


def projected_attention(xq: ad.Tensor, xs: ad.Tensor, wq: ad.Tensor, wk: ad.Tensor, wv: ad.Tensor,
                        heads: int = 1, pairs=None, reverse: bool = False):
    """`attention` of q = xq wq to k = xs wk and v = xs wv as one op, and the array v.  A
    self layer (xq and xs one array) makes one product with [wq | wk | wv], others one with
    [wk | wv]: the column blocks equal separate products."""
    cq, ck = wq.data.shape[1], wk.data.shape[1]
    if xq.data is xs.data:
        qkv = xs.data @ np.concatenate([wq.data, wk.data, wv.data], axis=1)
        q, k, v = qkv[:, :cq], qkv[:, cq:cq + ck], qkv[:, cq + ck:]
    else:
        q, kv = xq.data @ wq.data, xs.data @ np.concatenate([wk.data, wv.data], axis=1)
        k, v = kv[:, :ck], kv[:, ck:]
    ad.note_mul(xq.data.size * q.shape[1] + xs.data.size * (k.shape[1] + v.shape[1]))
    for a in (q, k, v):
        ad.note_alloc(a)
    out, grads = attention(q, k, v, heads, pairs, reverse)

    def backward(g):
        # v, k, then q, each input before its weight: the order of the matmul ops replaced
        dq, dk, dv = grads(g)
        for x, w, dx in ((xs, wv, dv), (xs, wk, dk), (xq, wq, dq)):
            if x.requires_grad:
                x._accumulate(dx @ w.data.T)
            if w.requires_grad:
                w._accumulate(x.data.T @ dx)

    return ad.node(out, (xq, xs, wq, wk, wv), backward), v


def softmax_attention_reference(q, k, v):
    """Scaled dot-product attention, O(N M C'); correctness/complexity baseline."""
    q, k, v = (np.asarray(x) for x in (q, k, v))
    _check_shapes(q, k, v)
    if k.shape[0] < 1:
        raise ValueError("softmax attention requires at least one key row")
    scores = q @ k.T / np.sqrt(q.shape[1])
    ad.note_mul(2 * scores.size * q.shape[1])
    ad.note_alloc(scores)
    w = np.exp(scores - scores.max(axis=1, keepdims=True))  # the shift cancels in the ratio
    return (w / w.sum(axis=1, keepdims=True)) @ v
