"""The encoder and the loss as separate autodiff ops: the oracle of the fused ones.

The generic ops (`add`, `sub`, `mul`, `matmul`, `tsum`, `relu`,
`gather_rows`, with `_unbroadcast` for broadcast gradients) and those built
from them below are how the network was first written.  `encoder.feed_forward`,
`attention.projected_attention`, `autodiff.row_l2_normalize`,
`training.triplet_loss` and the flat-moment `AdamState` replace the
compositions.  Each fused op uses these ops' formulas and feeds shared inputs
in their order, so the tests require equal outputs and gradients, bit for
bit.  The ops here are checked against finite differences in
`test_autodiff.py`; `attention`, the oracle's attention op, in
`test_attention.py`.  It runs the numpy kernel `linmatch.attention.attention`
on the data of a `Triplet` of Tensors q, k and v, and its backward hands each
its share of the kernel's gradient.  `membership` builds
the arrays that the attention kernels and the filter take from a readable list
of `NeighborhoodPair`.
`hardest_negatives` searches the loss's negatives on one full difference
table per direction: the oracle of `neighborhood.hardest_negatives`.
"""

from typing import NamedTuple

import numpy as np

from linmatch import autodiff as ad
from linmatch.attention import Membership, Segments
from linmatch.attention import attention as attention_kernel
from linmatch.autodiff import Tensor, as_tensor


class Triplet(NamedTuple):
    """Query/key/value Tensors (or arrays) for `attention`."""

    q: object  # N x C'
    k: object  # M x C'
    v: object  # M x C'


def membership(pairs) -> Membership:
    """The checked `Membership` of a list of `NeighborhoodPair`, set after set."""
    seeds, *sides = list(zip(*pairs)) or [(), (), ()]  # seeds, source sets, target sets
    return Membership(seeds, *(Segments(np.concatenate(s or [[]]), list(map(len, s)))
                               for s in sides))


def hardest_negatives(a, b, partner):
    """Per row i of a, np.argmin over the (len(a), len(b), C) difference table's squared
    distances to every row of b but partner[i]."""
    d = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    others = np.array([np.delete(np.arange(len(b)), p) for p in partner]).reshape(len(a), -1)
    best = np.take_along_axis(d, others, axis=1).argmin(axis=1)
    return others[np.arange(len(a)), best]


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return ad.node(out_data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return ad.node(out_data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data
    ad.note_mul(out_data.size)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return ad.node(out_data, (a, b), backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data
    ad.note_mul(a.data.size * (b.data.shape[1] if b.data.ndim == 2 else 1))  # n * k * m

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T if b.data.ndim == 2 else np.outer(g, b.data))
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return ad.node(out_data, (a, b), backward)


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return ad.node(out_data, (a,), backward)


def relu(a):
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        # subgradient 0 at the kink
        a._accumulate(g * (a.data > 0))

    return ad.node(out_data, (a,), backward)


def gather_rows(a, idx):
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out_data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return ad.node(out_data, (a,), backward)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data
    ad.note_mul(out_data.size)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return ad.node(out_data, (a, b), backward)


def sqrt(a):
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / out_data)

    return ad.node(out_data, (a,), backward)


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

    return ad.node(out_data, (a, b), backward)


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
    ad.note_mul(out_data.size)

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xn).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if x.requires_grad:
            dxn = g * gamma.data
            term = nf * dxn - dxn.sum(axis=1, keepdims=True) - xn * (dxn * xn).sum(axis=1, keepdims=True)
            x._accumulate(inv / nf * term)

    return ad.node(out_data, (x, gamma, beta), backward)


def row_l2_normalize(x):
    """Divide each row by its Euclidean norm (rows must be nonzero)."""
    norms = sqrt(tsum(mul(x, x), axis=1, keepdims=True))
    return div(x, norms)


def attention(t, heads=1, pairs=None, reverse=False):
    """The numpy kernel's attention of q, k and v as one op, restricted with `pairs`."""
    q, k, v = (as_tensor(x) for x in t)
    out, grads = attention_kernel(q.data, k.data, v.data, heads, pairs, reverse)

    def backward(g):
        for x, dx in zip((q, k, v), grads(g)):
            if x.requires_grad:
                x._accumulate(dx)

    return ad.node(out, (q, k, v), backward)


def encoder_layer(x_query, x_source, w, heads=1, pairs=None, reverse=False):
    """carrier + mlp1(relu(layer_norm(mlp0(concat(carrier, m))))), op by op."""
    xq, xs, wv = as_tensor(x_query), as_tensor(x_source), as_tensor(w.wv)
    (n, width), hidden = xq.data.shape, wv.data.shape[1]
    carrier = xq if width == hidden else matmul(xq, wv)
    if n == 0:
        return carrier
    if xs.data.shape[0] == 0:
        m = Tensor(np.zeros((n, hidden), dtype=carrier.data.dtype))
    else:
        t = Triplet(matmul(xq, as_tensor(w.wq)), matmul(xs, as_tensor(w.wk)), matmul(xs, wv))
        m = attention(t, heads, pairs, reverse)
    h = concat_cols(carrier, m)
    h = matmul(h, as_tensor(w.mlp0))
    h = layer_norm(h, as_tensor(w.ln_g), as_tensor(w.ln_b))
    h = relu(h)
    h = matmul(h, as_tensor(w.mlp1))
    return add(carrier, h)


def self_attention_update(xs, xt, w, heads=1):
    return encoder_layer(xs, xs, w, heads), encoder_layer(xt, xt, w, heads)


def cross_attention_update(xs, xt, w, heads=1):
    return encoder_layer(xs, xt, w, heads), encoder_layer(xt, xs, w, heads)


def pairwise_layer_update(xs, xt, pairs, w, heads=1):
    return (encoder_layer(xs, xt, w, heads, pairs),
            encoder_layer(xt, xs, w, heads, pairs, reverse=True))


class DictAdam:
    """Adam with one float64 moment buffer per tensor, keyed by canonical name."""

    def __init__(self, weights):
        self.m = {name: np.zeros_like(np.asarray(v), dtype=np.float64)
                  for name, v in weights.all_params()}
        self.v = {name: np.zeros_like(np.asarray(v), dtype=np.float64)
                  for name, v in weights.all_params()}
        self.t = 0

    def step(self, weights, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.t += 1
        gmap = dict(grads.all_params())
        for name, w in weights.all_params():
            g = np.asarray(gmap[name], dtype=np.float64)
            self.m[name] = beta1 * self.m[name] + (1 - beta1) * g
            self.v[name] = beta2 * self.v[name] + (1 - beta2) * g * g
            m_hat = self.m[name] / (1 - beta1 ** self.t)
            v_hat = self.v[name] / (1 - beta2 ** self.t)
            upd = lr * m_hat / (np.sqrt(v_hat) + eps)
            np.asarray(w)[...] -= upd.astype(np.asarray(w).dtype)


def triplet_loss(enc, gt, cfg):
    """`training.triplet_loss` op by op, with negatives from `hardest_negatives`.  The two
    sides' distances are blended as sel * d_nt + (1 - sel) * d_ns, which is NaN where the
    unpicked one is inf."""
    xs, xt = as_tensor(enc.xs_hat), as_tensor(enc.xt_hat)
    fs, ft = as_tensor(enc.fs_hat), as_tensor(enc.ft_hat)
    i_arr, j_arr = gt.pairs.T
    xsd, xtd = xs.data, xt.data
    k_t = hardest_negatives(xsd[i_arr], xtd, j_arr)
    k_s = hardest_negatives(xtd[j_arr], xsd, i_arr)

    a = gather_rows(xs, i_arr)
    b = gather_rows(xt, j_arr)
    d_pos = tsum(mul(sub(a, b), sub(a, b)), axis=1, keepdims=True)
    nt = sub(a, gather_rows(xt, k_t))
    d_nt = tsum(mul(nt, nt), axis=1, keepdims=True)
    ns = sub(gather_rows(xs, k_s), b)
    d_ns = tsum(mul(ns, ns), axis=1, keepdims=True)
    sel = Tensor((d_nt.data <= d_ns.data).astype(xsd.dtype))  # tie prefers target side
    neg = add(mul(sel, d_nt), mul(sub(Tensor(np.asarray(1.0, dtype=xsd.dtype)), sel), d_ns))

    mp = Tensor(np.asarray(cfg.m_p, dtype=xsd.dtype))
    mn = Tensor(np.asarray(cfg.m_n, dtype=xsd.dtype))
    rank = add(relu(sub(d_pos, mp)), relu(sub(mn, neg)))

    s = tsum(mul(gather_rows(fs, i_arr), gather_rows(ft, j_arr)), axis=1, keepdims=True)
    if cfg.detach_confidence:
        s = Tensor(s.data)
    total = tsum(mul(relu(s), rank))
    return mul(total, Tensor(np.asarray(1.0 / len(gt.pairs), dtype=xsd.dtype)))
