"""The encoder as separate autodiff ops: the oracle of the fused ones.

`encoder.feed_forward`, `attention.projected_attention`,
`autodiff.row_l2_normalize` and the flat-moment `AdamState` replace the
compositions below.  Each fused op uses these ops' formulas and feeds shared
inputs in their order, so the tests require equal outputs and gradients, bit
for bit.  The ops here are checked against finite differences in
`test_autodiff.py`.  `membership` builds the arrays that the attention ops
and the filter take from a readable list of `NeighborhoodPair`.
"""

import numpy as np

from linmatch import autodiff as ad
from linmatch.attention import (
    Membership,
    ProjectedTriplet,
    Segments,
    linear_attention,
    pairwise_attention,
)
from linmatch.autodiff import Tensor, as_tensor


def membership(pairs) -> Membership:
    """The checked `Membership` of a list of `NeighborhoodPair`, set after set."""
    seeds, *sides = list(zip(*pairs)) or [(), (), ()]  # seeds, source sets, target sets
    return Membership(seeds, *(Segments(np.concatenate(s or [[]]), list(map(len, s)))
                               for s in sides))


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data
    ad.note_mul(out_data.size)

    def backward(g):
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

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
    norms = sqrt(ad.tsum(ad.mul(x, x), axis=1, keepdims=True))
    return div(x, norms)


def encoder_layer(x_query, x_source, w, kernel=linear_attention, heads=1):
    """carrier + mlp1(relu(layer_norm(mlp0(concat(carrier, m))))), op by op."""
    xq, xs, wv = as_tensor(x_query), as_tensor(x_source), as_tensor(w.wv)
    (n, width), hidden = xq.data.shape, wv.data.shape[1]
    carrier = xq if width == hidden else ad.matmul(xq, wv)
    if n == 0:
        return carrier
    if xs.data.shape[0] == 0:
        m = Tensor(np.zeros((n, hidden), dtype=carrier.data.dtype))
    else:
        t = ProjectedTriplet(ad.matmul(xq, as_tensor(w.wq)), ad.matmul(xs, as_tensor(w.wk)),
                             ad.matmul(xs, wv))
        m = as_tensor(kernel(t, heads))
    h = concat_cols(carrier, m)
    h = ad.matmul(h, as_tensor(w.mlp0))
    h = layer_norm(h, as_tensor(w.ln_g), as_tensor(w.ln_b))
    h = ad.relu(h)
    h = ad.matmul(h, as_tensor(w.mlp1))
    return ad.add(carrier, h)


def self_attention_update(xs, xt, w, heads=1):
    return (encoder_layer(xs, xs, w, linear_attention, heads),
            encoder_layer(xt, xt, w, linear_attention, heads))


def cross_attention_update(xs, xt, w, heads=1):
    return (encoder_layer(xs, xt, w, linear_attention, heads),
            encoder_layer(xt, xs, w, linear_attention, heads))


def pairwise_layer_update(xs, xt, pairs, w, heads=1):
    return (encoder_layer(xs, xt, w, lambda t, h: pairwise_attention(t, pairs, h), heads),
            encoder_layer(xt, xs, w, lambda t, h: pairwise_attention(t, pairs, h, True), heads))


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
