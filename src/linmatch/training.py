"""Confidence-weighted triplet loss, exact gradients, and a toy Adam loop.

The per-correspondence loss hinges the positive squared distance above a
margin m_p and pushes the hardest negative (searched on both sides, all
non-partner indices) above m_n:

    R_c = [D(xs_c, xt_c) - m_p]_+ + [m_n - min(min_k D(xs_c, xt_k),
                                               min_k D(xs_k, xt_c))]_+

with D the squared Euclidean distance.  The total loss averages s_c * R_c
over ground-truth correspondences, where s_c is the raw dot product of the
intermediate descriptors (clamped at zero inside the loss so wrong matches
are never rewarded).  Gradients flow through s_c by default; a config flag
detaches it.

Subgradient conventions: hinges contribute zero gradient at the kink; the
hardest-negative argmin is selected on detached values with ties broken
toward the lowest index (and toward the target side between the two
directional minima), so gradients flow through exactly one negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor
from .encoder import NetworkConfig, NetworkWeights, forward, init_weights
from .geometry import GroundTruth
from .neighborhood import NeighborhoodConfig

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator offset


@dataclass
class LossConfig:
    m_p: float = 0.2  # positive margin
    m_n: float = 1.0  # negative margin
    learning_rate: float = 1e-3
    decay: float = 0.99992  # per-step multiplicative lr factor
    detach_confidence: bool = False

    def __post_init__(self):
        if not (self.m_n > self.m_p >= 0):
            raise ValueError("margins must satisfy m_n > m_p >= 0")
        if not self.learning_rate > 0:  # written so that NaN fails too
            raise ValueError("learning rate must be positive")
        if not (0 < self.decay <= 1):
            raise ValueError("decay must lie in (0, 1]")


def triplet_loss(enc, gt: GroundTruth, cfg: LossConfig):
    """Mean of confidence-weighted ranking losses over all GT correspondences.

    Vectorized over correspondences: negatives are located on detached
    descriptor values, then only the selected rows enter the graph.
    """
    if len(gt.pairs) == 0:
        raise ValueError("need at least one ground-truth correspondence")
    xs, xt = as_tensor(enc.xs_hat), as_tensor(enc.xt_hat)
    fs, ft = as_tensor(enc.fs_hat), as_tensor(enc.ft_hat)
    n, m = xs.data.shape[0], xt.data.shape[0]
    if n < 2 or m < 2:
        raise ValueError("hardest-negative mining needs at least 2 keypoints per side")
    if ((gt.pairs < 0) | (gt.pairs >= (n, m))).any():
        raise ValueError("ground-truth index out of range of the encodings")

    i_arr, j_arr = gt.pairs.T

    xsd, xtd = xs.data, xt.data
    # squared-distance tables on detached data, GT partner masked out
    d_st = ((xsd[i_arr][:, None, :] - xtd[None, :, :]) ** 2).sum(axis=2)
    d_st[np.arange(len(i_arr)), j_arr] = np.inf
    k_t = d_st.argmin(axis=1)
    d_ts = ((xtd[j_arr][:, None, :] - xsd[None, :, :]) ** 2).sum(axis=2)
    d_ts[np.arange(len(j_arr)), i_arr] = np.inf
    k_s = d_ts.argmin(axis=1)

    a = ad.gather_rows(xs, i_arr)
    b = ad.gather_rows(xt, j_arr)
    d_pos = ad.tsum(ad.mul(ad.sub(a, b), ad.sub(a, b)), axis=1, keepdims=True)
    nt = ad.sub(a, ad.gather_rows(xt, k_t))
    d_nt = ad.tsum(ad.mul(nt, nt), axis=1, keepdims=True)
    ns = ad.sub(ad.gather_rows(xs, k_s), b)
    d_ns = ad.tsum(ad.mul(ns, ns), axis=1, keepdims=True)
    pick_t = (d_nt.data <= d_ns.data).astype(xsd.dtype)  # tie prefers target side
    sel = Tensor(pick_t)
    neg = ad.add(ad.mul(sel, d_nt), ad.mul(ad.sub(Tensor(np.asarray(1.0, dtype=xsd.dtype)), sel), d_ns))

    mp = Tensor(np.asarray(cfg.m_p, dtype=xsd.dtype))
    mn = Tensor(np.asarray(cfg.m_n, dtype=xsd.dtype))
    rank = ad.add(ad.relu(ad.sub(d_pos, mp)), ad.relu(ad.sub(mn, neg)))

    fa = ad.gather_rows(fs, i_arr)
    fb = ad.gather_rows(ft, j_arr)
    s = ad.tsum(ad.mul(fa, fb), axis=1, keepdims=True)
    if cfg.detach_confidence:
        s = s.detach()
    s = ad.relu(s)  # negative confidence must not reward wrong matches
    total = ad.tsum(ad.mul(s, rank))
    return ad.mul(total, Tensor(np.asarray(1.0 / len(gt.pairs), dtype=xsd.dtype)))


def _map_params(weights: NetworkWeights, fn) -> NetworkWeights:
    """The same layers with every parameter replaced by `fn(parameter)`."""
    return NetworkWeights.from_table({name: fn(v) for name, v in weights.all_params()},
                                     weights.heads)


def loss_gradient(weights: NetworkWeights, batch, net_cfg: NetworkConfig,
                  loss_cfg: LossConfig, neigh_cfg: NeighborhoodConfig | None = None):
    """Loss value and exact gradients for one (source, target, gt) pair.

    Returns (loss, grads) where grads mirrors the weight structure.
    """
    ks, kt, gt = batch
    tw = _map_params(weights, lambda w: Tensor(np.asarray(w), requires_grad=True))
    enc = forward(ks, kt, tw, net_cfg, neigh_cfg)
    loss = triplet_loss(enc, gt, loss_cfg)
    loss.backward()
    return float(loss.data), _map_params(
        tw, lambda t: t.grad if t.grad is not None else np.zeros_like(t.data))


def gradient_check(net_cfg: NetworkConfig, loss_cfg: LossConfig, seed: int = 0,
                   samples: int = 256, step: float = 1e-5, scene=None, dtype=np.float64):
    """Compare reverse-mode gradients against central finite differences.

    Samples `samples` parameter entries uniformly across all tensors and
    returns (max_relative_error, fraction_within_1e-4, count).
    """
    from .geometry import GenNoiseConfig, generate_pair

    if scene is None:
        scene = generate_pair(seed, 16, (128, 128), net_cfg.input_dim,
                              GenNoiseConfig(desc_sigma=0.1, distractors=4))
    ks, kt, gt, _ = scene
    weights = init_weights(net_cfg, seed=seed, dtype=dtype)
    _, grads = loss_gradient(weights, (ks, kt, gt), net_cfg, loss_cfg)

    names = [name for name, _ in weights.all_params()]
    flat_grads = {name: g for (name, g) in grads.all_params()}
    flat_weights = {name: w for (name, w) in weights.all_params()}
    sizes = np.array([flat_weights[n].size for n in names])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed + 1)
    chosen = rng.choice(total, size=min(samples, total), replace=False)

    def loss_at():
        enc = forward(ks, kt, weights, net_cfg)
        with ad.no_grad():
            return float(triplet_loss(enc, gt, loss_cfg).data)

    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rel_errors = np.empty(len(chosen))
    for out_idx, flat_idx in enumerate(sorted(int(x) for x in chosen)):
        t_idx = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        name = names[t_idx]
        local = flat_idx - offsets[t_idx]
        arr = flat_weights[name].ravel()
        orig = arr[local]
        arr[local] = orig + step
        hi = loss_at()
        arr[local] = orig - step
        lo = loss_at()
        arr[local] = orig
        fd = (hi - lo) / (2 * step)
        adg = flat_grads[name].ravel()[local]
        rel_errors[out_idx] = abs(adg - fd) / max(abs(adg), abs(fd), 1e-6)
    ok = float((rel_errors < 1e-4).mean())
    return float(rel_errors.max()), ok, len(chosen)


class AdamState:
    """First/second moments of every parameter, flat float64 vectors in `all_params` order:
    one vectorized update of both per step, then the parameters, tensor by tensor."""

    def __init__(self, weights: NetworkWeights):
        size = sum(np.size(v) for _, v in weights.all_params())
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.t = 0

    def step(self, weights: NetworkWeights, grads: NetworkWeights, lr: float):
        self.t += 1
        g = np.concatenate([np.ravel(v) for _, v in grads.all_params()], dtype=np.float64)
        self.m = _BETA1 * self.m + (1 - _BETA1) * g
        self.v = _BETA2 * self.v + (1 - _BETA2) * g * g
        m_hat = self.m / (1 - _BETA1 ** self.t)
        v_hat = self.v / (1 - _BETA2 ** self.t)
        upd = lr * m_hat / (np.sqrt(v_hat) + _EPS)
        params = [np.asarray(w) for _, w in weights.all_params()]
        for w, end in zip(params, np.cumsum([w.size for w in params])):
            w -= upd[end - w.size:end].reshape(w.shape).astype(w.dtype)


def train_toy(dataset, net_cfg: NetworkConfig, loss_cfg: LossConfig, steps: int,
              seed: int = 0, neigh_cfg: NeighborhoodConfig | None = None):
    """Single-pair-per-step Adam training; returns (weights, trace).

    The trace lists (step, loss, lr) tuples.  Deterministic for a fixed
    seed.  Aborts on a non-finite loss, naming the step.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    weights = init_weights(net_cfg, seed=seed, dtype=np.float64)
    state = AdamState(weights)
    rng = np.random.default_rng(seed)
    trace = []
    for k in range(steps):
        batch = dataset[int(rng.integers(len(dataset)))]
        lr = loss_cfg.learning_rate * loss_cfg.decay ** k
        loss, grads = loss_gradient(weights, batch, net_cfg, loss_cfg, neigh_cfg)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at step {k}")
        state.step(weights, grads, lr)
        trace.append((k, loss, lr))
    return weights, trace


def write_loss_trace(path, trace) -> None:
    with open(path, "w") as f:
        f.write("step,loss,lr\n")
        for step, loss, lr in trace:
            f.write(f"{step},{repr(float(loss))},{repr(float(lr))}\n")
