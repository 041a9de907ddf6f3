"""Confidence-weighted triplet loss, exact gradients, and a toy Adam loop.

The per-correspondence loss hinges the positive squared distance above a
margin m_p and pushes the hardest negative (searched on both sides, all
non-partner indices) above m_n:

    R_c = [D(xs_c, xt_c) - m_p]_+ + [m_n - min(min_k D(xs_c, xt_k),
                                               min_k D(xs_k, xt_c))]_+

with D the squared Euclidean distance.  The total loss averages s_c * R_c
over ground-truth correspondences, where s_c is the raw dot product of the
intermediate descriptors (clamped at zero inside the loss so wrong matches
are never rewarded).  By default s_c is detached: trained through it, the
loss finds a shortcut in driving s_c to zero.  A config flag attaches it.

Subgradient conventions: hinges contribute zero gradient at the kink; the
hardest negative is the first minimum of a row of detached squared distances
over every index but the partner (np.argmin, and never the partner, even when
all others are inf), so ties go to the lowest index (and to the target side
between the two directional minima), and gradients flow through exactly one
negative, the picked side's, and only while its hinge is active.  As in
HardNet (arXiv:1705.10872), the rows come from one distance table, which
`neighborhood.hardest_negatives` builds a chunk of ground-truth rows at a
time with the certified product that ratio matching uses: every entry within
the window of its row's minimum is recomputed as the loss ranks it,
((a - b) ** 2).sum(axis=-1) in the encodings' dtype, so the true minimum is
among them and the choice is exact.  A NaN or inf row voids the window, and
then every entry is recomputed.

The loss is one autodiff op, or two with the confidence attached.  Its
backward replays the formulas and the accumulation order of the op-by-op
graph it replaced (`tests/reference_ops.triplet_loss`), so gradients keep
their bits: a gathered row's gradient is summed into zeros with np.add.at.
An attached confidence is a node of its own, listed first among the loss's
parents, so the sweep reaches fs and ft through it after every other
consumer, and its shares land last, as its row gathers added them.  The
picked side's distance replaces the blend sel * d_nt + (1 - sel) * d_ns: the
same bits on finite values, and no 0 * inf when the other side is at inf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor
from .encoder import NetworkConfig, NetworkWeights, forward, init_weights
from .geometry import GenNoiseConfig, GroundTruth, generate_pair
from .neighborhood import NeighborhoodConfig, hardest_negatives

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator offset


@dataclass
class LossConfig:
    m_p: float = 0.2  # positive margin
    m_n: float = 1.0  # negative margin
    learning_rate: float = 1e-3
    decay: float = 0.99992  # per-step multiplicative lr factor
    detach_confidence: bool = True

    def __post_init__(self):
        if not (np.inf > self.m_n > self.m_p >= 0):
            raise ValueError("margins must be finite and satisfy m_n > m_p >= 0")
        if not 0 < self.learning_rate < np.inf:  # written so that NaN fails too
            raise ValueError("learning rate must be positive and finite")
        if not (0 < self.decay <= 1):
            raise ValueError("decay must lie in (0, 1]")


def _scatter(like, rows, g):
    """A row gather's backward: g's rows summed into zeros shaped like `like`, in order."""
    out = np.zeros_like(like)
    np.add.at(out, rows, g)
    return out


def triplet_loss(enc, gt: GroundTruth, cfg: LossConfig):
    """Mean of confidence-weighted ranking losses over all GT correspondences.

    Vectorized over correspondences: negatives are located on detached descriptor
    values by `hardest_negatives` (exact; see the module docstring), then only the
    selected rows enter the loss: one autodiff op, two with the confidence attached.
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
    xsd, xtd, dt = xs.data, xt.data, xs.data.dtype
    a, b = xsd[i_arr], xtd[j_arr]
    k_t = hardest_negatives(a, xtd, j_arr)
    k_s = hardest_negatives(b, xsd, i_arr)
    u, nt, ns = a - b, a - xtd[k_t], xsd[k_s] - b
    d_pos, d_nt, d_ns = ((x * x).sum(axis=1, keepdims=True) for x in (u, nt, ns))
    pick = d_nt <= d_ns  # tie prefers target side
    hp = d_pos - np.asarray(cfg.m_p, dtype=dt)
    hn = np.asarray(cfg.m_n, dtype=dt) - np.where(pick, d_nt, d_ns)
    rank = np.maximum(hp, 0.0) + np.maximum(hn, 0.0)
    fa, fb = fs.data[i_arr], ft.data[j_arr]
    s0 = (fa * fb).sum(axis=1, keepdims=True)
    s = np.maximum(s0, 0.0)  # negative confidence must not reward wrong matches
    inv = np.asarray(1.0 / len(gt.pairs), dtype=dt)
    ad.note_mul(u.size + nt.size + ns.size + fa.size + s.size + 1)
    for x in (u, nt, ns, fa):
        ad.note_alloc(x)

    def confidence_backward(g):
        gs = g * (s0 > 0)
        for t, rows, dx in ((ft, j_arr, gs * fa), (fs, i_arr, gs * fb)):
            if t.requires_grad:
                t._accumulate(_scatter(t.data, rows, dx))

    conf = None if cfg.detach_confidence else ad.node(s, (fs, ft), confidence_backward)

    def backward(g):
        gm = g * inv  # the sum's gradient
        grank = gm * s
        gu = grank * (hp > 0) * u  # each of d_pos's two differences a - b
        # only rows whose negative hinge is active get a share, so no 0 * inf: an inactive
        # row's tape share is a signed zero, which adding into zeros below leaves out
        act = (hn > 0)[:, 0]
        rt, rs = np.flatnonzero(act & pick[:, 0]), np.flatnonzero(act & ~pick[:, 0])
        gnt, gns = -grank[rt] * nt[rt], -grank[rs] * ns[rs]
        gnt += gnt  # the two shares of nt * nt
        gns += gns
        # a gets nt's share, then those of d_pos's two differences; b likewise, from ns
        ga, gb = gu + gu, -gu - gu
        ga[rt] = (gnt + gu[rt]) + gu[rt]
        gb[rs] = (-gns - gu[rs]) - gu[rs]
        for t, rows, dx in ((xs, k_s[rs], gns), (xt, k_t[rt], -gnt), (xt, j_arr, gb),
                            (xs, i_arr, ga)):
            if t.requires_grad:
                t._accumulate(_scatter(t.data, rows, dx))
        if conf is not None:
            conf._accumulate(gm * rank)

    # the confidence first, so that its shares reach f last (see the module docstring)
    parents = (xs, xt) if conf is None else (conf, xs, xt)
    return ad.node(np.asarray((s * rank).sum() * inv), parents, backward)


def loss_gradient(weights: NetworkWeights, batch, net_cfg: NetworkConfig,
                  loss_cfg: LossConfig, neigh_cfg: NeighborhoodConfig | None = None):
    """Loss value and exact gradients for one (source, target, gt) pair.

    Returns (loss, grads) where grads mirrors the weight structure.
    """
    ks, kt, gt = batch
    tw = weights.map_params(lambda w: Tensor(w, requires_grad=True))
    enc = forward(ks, kt, tw, net_cfg, neigh_cfg)
    loss = triplet_loss(enc, gt, loss_cfg)
    loss.backward()
    return float(loss.data), tw.map_params(
        lambda t: t.grad if t.grad is not None else np.zeros_like(t.data))


def gradient_check(net_cfg: NetworkConfig, loss_cfg: LossConfig, seed: int = 0,
                   samples: int = 256, step: float = 1e-5, scene=None, dtype=np.float64):
    """Compare reverse-mode gradients against central finite differences.

    Samples `samples` parameter entries uniformly across all tensors and
    returns their relative errors, in flat `all_params` order.  The gradient
    always flows through the confidence, whatever `loss_cfg.detach_confidence`.
    """
    if scene is None:
        scene = generate_pair(seed, 16, (128, 128), net_cfg.input_dim,
                              GenNoiseConfig(desc_sigma=0.1, distractors=4))
    ks, kt, gt, _ = scene
    loss_cfg = replace(loss_cfg, detach_confidence=False)  # a detached gradient is not the loss's
    weights = init_weights(net_cfg, seed=seed, dtype=dtype)
    _, grads = loss_gradient(weights, (ks, kt, gt), net_cfg, loss_cfg)

    params = [w.reshape(-1) for _, w in weights.all_params()]  # views: writes move the weights
    analytic = np.concatenate([g.reshape(-1) for _, g in grads.all_params()])
    ends = np.cumsum([p.size for p in params])
    rng = np.random.default_rng(seed + 1)
    chosen = np.sort(rng.choice(ends[-1], size=min(samples, ends[-1]), replace=False))

    def loss_at():
        return float(triplet_loss(forward(ks, kt, weights, net_cfg), gt, loss_cfg).data)

    rel_errors = np.empty(len(chosen))
    for i, flat_idx in enumerate(chosen):
        t = int(np.searchsorted(ends, flat_idx, side="right"))
        arr, local = params[t], flat_idx - (ends[t] - params[t].size)
        orig = arr[local]
        arr[local] = orig + step
        hi = loss_at()
        arr[local] = orig - step
        lo = loss_at()
        arr[local] = orig
        fd = (hi - lo) / (2 * step)
        adg = analytic[flat_idx]
        rel_errors[i] = abs(adg - fd) / max(abs(adg), abs(fd), 1e-6)
    return rel_errors


class AdamState:
    """First/second moments of every parameter, flat float64 vectors in `all_params` order:
    one vectorized update of both per step, then the parameters, tensor by tensor."""

    def __init__(self, weights: NetworkWeights):
        size = sum(np.size(v) for _, v in weights.all_params())
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.t = 0

    def step(self, weights: NetworkWeights, grads: NetworkWeights, lr: float):
        self.t += 1
        g = np.concatenate([v.ravel() for _, v in grads.all_params()], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite update raises below
            self.m = _BETA1 * self.m + (1 - _BETA1) * g
            self.v = _BETA2 * self.v + (1 - _BETA2) * g * g
            m_hat = self.m / (1 - _BETA1 ** self.t)
            v_hat = self.v / (1 - _BETA2 ** self.t)
            upd = lr * m_hat / (np.sqrt(v_hat) + _EPS)
        if not np.isfinite(upd).all():
            raise RuntimeError(f"non-finite Adam update at step {self.t - 1}")  # from 0, as traced
        params = [np.asarray(w) for _, w in weights.all_params()]
        for w, end in zip(params, np.cumsum([w.size for w in params])):
            w -= upd[end - w.size:end].reshape(w.shape).astype(w.dtype, copy=False)


def train_toy(dataset, net_cfg: NetworkConfig, loss_cfg: LossConfig, steps: int,
              seed: int = 0, neigh_cfg: NeighborhoodConfig | None = None):
    """Single-pair-per-step Adam training; returns (weights, trace).

    The trace lists (step, loss, lr) tuples.  Deterministic for a fixed
    seed.  Aborts on a non-finite loss or Adam update, naming the step.
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
