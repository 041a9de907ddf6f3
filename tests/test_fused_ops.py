"""The fused encoder ops against the separate ops they replace, bit for bit.

`reference_ops` keeps the encoder as it was written op by op: three
projection products, the attention kernel, concatenation, `mlp0`, layer
norm, relu, `mlp1` and the residual add, then a row normalization built from
mul, sum, sqrt and div, and Adam with one moment buffer per tensor.  The
fused ops must give equal outputs and equal gradients (`np.array_equal`),
and note the same multiplies with the op counter.
"""

import numpy as np
import pytest
import reference_ops as ref
from reference_ops import membership

import linmatch.autodiff as ad
import linmatch.encoder as encoder
from linmatch.attention import NeighborhoodPair
from linmatch.autodiff import Tensor
from linmatch.encoder import LayerWeights, NetworkConfig, encoder_layer, forward, init_weights
from linmatch.geometry import GenNoiseConfig, generate_pair
from linmatch.training import AdamState, LossConfig, loss_gradient

HIDDEN = 8
# source rows 0..39 and target rows 0..32; the sets overlap on both sides
PAIRS = [NeighborhoodPair((0, 1), np.array([0, 2, 3, 5, 11]), np.array([1, 4, 6])),
         NeighborhoodPair((3, 4), np.array([3, 5, 7, 8]), np.array([4, 6, 9, 2, 30])),
         NeighborhoodPair((9, 0), np.array([9, 2, 10]), np.array([0, 4])),
         NeighborhoodPair((20, 21), np.array([20]), np.array([21, 22, 23]))]


def _layer(rng, in_dim, dtype):
    c = HIDDEN
    shapes = [(in_dim, c)] * 3 + [(2 * c, 2 * c), (2 * c, c), (2 * c,), (2 * c,)]
    return LayerWeights(*(rng.standard_normal(s).astype(dtype) for s in shapes))


def _tensors(arrays):
    return [Tensor(a.copy(), requires_grad=True) for a in arrays]


def _run(update, kind, in_dim, dtype, heads):
    """Outputs and every gradient of one two-direction update."""
    rng = np.random.default_rng(5)
    xs, xt = _tensors([rng.standard_normal((40, in_dim)).astype(dtype),
                       rng.standard_normal((33, in_dim)).astype(dtype)])
    w = _layer(rng, in_dim, dtype)
    tw = LayerWeights(*_tensors([a for _, a in w.params()]))
    args = (xs, xt, membership(PAIRS)) if kind == "pairwise" else (xs, xt)
    a, b = update(*args, tw, heads)
    loss = ad.add(ad.tsum(ad.mul(a, Tensor(rng.standard_normal(a.data.shape).astype(dtype)))),
                  ad.tsum(ad.mul(b, Tensor(rng.standard_normal(b.data.shape).astype(dtype)))))
    loss.backward()
    return [a.data, b.data, xs.grad, xt.grad] + [t.grad for _, t in tw.params()]


UPDATES = {"layer0": "self_attention_update", "self": "self_attention_update",
           "cross": "cross_attention_update", "pairwise": "pairwise_layer_update"}


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", sorted(UPDATES))
def test_layer_outputs_and_gradients_equal_the_separate_ops(kind, dtype, heads):
    in_dim = 12 if kind == "layer0" else HIDDEN  # layer 0 adds the carrier product
    fused = _run(getattr(encoder, UPDATES[kind]), kind, in_dim, dtype, heads)
    separate = _run(getattr(ref, UPDATES[kind]), kind, in_dim, dtype, heads)
    assert all(g is not None for g in fused)
    for k, (got, want) in enumerate(zip(fused, separate)):
        assert got.dtype == want.dtype and np.array_equal(got, want), k


def test_row_normalization_equals_the_separate_ops():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((9, 5))
    w = Tensor(rng.standard_normal((9, 5)))
    got = []
    for op in (ad.row_l2_normalize, ref.row_l2_normalize):
        t = Tensor(x.copy(), requires_grad=True)
        out = op(t)
        ad.tsum(ad.mul(out, w)).backward()
        got.append((out.data, t.grad))
    assert all(np.array_equal(a, b) for a, b in zip(*got))


def _train_scene():
    noise = GenNoiseConfig(desc_sigma=0.75, jitter_sigma=0.5, distractors=20)
    return generate_pair(3, 128, (256, 256), 32, noise)


TRAIN_CFG = NetworkConfig(input_dim=32, hidden_dim=16, heads=2, l1=2, l2=1)
TRAIN_LOSS = LossConfig(m_p=0.5, m_n=0.8, detach_confidence=True)


def test_training_step_equals_the_separate_ops(monkeypatch):
    """One `loss_gradient` and one Adam step of an l1=2, l2=1 network."""
    ks, kt, gt, _ = _train_scene()
    weights = init_weights(TRAIN_CFG, seed=0, dtype=np.float64)
    ref_weights = init_weights(TRAIN_CFG, seed=0, dtype=np.float64)
    loss, grads = loss_gradient(weights, (ks, kt, gt), TRAIN_CFG, TRAIN_LOSS)
    AdamState(weights).step(weights, grads, 1e-2)
    with monkeypatch.context() as mp:
        for name in ("self_attention_update", "cross_attention_update"):
            mp.setattr(encoder, name, getattr(ref, name))
        mp.setattr(ad, "row_l2_normalize", ref.row_l2_normalize)
        calls = []
        mp.setattr(encoder, "pairwise_layer_update",
                   lambda *a: calls.append(len(a[2])) or ref.pairwise_layer_update(*a))
        ref_loss, ref_grads = loss_gradient(ref_weights, (ks, kt, gt), TRAIN_CFG, TRAIN_LOSS)
    assert calls and calls[0] > 0, "the scene must exercise the pairwise layer"
    ref.DictAdam(ref_weights).step(ref_weights, ref_grads, 1e-2)
    assert loss == ref_loss
    for (name, g), (_, want) in zip(grads.all_params(), ref_grads.all_params()):
        assert np.array_equal(g, want), name
    for (name, w), (_, want) in zip(weights.all_params(), ref_weights.all_params()):
        assert np.array_equal(w, want), name


@pytest.mark.parametrize("in_dim, nodes", [(HIDDEN, 2), (12, 3)])
def test_one_layer_records_two_nodes_and_layer0_its_carrier(monkeypatch, in_dim, nodes):
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((10, in_dim)))
    w = LayerWeights(*_tensors([a for _, a in _layer(rng, in_dim, np.float64).params()]))
    made = []
    node = ad.node
    monkeypatch.setattr(ad, "node", lambda *a: made.append(1) or node(*a))
    out = encoder_layer(x, x, w, heads=2)
    assert out.requires_grad and len(made) == nodes


def test_op_counts_equal_those_of_the_separate_ops():
    """Multiplies noted by one inference forward and one training step, pinned
    at their values before the ops were fused; and no (n, m) buffer."""
    noise = GenNoiseConfig(desc_sigma=0.75, jitter_sigma=0.5, distractors=20)
    ks, kt, _, _ = generate_pair(3, 256, (314, 314), 256, noise)
    cfg = NetworkConfig()
    with ad.count_ops() as fwd:
        forward(ks, kt, init_weights(cfg, seed=0), cfg)
    ts, tt, gt, _ = _train_scene()
    with ad.count_ops() as step:
        loss_gradient(init_weights(TRAIN_CFG, seed=0, dtype=np.float64), (ts, tt, gt),
                      TRAIN_CFG, TRAIN_LOSS)
    assert (fwd.multiplies, step.multiplies) == (203520512, 3584804)
    for c, (n, m) in ((fwd, (len(ks), len(kt))), (step, (len(ts), len(tt)))):
        assert not c.has_allocation((n, m)) and not c.has_allocation((m, n))
