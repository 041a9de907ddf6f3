"""The fused encoder ops against the separate ops they replace, bit for bit.

`reference_ops` keeps the encoder as it was written op by op: three
projection products, the attention kernel, concatenation, `mlp0`, layer
norm, relu, `mlp1` and the residual add, then a row normalization built from
mul, sum, sqrt and div, the triplet loss from gathers, differences, products,
sums and hinges, and Adam with one moment buffer per tensor.  The fused ops
must give equal outputs and equal gradients (`np.array_equal`), and note the
same multiplies with the op counter, less the products they no longer make.
"""

import numpy as np
import pytest
import reference_ops as ref
from reference_ops import membership

import linmatch.autodiff as ad
import linmatch.encoder as encoder
import linmatch.training as training
from linmatch.attention import NeighborhoodPair
from linmatch.autodiff import Tensor
from linmatch.encoder import (
    EncodedPair,
    LayerWeights,
    NetworkConfig,
    encoder_layer,
    forward,
    init_weights,
)
from linmatch.geometry import GenNoiseConfig, GroundTruth, generate_pair
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
    loss = ref.add(ref.tsum(ref.mul(a, Tensor(rng.standard_normal(a.data.shape).astype(dtype)))),
                   ref.tsum(ref.mul(b, Tensor(rng.standard_normal(b.data.shape).astype(dtype)))))
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
        ref.tsum(ref.mul(out, w)).backward()
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


def _loss_run(loss_fn, dtype, detach):
    """Loss value and the gradients of its four inputs, for 20 correspondences among 30
    source and 26 target rows.  Negatives repeat and some are correspondence rows; both
    sides' negatives, both states of each hinge and of the confidence's clamp occur."""
    rng = np.random.default_rng(9)
    xs, xt = (rng.standard_normal((rows, 3)) for rows in (30, 26))
    fs, ft = rng.standard_normal((30, 5)), rng.standard_normal((26, 5)) + 0.3
    pairs = np.column_stack([rng.permutation(30)[:20], rng.permutation(26)[:20]])
    i, j = pairs.T
    xt[j[:10]] = xs[i[:10]] + 0.3 * rng.standard_normal((10, 3))
    tensors = _tensors([x.astype(dtype) for x in (xs, xt, fs, ft)])
    loss = loss_fn(EncodedPair(*tensors), GroundTruth(pairs),
                   LossConfig(m_p=0.3, m_n=0.5, detach_confidence=detach))
    loss.backward()
    return [loss.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("detach", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_value_and_gradients_equal_the_separate_ops(dtype, detach):
    fused = _loss_run(training.triplet_loss, dtype, detach)
    separate = _loss_run(ref.triplet_loss, dtype, detach)
    assert fused[0] > 0
    for k, (got, want) in enumerate(zip(fused, separate)):
        if detach and k > 2:  # f gets no gradient
            assert got is None and want is None
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), k


@pytest.mark.parametrize("detach", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_gradient_equals_the_separate_loss_ops(monkeypatch, dtype, detach):
    """A whole step, where f also feeds the pairwise layer: the loss adds its share of f's
    gradient after the layer's shares, as the tape's gathers did."""
    ks, kt, gt, _ = _train_scene()
    lcfg = LossConfig(detach_confidence=detach)
    got = loss_gradient(init_weights(TRAIN_CFG, seed=0, dtype=dtype), (ks, kt, gt),
                        TRAIN_CFG, lcfg)
    monkeypatch.setattr(training, "triplet_loss", ref.triplet_loss)
    want = loss_gradient(init_weights(TRAIN_CFG, seed=0, dtype=dtype), (ks, kt, gt),
                         TRAIN_CFG, lcfg)
    assert got[0] == want[0]
    for (name, g), (_, w) in zip(got[1].all_params(), want[1].all_params()):
        assert g.dtype == w.dtype and np.array_equal(g, w), name


def test_a_training_step_builds_25_nodes(monkeypatch):
    """Layer 0's three per side, two per side in each later layer, the two row
    normalizations and the loss."""
    ks, kt, gt, _ = _train_scene()
    made = []
    node = ad.node
    monkeypatch.setattr(ad, "node", lambda *a: made.append(1) or node(*a))
    loss_gradient(init_weights(TRAIN_CFG, seed=0, dtype=np.float64), (ks, kt, gt),
                  TRAIN_CFG, TRAIN_LOSS)
    assert len(made) == 25


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


def _empty_slot_multiplies(memberships, c, heads):
    """The multiplies the restricted kernel notes for the empty slots of its padded layout:
    per pairwise layer, (source + target empties) C' (d + 1) in each direction, plus each
    direction's query empties C'."""
    empties = sum(side.count * side.sizes.max(initial=0) - side.rows.size
                  for members in memberships for side in (members.source, members.target))
    return empties * c * (2 * (c // heads) + 3)


def test_op_counts_equal_those_of_the_separate_ops(monkeypatch):
    """Multiplies noted by one inference forward and one training step: their values
    before the ops were fused, less the products no longer made, plus the products of the
    empty padded slots; and no (n, m) buffer."""
    noise = GenNoiseConfig(desc_sigma=0.75, jitter_sigma=0.5, distractors=20)
    ks, kt, _, _ = generate_pair(3, 256, (314, 314), 256, noise)
    cfg = NetworkConfig()
    layers, update = [], encoder.pairwise_layer_update
    monkeypatch.setattr(encoder, "pairwise_layer_update",
                        lambda a, b, pairs, *rest: layers.append(pairs) or update(a, b, pairs, *rest))
    with ad.count_ops() as fwd:
        forward(ks, kt, init_weights(cfg, seed=0), cfg)
    padded = [_empty_slot_multiplies(layers, cfg.hidden_dim, cfg.heads)]
    layers.clear()
    ts, tt, gt, _ = _train_scene()
    with ad.count_ops() as step:
        loss_gradient(init_weights(TRAIN_CFG, seed=0, dtype=np.float64), (ts, tt, gt),
                      TRAIN_CFG, TRAIN_LOSS)
    padded.append(_empty_slot_multiplies(layers, TRAIN_CFG.hidden_dim, TRAIN_CFG.heads))
    assert len(layers) == TRAIN_CFG.l2 and min(padded) > 0
    # layer 0 takes its carrier from the attention op's v block, and the loss picks a side
    # instead of blending both with two multiplies per correspondence
    carriers = (len(ks) + len(kt)) * 256 * 64, (len(ts) + len(tt)) * 32 * 16
    assert fwd.multiplies == 203520512 - carriers[0] + padded[0]
    assert step.multiplies == 3584804 - carriers[1] - 2 * len(gt.pairs) + padded[1]
    for c, (n, m) in ((fwd, (len(ks), len(kt))), (step, (len(ts), len(tt)))):
        assert not c.has_allocation((n, m)) and not c.has_allocation((m, n))
