"""Loss, gradient, and toy-training tests against exhaustive oracles."""

import numpy as np
import pytest

from linmatch.autodiff import Tensor
from linmatch.encoder import EncodedPair, NetworkConfig, init_weights
from linmatch.geometry import GenNoiseConfig, GroundTruth, generate_pair
from linmatch.training import (
    AdamState,
    LossConfig,
    gradient_check,
    loss_gradient,
    train_toy,
    triplet_loss,
    write_loss_trace,
)


def oracle_triplet(xs, xt, fs, ft, pairs, cfg):
    """Plain-python loss: full negative search per correspondence."""
    total = 0.0
    for i, j in pairs:
        d_pos = float(((xs[i] - xt[j]) ** 2).sum())
        dt = ((xt - xs[i]) ** 2).sum(axis=1)
        dt[j] = np.inf
        ds = ((xs - xt[j]) ** 2).sum(axis=1)
        ds[i] = np.inf
        neg = min(float(dt.min()), float(ds.min()))
        rank = max(d_pos - cfg.m_p, 0.0) + max(cfg.m_n - neg, 0.0)
        total += max(float(fs[i] @ ft[j]), 0.0) * rank
    return total / len(pairs)


def random_enc(rng, n, m, c):
    xs = rng.normal(size=(n, c))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    xt = rng.normal(size=(m, c))
    xt /= np.linalg.norm(xt, axis=1, keepdims=True)
    fs = rng.normal(size=(n, c))
    ft = rng.normal(size=(m, c))
    return EncodedPair(xs, xt, fs, ft)


def one_pair_loss(xs, xt, cfg):
    """triplet_loss of the one correspondence (0, 0), whose confidence is 1."""
    unit = np.ones((3, 1))
    return triplet_loss(EncodedPair(xs, xt, unit, unit), GroundTruth(pairs=[(0, 0)]), cfg)


def test_ranking_loss_tie_prefers_target_side():
    # both directional negatives at squared distance 4; the target-side row
    # must receive gradient, the source-side row must not
    cfg = LossConfig(m_p=0.2, m_n=5.0)
    xs = Tensor(np.array([[0.0, 0.0], [-2.0, 0.1]]), requires_grad=True)
    xt = Tensor(np.array([[0.0, 0.1], [2.0, 0.0]]), requires_grad=True)
    one_pair_loss(xs, xt, cfg).backward()
    assert np.any(xt.grad[1] != 0)
    assert np.all(xs.grad[1] == 0)


def test_ranking_loss_argmin_tie_takes_lowest_index():
    cfg = LossConfig(m_p=0.2, m_n=5.0)
    xs = np.array([[0.0, 0.0], [9.0, 9.0]])
    xt = Tensor(np.array([[0.0, 0.1], [2.0, 0.0], [-2.0, 0.0]]), requires_grad=True)
    one_pair_loss(xs, xt, cfg).backward()
    assert np.any(xt.grad[1] != 0)
    assert np.all(xt.grad[2] == 0)


def test_triplet_loss_matches_exhaustive_oracle():
    cfg = LossConfig(m_p=0.2, m_n=1.0)
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(3, 12))
        enc = random_enc(rng, n, m, 6)
        k = int(rng.integers(2, min(n, m) + 1))
        src = rng.permutation(n)[:k]
        tgt = rng.permutation(m)[:k]
        gt = GroundTruth(pairs=[(int(i), int(j)) for i, j in zip(src, tgt)])
        got = float(triplet_loss(enc, gt, cfg).data)
        want = oracle_triplet(enc.xs_hat, enc.xt_hat, enc.fs_hat, enc.ft_hat,
                              gt.pairs, cfg)
        assert np.isclose(got, want, rtol=1e-10), f"trial {trial}"


def test_triplet_loss_requires_pairs_and_two_per_side():
    cfg = LossConfig()
    enc = random_enc(np.random.default_rng(0), 4, 4, 3)
    with pytest.raises(ValueError):
        triplet_loss(enc, GroundTruth(pairs=[]), cfg)
    small = EncodedPair(enc.xs_hat[:1], enc.xt_hat, enc.fs_hat[:1], enc.ft_hat)
    with pytest.raises(ValueError):
        triplet_loss(small, GroundTruth(pairs=[(0, 0)]), cfg)


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (4, 0), (0, 4)])
def test_triplet_loss_rejects_ground_truth_outside_the_encodings(pair):
    enc = random_enc(np.random.default_rng(0), 4, 4, 3)
    with pytest.raises(ValueError, match="out of range"):
        triplet_loss(enc, GroundTruth(pairs=[(1, 1), pair]), LossConfig())


def test_zero_loss_has_zero_gradient():
    # orthonormal matched rows: positive distance 0, negatives at 2, so both
    # hinges are strictly inactive and nothing should receive gradient
    cfg = LossConfig(m_p=0.2, m_n=1.0)
    xs = Tensor(np.eye(4), requires_grad=True)
    xt = Tensor(np.eye(4), requires_grad=True)
    fs = Tensor(np.full((4, 4), 0.5), requires_grad=True)
    ft = Tensor(np.full((4, 4), 0.5), requires_grad=True)
    gt = GroundTruth(pairs=[(k, k) for k in range(4)])
    loss = triplet_loss(EncodedPair(xs, xt, fs, ft), gt, cfg)
    assert loss.data == 0.0
    loss.backward()
    for t in (xs, xt, fs, ft):
        assert t.grad is None or not np.any(t.grad)


def test_loss_scales_linearly_with_confidence():
    cfg = LossConfig(m_p=0.0001, m_n=1.0)
    rng = np.random.default_rng(7)
    enc = random_enc(rng, 8, 8, 5)
    gt = GroundTruth(pairs=[(k, k) for k in range(5)])
    base = float(triplet_loss(enc, gt, cfg).data)
    scaled = EncodedPair(enc.xs_hat, enc.xt_hat, 3.0 * enc.fs_hat, enc.ft_hat)
    assert np.isclose(float(triplet_loss(scaled, gt, cfg).data), 3.0 * base, rtol=1e-12)
    assert base > 0


def test_detach_confidence_blocks_descriptor_gradient():
    rng = np.random.default_rng(11)
    data = random_enc(rng, 6, 6, 4)
    gt = GroundTruth(pairs=[(k, k) for k in range(4)])
    for detach, expect_grad in ((True, False), (False, True)):
        fs = Tensor(np.abs(data.fs_hat) + 0.1, requires_grad=True)
        ft = Tensor(np.abs(data.ft_hat) + 0.1, requires_grad=True)
        enc = EncodedPair(Tensor(data.xs_hat), Tensor(data.xt_hat), fs, ft)
        loss = triplet_loss(enc, gt, LossConfig(detach_confidence=detach))
        assert loss.data > 0
        loss.backward()
        has = fs.grad is not None and np.any(fs.grad)
        assert has == expect_grad


def test_negative_confidence_contributes_nothing():
    cfg = LossConfig(m_p=0.0001, m_n=1.0)
    rng = np.random.default_rng(13)
    enc = random_enc(rng, 6, 6, 4)
    gt = GroundTruth(pairs=[(0, 0), (1, 1)])
    fs = np.full((6, 4), -1.0)  # every confidence dot is negative
    clamped = EncodedPair(enc.xs_hat, enc.xt_hat, fs, np.ones((6, 4)))
    assert float(triplet_loss(clamped, gt, cfg).data) == 0.0


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(m_p=1.0, m_n=0.5)
    with pytest.raises(ValueError):
        LossConfig(m_p=-0.1)
    with pytest.raises(ValueError):
        LossConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        LossConfig(decay=0.0)
    with pytest.raises(ValueError):
        LossConfig(decay=1.5)


def tiny_scene(seed, d, n=10):
    return generate_pair(seed, n, (96, 96), d,
                         GenNoiseConfig(desc_sigma=0.05, distractors=2))


def test_loss_gradient_matches_finite_differences():
    cfg = NetworkConfig(input_dim=6, hidden_dim=4, heads=1, l1=1, l2=0)
    lcfg = LossConfig()
    ks, kt, gt, _ = tiny_scene(5, 6, n=8)
    weights = init_weights(cfg, seed=2, dtype=np.float64)
    loss0, grads = loss_gradient(weights, (ks, kt, gt), cfg, lcfg)
    assert np.isfinite(loss0)
    rng = np.random.default_rng(0)
    h = 1e-6
    checked = 0
    for name, arr in weights.all_params():
        g = dict(grads.all_params())[name]
        flat = arr.ravel()
        idx = int(rng.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + h
        hi, _ = loss_gradient(weights, (ks, kt, gt), cfg, lcfg)
        flat[idx] = orig - h
        lo, _ = loss_gradient(weights, (ks, kt, gt), cfg, lcfg)
        flat[idx] = orig
        fd = (hi - lo) / (2 * h)
        adg = g.ravel()[idx]
        assert abs(adg - fd) <= 1e-4 * max(abs(adg), abs(fd), 1e-6), name
        checked += 1
    assert checked == 14


def test_gradient_check_helper_passes_on_tiny_net():
    cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=1, l1=1, l2=0)
    max_err, frac_ok, count = gradient_check(cfg, LossConfig(), seed=1, samples=60)
    assert count == 60
    assert max_err < 1e-4
    assert frac_ok == 1.0


def test_gradient_check_with_heads_and_pairwise_layer(monkeypatch):
    """End to end through multi-head self/cross and pairwise layers, float64.

    The scene yields 21 neighborhoods of one to three members, some source
    rows in three of them, so overlapping sums and every head are exercised.
    """
    import linmatch.encoder as enc

    built = []
    real = enc.build_neighborhoods

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(enc, "build_neighborhoods", recording)
    cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=2, l1=1, l2=1)
    scene = generate_pair(0, 24, (96, 96), 8, GenNoiseConfig(desc_sigma=0.1, distractors=4))
    max_err, frac_ok, count = gradient_check(cfg, LossConfig(), seed=0, samples=96,
                                             scene=scene, dtype=np.float64)
    pairs = built[0]
    assert len(pairs) >= 5
    in_sets = np.bincount(pairs.source.rows)
    assert in_sets.max() >= 2, "neighborhoods must overlap"
    assert count == 96
    assert max_err < 1e-5
    assert frac_ok == 1.0


def toy_dataset(count, d, seed0=100):
    return [tiny_scene(seed0 + k, d)[:3] for k in range(count)]


def test_train_toy_trace_schedule_and_determinism():
    cfg = NetworkConfig(input_dim=8, hidden_dim=8, heads=2, l1=1, l2=0)
    lcfg = LossConfig(learning_rate=5e-3, decay=0.99)
    data = toy_dataset(3, 8)
    w1, t1 = train_toy(data, cfg, lcfg, steps=12, seed=4)
    w2, t2 = train_toy(data, cfg, lcfg, steps=12, seed=4)
    assert t1 == t2
    for (na, a), (nb, b) in zip(w1.all_params(), w2.all_params()):
        assert na == nb
        np.testing.assert_array_equal(a, b)
    for k, (step, loss, lr) in enumerate(t1):
        assert step == k
        assert np.isfinite(loss)
        assert np.isclose(lr, 5e-3 * 0.99 ** k, rtol=1e-12)


def test_train_toy_reduces_loss():
    cfg = NetworkConfig(input_dim=8, hidden_dim=8, heads=1, l1=1, l2=0)
    lcfg = LossConfig(learning_rate=2e-3)
    data = toy_dataset(4, 8, seed0=40)
    _, trace = train_toy(data, cfg, lcfg, steps=60, seed=0)
    first = np.mean([l for _, l, _ in trace[:8]])
    last = np.mean([l for _, l, _ in trace[-8:]])
    assert last < first


def test_train_toy_aborts_on_non_finite_loss(monkeypatch):
    import linmatch.training as tr

    cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=1, l1=1, l2=0)
    data = toy_dataset(1, 8)
    real = tr.loss_gradient
    calls = {"n": 0}

    def poisoned(weights, batch, net_cfg, loss_cfg, neigh_cfg=None):
        calls["n"] += 1
        loss, grads = real(weights, batch, net_cfg, loss_cfg, neigh_cfg)
        return (float("nan") if calls["n"] == 2 else loss), grads

    monkeypatch.setattr(tr, "loss_gradient", poisoned)
    with pytest.raises(RuntimeError, match="step 1"):
        tr.train_toy(data, cfg, LossConfig(), steps=3, seed=0)


def test_train_toy_rejects_empty_dataset():
    cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=1, l1=1, l2=0)
    with pytest.raises(ValueError):
        train_toy([], cfg, LossConfig(), steps=1)


def test_loss_trace_round_trip(tmp_path):
    trace = [(0, 0.5, 1e-3), (1, 0.25, 9.9992e-4), (2, 1.0 / 3.0, 9.8e-4)]
    path = tmp_path / "trace.csv"
    write_loss_trace(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,lr"
    parsed = [tuple(row.split(",")) for row in lines[1:]]
    for (step, loss, lr), row in zip(trace, parsed):
        assert int(row[0]) == step
        assert float(row[1]) == loss
        assert float(row[2]) == lr


def test_adam_matches_reference_formula():
    # one parameter, two steps, hand-rolled moment updates
    cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=1, l1=1, l2=0)
    weights = init_weights(cfg, seed=3, dtype=np.float64)
    name0, w0 = weights.all_params()[0]
    w_start = w0.copy()
    state = AdamState(weights)
    gmaps = []
    data = toy_dataset(1, 8, seed0=60)
    for _ in range(2):
        _, grads = loss_gradient(weights, data[0], cfg, LossConfig())
        gmaps.append(dict(grads.all_params())[name0].copy())
        state.step(weights, grads, 1e-2)
    # replay by hand; the second gradient was taken at the post-step-1 point,
    # so the recorded gmaps replay exactly
    m = np.zeros_like(w_start)
    v = np.zeros_like(w_start)
    w_ref = w_start.copy()
    for t, g in enumerate(gmaps, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w_ref -= 1e-2 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(w0, w_ref, rtol=1e-12)
