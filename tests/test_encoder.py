"""Layer wiring, full forward oracle, and weight-file round-trips."""

import hashlib

import numpy as np
import pytest
from reference_ops import membership

from linmatch.attention import NeighborhoodPair, attention
from linmatch.encoder import (
    EncodedPair,
    LayerWeights,
    NetworkConfig,
    NetworkWeights,
    cross_attention_update,
    encoder_layer,
    forward,
    init_weights,
    load_weights,
    pairwise_layer_update,
    read_tensor_table,
    save_weights,
    self_attention_update,
    write_tensor_table,
)
from linmatch.geometry import GenNoiseConfig, KeypointSet, generate_pair
from linmatch.neighborhood import (
    NeighborhoodConfig,
    build_neighborhoods,
    ratio_match,
    select_seeds,
)


def random_layer(rng, in_dim, hidden, dtype=np.float64):
    return LayerWeights(
        wq=rng.standard_normal((in_dim, hidden)).astype(dtype) * 0.3,
        wk=rng.standard_normal((in_dim, hidden)).astype(dtype) * 0.3,
        wv=rng.standard_normal((in_dim, hidden)).astype(dtype) * 0.3,
        mlp0=rng.standard_normal((2 * hidden, 2 * hidden)).astype(dtype) * 0.3,
        mlp1=rng.standard_normal((2 * hidden, hidden)).astype(dtype) * 0.3,
        ln_g=np.ones(2 * hidden, dtype=dtype),
        ln_b=np.zeros(2 * hidden, dtype=dtype),
    )


def numpy_layer(xq, xs, w, heads=1):
    """Independent plain-numpy recomputation of one encoder layer."""

    def elu1(x):
        return np.where(x >= 0, x + 1.0, np.exp(x))

    def lin_att(q, k, v):
        pq, pk = elu1(q), elu1(k)
        return (pq @ (pk.T @ v)) / (pq @ pk.sum(axis=0))[:, None]

    hidden = w.wv.shape[1]
    carrier = xq if xq.shape[1] == hidden else xq @ w.wv
    q, k, v = xq @ w.wq, xs @ w.wk, xs @ w.wv
    d = hidden // heads
    m = np.concatenate([lin_att(q[:, i * d:(i + 1) * d], k[:, i * d:(i + 1) * d],
                                v[:, i * d:(i + 1) * d]) for i in range(heads)], axis=1)
    h = np.concatenate([carrier, m], axis=1) @ w.mlp0
    mu = h.mean(axis=1, keepdims=True)
    var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
    h = (h - mu) / np.sqrt(var + 1e-5) * w.ln_g + w.ln_b
    h = np.maximum(h, 0.0) @ w.mlp1
    return carrier + h


class TestEncoderLayer:
    def test_zero_mlp_is_identity(self):
        rng = np.random.default_rng(0)
        w = random_layer(rng, 6, 6)
        w.mlp1 = np.zeros_like(w.mlp1)
        x = rng.standard_normal((5, 6))
        out = encoder_layer(x, x, w)
        np.testing.assert_array_equal(out.data, x)

    def test_scalar_path_oracle(self):
        rng = np.random.default_rng(1)
        w = random_layer(rng, 3, 3)
        xq = rng.standard_normal((1, 3))
        xs = rng.standard_normal((1, 3))
        out = encoder_layer(xq, xs, w)
        np.testing.assert_allclose(out.data, numpy_layer(xq, xs, w), rtol=1e-12)

    def test_matches_numpy_multihead(self):
        rng = np.random.default_rng(2)
        w = random_layer(rng, 8, 8)
        xq = rng.standard_normal((7, 8))
        xs = rng.standard_normal((9, 8))
        out = encoder_layer(xq, xs, w, heads=4)
        np.testing.assert_allclose(out.data, numpy_layer(xq, xs, w, heads=4), rtol=1e-10)

    def test_rectangular_first_layer_carrier(self):
        rng = np.random.default_rng(3)
        w = random_layer(rng, 16, 4)
        x = rng.standard_normal((6, 16))
        out = encoder_layer(x, x, w)
        assert out.data.shape == (6, 4)
        np.testing.assert_allclose(out.data, numpy_layer(x, x, w), rtol=1e-10)
        # zero feed-forward leaves only the projected carrier
        w.mlp1 = np.zeros_like(w.mlp1)
        np.testing.assert_allclose(encoder_layer(x, x, w).data, x @ w.wv, rtol=1e-12)

    def test_not_idempotent(self):
        rng = np.random.default_rng(4)
        w = random_layer(rng, 5, 5)
        x = rng.standard_normal((4, 5))
        once = encoder_layer(x, x, w).data
        twice = encoder_layer(once, once, w).data
        assert np.linalg.norm(twice - once) > 1e-6

    def test_empty_source_gives_zero_message(self):
        rng = np.random.default_rng(5)
        w = random_layer(rng, 4, 4)
        x = rng.standard_normal((3, 4))
        out = encoder_layer(x, np.zeros((0, 4)), w)
        # message is zero, so result equals the layer applied to m = 0
        h = np.concatenate([x, np.zeros((3, 4))], axis=1) @ w.mlp0
        mu = h.mean(axis=1, keepdims=True)
        var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
        h = (h - mu) / np.sqrt(var + 1e-5) * w.ln_g + w.ln_b
        expect = x + np.maximum(h, 0) @ w.mlp1
        np.testing.assert_allclose(out.data, expect, rtol=1e-10)

    def test_empty_query(self):
        rng = np.random.default_rng(6)
        w = random_layer(rng, 4, 4)
        out = encoder_layer(np.zeros((0, 4)), rng.standard_normal((3, 4)), w)
        assert out.data.shape == (0, 4)


class TestUpdates:
    def test_self_update_composes(self):
        rng = np.random.default_rng(7)
        w = random_layer(rng, 6, 6)
        xs = rng.standard_normal((5, 6))
        xt = rng.standard_normal((4, 6))
        a, b = self_attention_update(xs, xt, w, heads=2)
        np.testing.assert_allclose(a.data, encoder_layer(xs, xs, w, heads=2).data, rtol=1e-14)
        np.testing.assert_allclose(b.data, encoder_layer(xt, xt, w, heads=2).data, rtol=1e-14)

    def test_self_update_symmetric_inputs(self):
        rng = np.random.default_rng(8)
        w = random_layer(rng, 6, 6)
        x = rng.standard_normal((5, 6))
        a, b = self_attention_update(x, x.copy(), w)
        np.testing.assert_array_equal(a.data, b.data)

    def test_cross_update_composes(self):
        rng = np.random.default_rng(9)
        w = random_layer(rng, 6, 6)
        xs = rng.standard_normal((5, 6))
        xt = rng.standard_normal((4, 6))
        a, b = cross_attention_update(xs, xt, w)
        np.testing.assert_allclose(a.data, encoder_layer(xs, xt, w).data, rtol=1e-14)
        np.testing.assert_allclose(b.data, encoder_layer(xt, xs, w).data, rtol=1e-14)

    def test_cross_update_swap_symmetry(self):
        rng = np.random.default_rng(10)
        w = random_layer(rng, 6, 6)
        xs = rng.standard_normal((5, 6))
        xt = rng.standard_normal((4, 6))
        a, b = cross_attention_update(xs, xt, w)
        b2, a2 = cross_attention_update(xt, xs, w)
        np.testing.assert_array_equal(a.data, a2.data)
        np.testing.assert_array_equal(b.data, b2.data)

    def test_pairwise_full_coverage_equals_cross(self):
        rng = np.random.default_rng(11)
        w = random_layer(rng, 6, 6)
        xs = rng.standard_normal((5, 6))
        xt = rng.standard_normal((4, 6))
        full = NeighborhoodPair((0, 0), np.arange(5), np.arange(4))
        pa, pb = pairwise_layer_update(xs, xt, membership([full]), w)
        ca, cb = cross_attention_update(xs, xt, w)
        np.testing.assert_allclose(pa.data, ca.data, rtol=1e-12)
        np.testing.assert_allclose(pb.data, cb.data, rtol=1e-12)

    def test_pairwise_empty_pairs_zero_message(self):
        rng = np.random.default_rng(12)
        w = random_layer(rng, 4, 4)
        xs = rng.standard_normal((3, 4))
        xt = rng.standard_normal((3, 4))
        pa, pb = pairwise_layer_update(xs, xt, membership([]), w)
        za = encoder_layer(xs, np.zeros((0, 4)), w)
        zb = encoder_layer(xt, np.zeros((0, 4)), w)
        np.testing.assert_allclose(pa.data, za.data, rtol=1e-14)
        np.testing.assert_allclose(pb.data, zb.data, rtol=1e-14)

    def test_pairwise_disjoint_blockwise(self):
        rng = np.random.default_rng(13)
        w = random_layer(rng, 6, 6)
        xs = rng.standard_normal((8, 6))
        xt = rng.standard_normal((8, 6))
        p1 = NeighborhoodPair((0, 0), np.array([0, 1, 2]), np.array([0, 1]))
        p2 = NeighborhoodPair((5, 5), np.array([5, 6]), np.array([5, 6, 7]))
        pa, _ = pairwise_layer_update(xs, xt, membership([p1, p2]), w)
        # message rows for each block equal cross-attention on the sub-problem
        for p in (p1, p2):
            sub_q = xs[p.source_set] @ w.wq
            sub_k = xt[p.target_set] @ w.wk
            sub_v = xt[p.target_set] @ w.wv
            msg = attention(sub_q, sub_k, sub_v)[0]
            h = np.concatenate([xs[p.source_set], msg], axis=1) @ w.mlp0
            mu = h.mean(axis=1, keepdims=True)
            var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
            h = (h - mu) / np.sqrt(var + 1e-5) * w.ln_g + w.ln_b
            expect = xs[p.source_set] + np.maximum(h, 0) @ w.mlp1
            np.testing.assert_allclose(pa.data[p.source_set], expect, rtol=1e-10)


def tiny_scene(seed=0, n=24, dims=(100, 100), d=8):
    return generate_pair(seed, n, dims, d, GenNoiseConfig(desc_sigma=0.05, distractors=4))


class TestForward:
    def _setup(self, l1=1, l2=1, d=8, c=4, heads=1, seed=5):
        cfg = NetworkConfig(input_dim=d, hidden_dim=c, heads=heads, l1=l1, l2=l2)
        weights = init_weights(cfg, seed=seed, dtype=np.float64)
        return cfg, weights

    def test_l2_zero_output_is_normalized_intermediate(self):
        cfg, weights = self._setup(l1=2, l2=0)
        ks, kt, _, _ = tiny_scene()
        enc = forward(ks, kt, weights, cfg)
        np.testing.assert_array_equal(
            enc.xs_hat, enc.fs_hat / np.linalg.norm(enc.fs_hat, axis=1, keepdims=True))
        np.testing.assert_allclose(np.linalg.norm(enc.xs_hat, axis=1), 1.0, atol=1e-12)

    def test_empty_side(self):
        cfg, weights = self._setup()
        ks = KeypointSet(np.zeros((0, 2)), np.zeros((0, 8)), 100, 100)
        _, kt, _, _ = tiny_scene()
        enc = forward(ks, kt, weights, cfg)
        assert enc.xs_hat.shape == (0, 4)
        assert enc.xt_hat.shape[0] == len(kt)
        assert np.isfinite(enc.xt_hat).all()

    def test_scripted_forward_oracle(self):
        cfg, weights = self._setup(l1=1, l2=1)
        ks, kt, _, _ = tiny_scene()
        enc = forward(ks, kt, weights, cfg, NeighborhoodConfig())

        # scripted recomputation with plain numpy + the selection modules
        a = ks.descriptors.astype(np.float64)
        b = kt.descriptors.astype(np.float64)
        sw, cw, pw = weights.self_layers[0], weights.cross_layers[0], weights.pair_layers[0]
        a, b = numpy_layer(a, a, sw), numpy_layer(b, b, sw)
        a, b = numpy_layer(a, b, cw), numpy_layer(b, a, cw)
        fs, ft = a.copy(), b.copy()
        ncfg = NeighborhoodConfig().resolved_pair((100, 100), (100, 100))
        m = ratio_match(fs, ft, ncfg.theta)
        seeds = select_seeds(m, ks.keypoints, ncfg.r)
        prs = build_neighborhoods(seeds, m, ks.keypoints, kt.keypoints, ncfg)

        def pair_msg(q, k, v, pairs, n):
            def elu1(x):
                return np.where(x >= 0, x + 1.0, np.exp(x))
            out = np.zeros((n, q.shape[1]))
            for p in pairs:
                pq = elu1(q[p.source_set])
                pk = elu1(k[p.target_set])
                out[p.source_set] += (pq @ (pk.T @ v[p.target_set])) / (pq @ pk.sum(0))[:, None]
            return out

        ma = pair_msg(a @ pw.wq, b @ pw.wk, b @ pw.wv, prs, a.shape[0])
        swapped = [NeighborhoodPair((p.seed[1], p.seed[0]), p.target_set, p.source_set)
                   for p in prs]
        mb = pair_msg(b @ pw.wq, a @ pw.wk, a @ pw.wv, swapped, b.shape[0])

        def combine(x, msg, w):
            h = np.concatenate([x, msg], axis=1) @ w.mlp0
            mu = h.mean(axis=1, keepdims=True)
            var = ((h - mu) ** 2).mean(axis=1, keepdims=True)
            h = (h - mu) / np.sqrt(var + 1e-5) * w.ln_g + w.ln_b
            return x + np.maximum(h, 0) @ w.mlp1

        a, b = combine(a, ma, pw), combine(b, mb, pw)
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)

        np.testing.assert_allclose(enc.fs_hat, fs, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(enc.ft_hat, ft, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(enc.xs_hat, a, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(enc.xt_hat, b, rtol=1e-9, atol=1e-12)

    def test_translation_invariance_without_pairwise(self):
        cfg, weights = self._setup(l1=2, l2=0)
        ks, kt, _, _ = tiny_scene(dims=(200, 200))
        shifted_ks = KeypointSet(np.clip(ks.keypoints + 30.0, 0, 199.9),
                                 ks.descriptors, 200, 200)
        base = forward(ks, kt, weights, cfg)
        moved = forward(shifted_ks, kt, weights, cfg)
        np.testing.assert_array_equal(base.xs_hat, moved.xs_hat)

    def test_permutation_equivariance(self):
        cfg, weights = self._setup(l1=1, l2=1)
        ks, kt, _, _ = tiny_scene()
        rng = np.random.default_rng(3)
        perm = rng.permutation(len(ks))
        ks_p = KeypointSet(ks.keypoints[perm], ks.descriptors[perm], ks.width, ks.height)
        base = forward(ks, kt, weights, cfg)
        permuted = forward(ks_p, kt, weights, cfg)
        np.testing.assert_allclose(permuted.xs_hat, base.xs_hat[perm], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(permuted.xt_hat, base.xt_hat, rtol=1e-9, atol=1e-12)

    def test_finite_on_large_inputs(self):
        cfg, weights = self._setup(l1=2, l2=1)
        ks, kt, _, _ = tiny_scene()
        big = KeypointSet(ks.keypoints, ks.descriptors * 1e3, ks.width, ks.height)
        enc = forward(big, kt, weights, cfg)
        for arr in (enc.xs_hat, enc.xt_hat, enc.fs_hat, enc.ft_hat):
            assert np.isfinite(arr).all()

    def test_dim_mismatch_rejected(self):
        cfg, weights = self._setup(d=8)
        ks, kt, _, _ = generate_pair(0, 8, (64, 64), 16)
        with pytest.raises(ValueError):
            forward(ks, kt, weights, cfg)

    def test_heads_default_config(self):
        cfg = NetworkConfig()
        assert (cfg.input_dim, cfg.hidden_dim, cfg.heads) == (256, 64, 8)
        with pytest.raises(ValueError):
            NetworkConfig(hidden_dim=64, heads=7)
        with pytest.raises(ValueError):
            NetworkConfig(l1=0)


class TestWeightFiles:
    def test_init_deterministic(self):
        cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=2, l1=2, l2=1)
        a = init_weights(cfg, seed=3)
        b = init_weights(cfg, seed=3)
        for (na, va), (nb, vb) in zip(a.all_params(), b.all_params()):
            assert na == nb
            np.testing.assert_array_equal(va, vb)

    def test_save_load_round_trip(self, tmp_path):
        cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=2, l1=2, l2=2)
        w = init_weights(cfg, seed=1)
        p = tmp_path / "w.lawt"
        save_weights(p, w)
        loaded = load_weights(p)
        loaded.validate(cfg)
        for (na, va), (nb, vb) in zip(w.all_params(), loaded.all_params()):
            assert na == nb
            np.testing.assert_array_equal(va, vb)

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=1, l1=1, l2=0)
        w = init_weights(cfg, seed=2)
        p1, p2 = tmp_path / "a.lawt", tmp_path / "b.lawt"
        save_weights(p1, w)
        save_weights(p2, load_weights(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_error(self, tmp_path):
        cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=1, l1=1, l2=0)
        p = tmp_path / "w.lawt"
        save_weights(p, init_weights(cfg, seed=0))
        whole = p.read_bytes()
        clipped = tmp_path / "short.lawt"
        clipped.write_bytes(whole[:len(whole) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_weights(clipped)

    def test_bad_magic_error(self, tmp_path):
        p = tmp_path / "bad.lawt"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_weights(p)

    def test_missing_tensor_named_in_error(self, tmp_path):
        cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=1, l1=1, l2=0)
        w = init_weights(cfg, seed=0)
        p = tmp_path / "w.lawt"
        save_weights(p, w)
        import struct as st
        raw = p.read_bytes()
        # drop the declared tensor count by one and strip the last tensor
        count = st.unpack("<I", raw[8:12])[0]
        name_len = 2 + len(b"layer0.cross.ln_b")
        tail = name_len + 1 + 4 + 4 * 8  # name block + ndim + dims + data
        hacked = raw[:8] + st.pack("<I", count - 1) + raw[12:-tail]
        bad = tmp_path / "hacked.lawt"
        bad.write_bytes(hacked)
        with pytest.raises(ValueError, match="ln_b"):
            load_weights(bad)

    def test_validate_rejects_wrong_shape(self):
        cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=1, l1=1, l2=0)
        w = init_weights(cfg, seed=0)
        w.self_layers[0].wq = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="wq"):
            w.validate(cfg)


def test_weights_record_their_head_count(tmp_path):
    cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=2, l1=1, l2=1)
    w = init_weights(cfg, seed=0)
    assert w.heads == 2
    p = tmp_path / "w.lawt"
    save_weights(p, w)
    assert load_weights(p).config() == cfg
    ks, kt, _, _ = tiny_scene()
    with pytest.raises(ValueError, match="heads"):
        forward(ks, kt, w, NetworkConfig(input_dim=8, hidden_dim=4, heads=4, l1=1, l2=1))
    write_tensor_table(p, [], {"heads": 2})
    with pytest.raises(ValueError, match="no self/cross layers"):
        load_weights(p)


@pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
def test_tensor_float32_cannot_hold_is_refused_unwritten(tmp_path, value):
    # 1e39 once overflowed in the cast with a RuntimeWarning, and load_weights refused the file
    p = tmp_path / "w.lawt"
    bad = np.ones((2, 3))
    bad[1, 2] = value
    with pytest.raises(ValueError, match="layer0.self.wk: non-finite values in float32"):
        write_tensor_table(p, [("layer0.self.wq", np.ones(2)), ("layer0.self.wk", bad)], {})
    assert not p.exists()


def test_weight_file_cut_anywhere_is_a_value_error(tmp_path):
    cfg = NetworkConfig(input_dim=2, hidden_dim=2, heads=2, l1=1, l2=0)
    p = tmp_path / "w.lawt"
    save_weights(p, init_weights(cfg, seed=0))
    whole = p.read_bytes()
    cut = tmp_path / "cut.lawt"
    for end in range(len(whole)):
        cut.write_bytes(whole[:end])
        with pytest.raises(ValueError):
            load_weights(cut)


LAYOUT_CFG = NetworkConfig(input_dim=8, hidden_dim=4, heads=2, l1=2, l2=1)


def test_weight_file_bytes_are_pinned(tmp_path):
    # SHA-256 recorded before `layer_prefixes` became the one definition of the names
    p = tmp_path / "w.lawt"
    save_weights(p, init_weights(LAYOUT_CFG, seed=0))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == \
        "8e57b5d3cc3333f51f328367947c8c318b0a6fd05d6034acbc3609f52b077ba8"


def test_save_load_save_byte_identical_with_pair_layers(tmp_path):
    p1, p2 = tmp_path / "a.lawt", tmp_path / "b.lawt"
    save_weights(p1, init_weights(LAYOUT_CFG, seed=4))
    loaded = load_weights(p1)
    assert (len(loaded.self_layers), len(loaded.pair_layers), loaded.heads) == (2, 1, 2)
    save_weights(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def _renamed(entries, old, new):
    return [(name.replace(old, new), value) for name, value in entries]


# each turns the entries of a valid l1=2, l2=1 file into names off that layout,
# with the names the error must list
OFF_LAYOUT = {
    "extra tensor": (lambda e: e + [("layer3.cross.wq", e[-1][1])], ["layer3.cross.wq"]),
    "unknown kind": (lambda e: e + [("layer0.bogus.wq", e[0][1])], ["layer0.bogus.wq"]),
    "stray layer index": (lambda e: _renamed(e, "layer1.self.", "layer4.self."),
                          ["layer1.self.wq", "layer4.self.wq"]),
    "pair layer at wrong index": (lambda e: _renamed(e, "layer2.pair.", "layer3.pair."),
                                  ["layer2.pair.mlp0", "layer3.pair.mlp0"]),
    "missing tensor": (lambda e: [(n, v) for n, v in e if n != "layer1.cross.mlp1"],
                       ["layer1.cross.mlp1"]),
}


@pytest.mark.parametrize("case", sorted(OFF_LAYOUT))
def test_names_off_the_layout_are_refused(tmp_path, case):
    edit, listed = OFF_LAYOUT[case]
    p = tmp_path / "w.lawt"
    write_tensor_table(p, edit(init_weights(LAYOUT_CFG, seed=0).all_params()), {"heads": 2})
    with pytest.raises(ValueError, match="differ from the layout") as err:
        load_weights(p)
    assert all(repr(name) in str(err.value) for name in listed)


def test_from_table_rebuilds_the_layers():
    w = init_weights(LAYOUT_CFG, seed=5)
    rebuilt = NetworkWeights.from_table(dict(w.all_params()), w.heads)
    assert rebuilt.heads == 2
    assert all(a is b for (_, a), (_, b) in zip(rebuilt.all_params(), w.all_params(), strict=True))


def test_repeated_tensor_name_is_refused(tmp_path):
    entries = init_weights(LAYOUT_CFG, seed=0).all_params()
    p = tmp_path / "w.lawt"
    write_tensor_table(p, entries + [("layer0.self.wq", np.zeros((8, 4)))], {"heads": 2})
    with pytest.raises(ValueError, match="repeated tensor name 'layer0.self.wq'"):
        read_tensor_table(p)
    with pytest.raises(ValueError, match="repeated"):
        load_weights(p)
