"""Finite-difference checks for every autodiff op, and for the separate ops
(`reference_ops`) that the fused encoder and loss ops must reproduce bit for bit."""

import numpy as np
import pytest
import reference_ops as ref

from linmatch import autodiff as ad
from linmatch.encoder import EncodedPair, LayerWeights, NetworkConfig, feed_forward, init_weights
from linmatch.geometry import GenNoiseConfig, GroundTruth, generate_pair
from linmatch.matcher import match_pipeline
from linmatch.training import LossConfig, loss_gradient, triplet_loss


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of scalar-valued f at x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_unary(op, x, scale=None, tol=1e-7):
    t = ad.Tensor(x.copy(), requires_grad=True)
    out = op(t)
    w = np.random.default_rng(0).standard_normal(out.data.shape)
    ref.tsum(ref.mul(out, ad.Tensor(w))).backward()

    def f(xv):
        return float((op(ad.Tensor(xv)).data * w).sum())

    num = numeric_grad(f, x.copy())
    np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


class TestElementwise:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add_broadcast(self):
        a = ad.Tensor(self.rng.standard_normal((4, 3)), requires_grad=True)
        b = ad.Tensor(self.rng.standard_normal((1, 3)), requires_grad=True)
        out = ref.add(a, b)
        ref.tsum(out).backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 3)))
        np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0))

    def test_sub_broadcast_scalar(self):
        a = ad.Tensor(self.rng.standard_normal((4, 3)), requires_grad=True)
        b = ad.Tensor(np.array(2.0), requires_grad=True)
        out = ref.sub(a, b)
        ref.tsum(out).backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 3)))
        np.testing.assert_allclose(b.grad, -12.0)

    def test_mul_grads(self):
        x = self.rng.standard_normal((5, 4))
        y = self.rng.standard_normal((5, 4))
        a = ad.Tensor(x.copy(), requires_grad=True)
        b = ad.Tensor(y.copy(), requires_grad=True)
        ref.tsum(ref.mul(a, b)).backward()
        np.testing.assert_allclose(a.grad, y)
        np.testing.assert_allclose(b.grad, x)

    def test_div_numeric(self):
        x = self.rng.standard_normal((3, 4))
        y = self.rng.standard_normal((3, 4)) + 3.0
        a = ad.Tensor(x.copy(), requires_grad=True)
        b = ad.Tensor(y.copy(), requires_grad=True)
        ref.tsum(ref.div(a, b)).backward()

        na = numeric_grad(lambda v: float((v / y).sum()), x.copy())
        nb = numeric_grad(lambda v: float((x / v).sum()), y.copy())
        np.testing.assert_allclose(a.grad, na, atol=1e-7)
        np.testing.assert_allclose(b.grad, nb, atol=1e-7)

    def test_phi_positive_everywhere(self):
        x = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
        out = ad.phi_array(x)
        assert (out > 0).all()
        np.testing.assert_allclose(out[2:], x[2:] + 1.0)
        np.testing.assert_allclose(out[:2], np.exp(x[:2]))

    def test_relu(self):
        x = self.rng.standard_normal((6, 5))
        x[np.abs(x) < 0.05] = 0.5  # keep away from the kink
        check_unary(ref.relu, x)

    def test_relu_kink_subgradient_zero(self):
        t = ad.Tensor(np.zeros(3), requires_grad=True)
        ref.tsum(ref.relu(t)).backward()
        np.testing.assert_allclose(t.grad, np.zeros(3))

    def test_sqrt(self):
        x = self.rng.random((4, 4)) + 0.5
        check_unary(ref.sqrt, x)


class TestLinalg:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_matmul_numeric(self):
        x = self.rng.standard_normal((4, 3))
        y = self.rng.standard_normal((3, 5))
        a = ad.Tensor(x.copy(), requires_grad=True)
        b = ad.Tensor(y.copy(), requires_grad=True)
        w = self.rng.standard_normal((4, 5))
        ref.tsum(ref.mul(ref.matmul(a, b), ad.Tensor(w))).backward()

        na = numeric_grad(lambda v: float(((v @ y) * w).sum()), x.copy())
        nb = numeric_grad(lambda v: float(((x @ v) * w).sum()), y.copy())
        np.testing.assert_allclose(a.grad, na, atol=1e-6)
        np.testing.assert_allclose(b.grad, nb, atol=1e-6)

    def test_sum_axis_keepdims(self):
        x = self.rng.standard_normal((4, 6))
        a = ad.Tensor(x.copy(), requires_grad=True)
        out = ref.tsum(a, axis=1, keepdims=True)
        assert out.data.shape == (4, 1)
        ref.tsum(ref.mul(out, ad.Tensor(np.arange(4.0)[:, None]))).backward()
        np.testing.assert_allclose(a.grad, np.tile(np.arange(4.0)[:, None], (1, 6)))

    def test_sum_axis0(self):
        a = ad.Tensor(self.rng.standard_normal((4, 6)), requires_grad=True)
        ref.tsum(ref.tsum(a, axis=0)).backward()
        np.testing.assert_allclose(a.grad, np.ones((4, 6)))


class TestStructural:
    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_concat_cols(self):
        a = ad.Tensor(self.rng.standard_normal((4, 3)), requires_grad=True)
        b = ad.Tensor(self.rng.standard_normal((4, 2)), requires_grad=True)
        out = ref.concat_cols(a, b)
        w = self.rng.standard_normal((4, 5))
        ref.tsum(ref.mul(out, ad.Tensor(w))).backward()
        np.testing.assert_allclose(a.grad, w[:, :3])
        np.testing.assert_allclose(b.grad, w[:, 3:])

    def test_gather_rows_with_repeats(self):
        a = ad.Tensor(self.rng.standard_normal((5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        out = ref.gather_rows(a, idx)
        np.testing.assert_allclose(out.data, a.data[idx])
        ref.tsum(out).backward()
        expect = np.zeros((5, 3))
        np.add.at(expect, idx, 1.0)
        np.testing.assert_allclose(a.grad, expect)


class TestLayerNorm:
    def test_numeric_grads(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 8))
        gm = rng.standard_normal(8)
        bt = rng.standard_normal(8)
        w = rng.standard_normal((5, 8))

        tx = ad.Tensor(x.copy(), requires_grad=True)
        tg = ad.Tensor(gm.copy(), requires_grad=True)
        tb = ad.Tensor(bt.copy(), requires_grad=True)
        ref.tsum(ref.mul(ref.layer_norm(tx, tg, tb), ad.Tensor(w))).backward()

        def f_x(v):
            return float((ref.layer_norm(ad.Tensor(v), ad.Tensor(gm), ad.Tensor(bt)).data * w).sum())

        def f_g(v):
            return float((ref.layer_norm(ad.Tensor(x), ad.Tensor(v), ad.Tensor(bt)).data * w).sum())

        def f_b(v):
            return float((ref.layer_norm(ad.Tensor(x), ad.Tensor(gm), ad.Tensor(v)).data * w).sum())

        np.testing.assert_allclose(tx.grad, numeric_grad(f_x, x.copy()), atol=1e-6)
        np.testing.assert_allclose(tg.grad, numeric_grad(f_g, gm.copy()), atol=1e-6)
        np.testing.assert_allclose(tb.grad, numeric_grad(f_b, bt.copy()), atol=1e-6)

    def test_normalizes_rows(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 16)) * 5 + 3
        out = ref.layer_norm(ad.Tensor(x), ad.Tensor(np.ones(16)), ad.Tensor(np.zeros(16))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-4)


class TestFeedForward:
    def test_numeric_grads(self):
        """Every input of the fused concat -> mlp0 -> layer norm -> relu -> mlp1 -> residual op."""
        rng = np.random.default_rng(3)
        unused = np.zeros((4, 4))
        inputs = {"carrier": rng.standard_normal((5, 4)), "m": rng.standard_normal((5, 4)),
                  "mlp0": rng.standard_normal((8, 8)), "mlp1": rng.standard_normal((8, 4)),
                  "ln_g": rng.standard_normal(8), "ln_b": rng.standard_normal(8)}
        w = rng.standard_normal((5, 4))

        def run(values, cls=ad.Tensor):
            t = {k: cls(v) for k, v in values.items()}
            lw = LayerWeights(unused, unused, unused, t["mlp0"], t["mlp1"], t["ln_g"], t["ln_b"])
            return t, feed_forward(t["carrier"], t["m"], lw)

        tensors, out = run({k: v.copy() for k, v in inputs.items()},
                           lambda v: ad.Tensor(v, requires_grad=True))
        ref.tsum(ref.mul(out, ad.Tensor(w))).backward()
        for name, value in inputs.items():
            def f(v):
                return float((run({**inputs, name: v})[1].data * w).sum())

            num = numeric_grad(f, value.copy())
            np.testing.assert_allclose(tensors[name].grad, num, atol=1e-6, err_msg=name)


class TestTripletLoss:
    @pytest.mark.parametrize("detach", [False, True])
    def test_numeric_grads(self, detach):
        """Every input of the fused loss, with both sides' negatives, active and inactive
        hinges and clamped confidences among the eight correspondences."""
        rng = np.random.default_rng(4)
        inputs = {"xs_hat": rng.standard_normal((12, 3)), "xt_hat": rng.standard_normal((10, 3)),
                  "fs_hat": rng.standard_normal((12, 4)), "ft_hat": rng.standard_normal((10, 4))}
        gt = GroundTruth(np.column_stack([rng.permutation(12)[:8], rng.permutation(10)[:8]]))
        inputs["xt_hat"][gt.pairs[:4, 1]] = inputs["xs_hat"][gt.pairs[:4, 0]] + 0.3
        cfg = LossConfig(m_p=0.3, m_n=0.5, detach_confidence=detach)

        def run(values, cls=ad.Tensor):
            t = {k: cls(v) for k, v in values.items()}
            return t, triplet_loss(EncodedPair(**t), gt, cfg)

        tensors, loss = run({k: v.copy() for k, v in inputs.items()},
                            lambda v: ad.Tensor(v, requires_grad=True))
        loss.backward()
        for name, value in inputs.items():
            if detach and name.startswith("f"):  # the confidence weighs, but passes no gradient
                assert tensors[name].grad is None
                continue

            def f(v):
                return float(run({**inputs, name: v})[1].data)

            num = numeric_grad(f, value.copy())
            np.testing.assert_allclose(tensors[name].grad, num, atol=1e-6, err_msg=name)


class TestRowNormalize:
    def test_unit_norms(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        out = ad.row_l2_normalize(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)

    def test_numeric_grad(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3)) + 0.5
        w = rng.standard_normal((4, 3))
        t = ad.Tensor(x.copy(), requires_grad=True)
        ref.tsum(ref.mul(ad.row_l2_normalize(t), ad.Tensor(w))).backward()

        def f(v):
            return float((v / np.linalg.norm(v, axis=1, keepdims=True) * w).sum())

        np.testing.assert_allclose(t.grad, numeric_grad(f, x.copy()), atol=1e-6)


class TestGraphMechanics:
    def test_grad_accumulates_on_reuse(self):
        a = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)
        out = ref.add(ref.mul(a, a), a)  # x^2 + x
        ref.tsum(out).backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 1)

    def test_a_node_records_iff_a_parent_requires_gradients(self, monkeypatch):
        """On the real paths: an inference `match_pipeline` call (array weights) records
        no node, and a training step (Tensor weights) records every one."""
        made, real = [], ad.node

        def recording(data, parents, backward):
            made.append(real(data, parents, backward))
            return made[-1]

        monkeypatch.setattr(ad, "node", recording)
        cfg = NetworkConfig(input_dim=8, hidden_dim=8, heads=2, l1=1, l2=1)
        ks, kt, gt, _ = generate_pair(0, 48, (128, 128), 8,
                                      GenNoiseConfig(desc_sigma=0.1, distractors=4))
        weights = init_weights(cfg, seed=0, dtype=np.float64)
        match_pipeline(ks, kt, weights, cfg)
        assert len(made) >= 10  # self, cross and pairwise layers, both sides, normalization
        assert not any(t.requires_grad or t._parents or t._backward for t in made)
        made.clear()
        loss_gradient(weights, (ks, kt, gt), cfg, LossConfig())
        assert len(made) >= 10
        assert all(t.requires_grad and t._parents and t._backward for t in made)


def test_backward_frees_the_graph_without_the_cycle_collector():
    import gc
    import weakref

    gc.disable()
    try:
        x = ad.Tensor(np.ones(3), requires_grad=True)
        hidden = ref.mul(x, x)
        alive = weakref.ref(hidden.data)
        loss = ref.tsum(hidden)
        del hidden
        loss.backward()
        del loss
        assert alive() is None, "the sweep kept the graph in a reference cycle"
    finally:
        gc.enable()


class TestOpCounter:
    def test_matmul_counts(self):
        with ad.count_ops() as c:
            ref.matmul(ad.Tensor(np.ones((4, 3))), ad.Tensor(np.ones((3, 5))))
        assert c.multiplies == 4 * 3 * 5

    def test_allocation_tracking(self):
        with ad.count_ops() as c:
            ref.add(ad.Tensor(np.ones((7, 2))), ad.Tensor(np.ones((7, 2))))
        assert c.has_allocation((7, 2))
        assert not c.has_allocation((7, 7))

    def test_disabled_outside_block(self):
        with ad.count_ops() as c:
            pass
        ref.mul(ad.Tensor(np.ones(4)), ad.Tensor(np.ones(4)))
        assert c.multiplies == 0
