"""Kernel correctness against naive per-row oracles."""

import warnings

import numpy as np
import pytest
import reference_ops as ref
from reference_ops import membership

from linmatch import autodiff as ad
from linmatch.attention import (
    Membership,
    NeighborhoodPair,
    Segments,
    attention,
    projected_attention,
    softmax_attention_reference,
)


def double_loop_attention(q, k, v):
    """Explicit double-loop evaluation of the accumulator-free formula."""

    def elu1(x):
        return np.where(x >= 0, x + 1.0, np.exp(x))

    n, c = q.shape
    out = np.zeros((n, c), dtype=q.dtype)
    for i in range(n):
        num = np.zeros(c, dtype=q.dtype)
        den = 0.0
        for j in range(k.shape[0]):
            w = float(elu1(q[i]) @ elu1(k[j]))
            num += w * v[j]
            den += w
        out[i] = num / den
    return out


def naive_softmax_attention(q, k, v):
    s = q @ k.T / np.sqrt(q.shape[1])
    s -= s.max(axis=1, keepdims=True)
    w = np.exp(s)
    w /= w.sum(axis=1, keepdims=True)
    return w @ v


def random_triplet(rng, n, m, c, dtype=np.float64):
    return ref.Triplet(
        rng.standard_normal((n, c)).astype(dtype),
        rng.standard_normal((m, c)).astype(dtype),
        rng.standard_normal((m, c)).astype(dtype),
    )


class TestPhi:
    def test_fixed_points(self):
        x = np.array([0.0, 1.0, -20.0])
        out = ad.phi_array(x)
        np.testing.assert_allclose(out[0], 1.0)
        np.testing.assert_allclose(out[1], 2.0)
        np.testing.assert_allclose(out[2], np.exp(-20.0), rtol=1e-12)
        assert out[2] > 0


class TestLinearAttention:
    def test_single_key_collapses(self):
        rng = np.random.default_rng(0)
        t = random_triplet(rng, 5, 1, 4)
        out = attention(*t)[0]
        np.testing.assert_allclose(out, np.tile(t.v, (5, 1)), rtol=1e-12)

    def test_identical_keys_give_value_mean(self):
        rng = np.random.default_rng(1)
        k_row = rng.standard_normal(4)
        t = ref.Triplet(
            rng.standard_normal((6, 4)),
            np.tile(k_row, (7, 1)),
            rng.standard_normal((7, 4)),
        )
        out = attention(*t)[0]
        np.testing.assert_allclose(out, np.tile(t.v.mean(axis=0), (6, 1)), rtol=1e-10, atol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        t = random_triplet(rng, 8, 8, 4)
        np.testing.assert_allclose(attention(*t)[0], double_loop_attention(t.q, t.k, t.v),
                                   rtol=1e-12, atol=1e-12)

    def test_oracle_various_shapes(self):
        rng = np.random.default_rng(3)
        for n, m, c in [(1, 1, 2), (3, 9, 5), (17, 4, 8), (2, 32, 16)]:
            t = random_triplet(rng, n, m, c)
            np.testing.assert_allclose(attention(*t)[0],
                                       double_loop_attention(t.q, t.k, t.v), rtol=1e-11, atol=1e-12)

    def test_source_permutation_equivariant(self):
        rng = np.random.default_rng(4)
        t = random_triplet(rng, 10, 12, 6)
        perm = rng.permutation(10)
        base = attention(*t)[0]
        permuted = attention(t.q[perm], t.k, t.v)[0]
        np.testing.assert_allclose(permuted, base[perm], rtol=1e-12)

    def test_target_permutation_invariant(self):
        rng = np.random.default_rng(5)
        t = random_triplet(rng, 10, 12, 6)
        perm = rng.permutation(12)
        base = attention(*t)[0]
        permuted = attention(t.q, t.k[perm], t.v[perm])[0]
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=1e-13)

    def test_denominator_positive(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((20, 8)) * 10
        k = rng.standard_normal((30, 8)) * 10

        def elu1(x):
            return np.where(x >= 0, x + 1.0, np.exp(x))

        den = elu1(q) @ elu1(k).sum(axis=0)
        assert (den > 0).all()

    def test_empty_keys_give_zero_rows_and_gradients(self):
        # no key rows is the same computation with no segment: nothing reaches any row
        rng = np.random.default_rng(8)
        out, grads = attention(rng.standard_normal((5, 4)), np.zeros((0, 4)), np.zeros((0, 4)),
                               heads=2)
        np.testing.assert_array_equal(out, np.zeros((5, 4)))
        dq, dk, dv = grads(rng.standard_normal((5, 4)))
        np.testing.assert_array_equal(dq, np.zeros((5, 4)))
        assert dk.shape == dv.shape == (0, 4)

    def test_projected_attention_without_key_rows_sends_zero(self):
        rng = np.random.default_rng(9)
        xq, xs = ad.Tensor(rng.standard_normal((5, 6))), ad.Tensor(np.zeros((0, 6)))
        ws = [ad.Tensor(rng.standard_normal((6, 4)), requires_grad=True) for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, v = projected_attention(xq, xs, *ws, heads=2)
            m.backward()
        np.testing.assert_array_equal(m.data, np.zeros((5, 4)))
        assert v.shape == (0, 4)
        for w in ws:  # wq, wk and wv
            np.testing.assert_array_equal(w.grad, np.zeros((6, 4)))

    def test_no_query_key_product_allocated(self):
        rng = np.random.default_rng(7)
        t = random_triplet(rng, 33, 47, 8)
        with ad.count_ops() as counter:
            attention(*t)
        assert not counter.has_allocation((33, 47))
        assert not counter.has_allocation((47, 33))
        # every buffer is linear in N or M (times C'), never N*M
        assert counter.max_allocation() <= (33 + 47) * 8

    def test_gradients_flow(self):
        rng = np.random.default_rng(8)
        q = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        k = ad.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        v = ad.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        out = ref.attention(ref.Triplet(q, k, v))
        ref.tsum(out).backward()
        eps = 1e-6
        i, j = 1, 2
        for t_param, arr in [(q, q.data), (k, k.data), (v, v.data)]:
            orig = arr[i, j]
            arr[i, j] = orig + eps
            hi = attention(q.data, k.data, v.data)[0].sum()
            arr[i, j] = orig - eps
            lo = attention(q.data, k.data, v.data)[0].sum()
            arr[i, j] = orig
            np.testing.assert_allclose(t_param.grad[i, j], (hi - lo) / (2 * eps), atol=1e-5)


class TestSoftmaxReference:
    def test_single_key(self):
        rng = np.random.default_rng(10)
        t = random_triplet(rng, 4, 1, 3)
        np.testing.assert_allclose(softmax_attention_reference(*t), np.tile(t.v, (4, 1)),
                                   rtol=1e-12)

    def test_zero_query_gives_value_mean(self):
        rng = np.random.default_rng(11)
        t = ref.Triplet(np.zeros((5, 4)), rng.standard_normal((9, 4)),
                             rng.standard_normal((9, 4)))
        out = softmax_attention_reference(*t)
        np.testing.assert_allclose(out, np.tile(t.v.mean(axis=0), (5, 1)), rtol=1e-12)

    def test_matches_manual(self):
        rng = np.random.default_rng(12)
        t = random_triplet(rng, 8, 8, 4)
        np.testing.assert_allclose(softmax_attention_reference(*t),
                                   naive_softmax_attention(t.q, t.k, t.v), rtol=1e-12)

    def test_weight_rows_normalized(self):
        rng = np.random.default_rng(13)
        t = random_triplet(rng, 8, 8, 4)
        s = t.q @ t.k.T / np.sqrt(4)
        w = np.exp(s - s.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_allocates_full_weight_matrix(self):
        rng = np.random.default_rng(14)
        t = random_triplet(rng, 21, 34, 8)
        with ad.count_ops() as counter:
            softmax_attention_reference(*t)
        assert counter.has_allocation((21, 34))


class TestPairwiseAttention:
    def test_empty_pairs_all_zero(self):
        rng = np.random.default_rng(20)
        t = random_triplet(rng, 6, 6, 4)
        np.testing.assert_array_equal(attention(*t, pairs=membership([]))[0], np.zeros((6, 4)))

    def test_single_target_restriction(self):
        rng = np.random.default_rng(21)
        t = random_triplet(rng, 8, 8, 4)
        pair = NeighborhoodPair((2, 5), np.array([1, 2, 4]), np.array([5]))
        out = attention(*t, pairs=membership([pair]))[0]
        for i in (1, 2, 4):
            np.testing.assert_allclose(out[i], t.v[5], rtol=1e-12)
        untouched = np.setdiff1d(np.arange(8), [1, 2, 4])
        np.testing.assert_array_equal(out[untouched], 0.0)

    def test_disjoint_pairs_match_blockwise_oracle(self):
        rng = np.random.default_rng(22)
        t = random_triplet(rng, 16, 16, 4)
        p1 = NeighborhoodPair((0, 1), np.array([0, 3, 5]), np.array([1, 2]))
        p2 = NeighborhoodPair((7, 9), np.array([7, 8]), np.array([9, 10, 11]))
        out = attention(*t, pairs=membership([p1, p2]))[0]

        expect = np.zeros((16, 4))
        for p in (p1, p2):
            sub = ref.Triplet(t.q[p.source_set], t.k[p.target_set], t.v[p.target_set])
            expect[p.source_set] = attention(*sub)[0]
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_overlap_sums_contributions(self):
        rng = np.random.default_rng(23)
        t = random_triplet(rng, 10, 10, 4)
        p1 = NeighborhoodPair((1, 0), np.array([1, 2, 3]), np.array([0, 1]))
        p2 = NeighborhoodPair((3, 4), np.array([3, 4]), np.array([4, 5]))
        combined = attention(*t, pairs=membership([p1, p2]))[0]
        solo = attention(*t, pairs=membership([p1]))[0] + attention(*t, pairs=membership([p2]))[0]
        np.testing.assert_allclose(combined, solo, rtol=1e-12, atol=1e-14)
        # row 3 belongs to both neighborhoods: strictly a sum, not an average
        assert not np.allclose(combined[3], solo[3] / 2)

    def test_rows_outside_exactly_zero(self):
        rng = np.random.default_rng(24)
        t = random_triplet(rng, 12, 12, 4)
        pair = NeighborhoodPair((0, 0), np.array([0, 5]), np.array([0, 3, 7]))
        out = attention(*t, pairs=membership([pair]))[0]
        outside = np.setdiff1d(np.arange(12), [0, 5])
        assert (out[outside] == 0.0).all()

    def test_out_of_range_indices_rejected(self):
        t = ref.Triplet(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 2)))
        bad = NeighborhoodPair((0, 0), np.array([0, 9]), np.array([0]))
        with pytest.raises(ValueError):
            attention(*t, pairs=membership([bad]))

    def test_duplicate_indices_rejected(self):
        # a repeated row is added once forward but would be counted twice backward
        with pytest.raises(ValueError, match="repeat"):
            membership([NeighborhoodPair((1, 0), np.array([1, 1, 2]), np.array([0]))])
        with pytest.raises(ValueError, match="repeat"):
            membership([NeighborhoodPair((1, 0), np.array([1, 2]), np.array([0, 3, 0]))])

    def test_fused_op_allocations_stay_linear(self):
        """Nothing above a constant times (N + M + membership) C': no N x M table,
        no d x d product per member."""
        n, m, c, heads = 64, 64, 16, 2
        rng = np.random.default_rng(25)
        t = random_triplet(rng, n, m, c)
        pairs = [NeighborhoodPair((s, s + 1), np.arange(s, s + 10), np.arange(s + 1, s + 11))
                 for s in range(0, 48, 4)]
        members = sum(len(p.source_set) + len(p.target_set) for p in pairs)
        with ad.count_ops() as counter:
            attention(*t, heads, membership(pairs))
        assert counter.multiplies > 0
        assert not counter.has_allocation((n, m))
        per_member_outer = len(pairs) * 10 * c * (c // heads)
        bound = 2 * (n + m + members) * c
        assert counter.max_allocation() <= bound < per_member_outer

    def test_one_batched_product_per_step_however_many_sizes(self, monkeypatch):
        """Forward, one `seg_outer` and one `seg_apply`; backward, one and three."""
        members = membership([NeighborhoodPair((s, s), np.arange(s, 2 * s + 1),
                                               np.arange(s, 2 * s + 1)) for s in range(24)])
        assert np.unique(members.source.sizes).size == np.unique(members.target.sizes).size == 24
        t = random_triplet(np.random.default_rng(27), 48, 48, 4)
        calls, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **kw: calls.append(1) or matmul(*a, **kw))
        out, grads = attention(*t, 2, members)
        assert len(calls) == 2
        grads(np.ones_like(out))
        assert len(calls) == 6

    def test_phi_runs_once_per_row(self, monkeypatch):
        """phi sees the (rows, heads, d) inputs, never the padded layout, here 14 segments
        of up to 60 slots (840) over 70 rows."""
        members = membership(mixed_pairs())
        assert members.source.padded[0].size > 70
        t = random_triplet(np.random.default_rng(28), 70, 70, 4)
        shapes, phi = [], ad.phi_array
        monkeypatch.setattr(ad, "phi_array", lambda x: shapes.append(x.shape) or phi(x))
        for reverse in (False, True):
            out, grads = attention(*t, 2, members, reverse)
            grads(np.ones_like(out))
        assert shapes == [(70, 2, 2)] * 4

    def test_three_scatters_per_forward_and_backward(self, monkeypatch):
        """The output forward; dQ, then dK and dV together, backward."""
        calls, scatter = [], Segments.scatter
        monkeypatch.setattr(Segments, "scatter",
                            lambda self, *a: calls.append(1) or scatter(self, *a))
        t = random_triplet(np.random.default_rng(29), 10, 10, 4)
        out, grads = attention(*t, 2, membership(overlapping_pairs()))
        assert len(calls) == 1
        grads(np.ones_like(out))
        assert len(calls) == 3

    def test_pair_invariants_enforced(self):
        with pytest.raises(ValueError):
            membership([NeighborhoodPair((0, 0), np.array([], dtype=int), np.array([0]))])
        with pytest.raises(ValueError):
            membership([NeighborhoodPair((5, 0), np.array([1, 2]), np.array([0]))])


class TestMembershipChecks:
    """The invariants checked once over all neighborhoods' concatenated rows."""

    def test_overlap_across_neighborhoods_accepted(self):
        members = membership(overlapping_pairs())
        assert len(members) == 5 and np.bincount(members.source.rows).max() == 3
        np.testing.assert_array_equal(members.source.sizes, [3, 2, 5, 1, 2])
        assert members.source.rows.dtype == np.intp

    def test_repeat_inside_fourth_of_five_refused(self):
        pairs = overlapping_pairs()
        pairs[3] = NeighborhoodPair((7, 0), np.array([7, 3, 7]), np.array([0]))
        with pytest.raises(ValueError, match="must not repeat an index"):
            membership(pairs)
        pairs[3] = NeighborhoodPair((7, 0), np.array([7]), np.array([0, 2, 0]))
        with pytest.raises(ValueError, match="must not repeat an index"):
            membership(pairs)

    def test_seed_only_in_another_set_refused(self):
        pairs = overlapping_pairs()
        pairs[1] = NeighborhoodPair((0, 1), pairs[1].source_set, pairs[1].target_set)
        with pytest.raises(ValueError, match="seed indices must belong to their own sets"):
            membership(pairs)
        pairs = overlapping_pairs()
        pairs[4] = NeighborhoodPair((6, 0), pairs[4].source_set, pairs[4].target_set)
        with pytest.raises(ValueError, match="seed indices must belong to their own sets"):
            membership(pairs)

    @pytest.mark.parametrize("side", ["source_set", "target_set"])
    def test_empty_side_refused(self, side):
        pairs = overlapping_pairs()
        pairs[2] = pairs[2]._replace(**{side: np.zeros(0, dtype=np.intp)})
        with pytest.raises(ValueError, match="must be non-empty"):
            membership(pairs)

    def test_agrees_with_per_pair_reference(self):
        """Refused exactly when some pair fails a check made on that pair alone."""
        rng = np.random.default_rng(26)

        def pair_ok(p):
            sides = (np.asarray(p.source_set), np.asarray(p.target_set))
            return (all(s.size and np.unique(s).size == s.size for s in sides)
                    and p.seed[0] in sides[0] and p.seed[1] in sides[1])

        def draw():  # zero to three of six rows: empty sets, repeats and missing seeds all occur
            return rng.integers(0, 6, rng.integers(0, 4))

        refused = 0
        for _ in range(300):
            pairs = [NeighborhoodPair(tuple(rng.integers(0, 6, 2)), draw(), draw())
                     for _ in range(rng.integers(0, 5))]
            try:
                membership(pairs)
            except ValueError:
                refused += 1
                assert not all(pair_ok(p) for p in pairs)
            else:
                assert all(pair_ok(p) for p in pairs)
        assert 0 < refused < 300

    def test_padded_index_and_levels_are_built_on_first_use(self):
        members = membership(overlapping_pairs())
        np.testing.assert_array_equal(members.source.ids, np.repeat(np.arange(5), [3, 2, 5, 1, 2]))
        sides = (members.source, members.target)
        assert not any({"padded", "levels"} & set(vars(s)) for s in sides)
        rng = np.random.default_rng(3)
        t = ref.Triplet(*(rng.standard_normal((10, 4)) for _ in range(3)))
        for reverse in (False, True):  # the attention op is what reads them
            attention(*t, pairs=members, reverse=reverse)
        assert all({"padded", "levels"} <= set(vars(s)) for s in sides)
        # five segments wide as the largest, five members: 13 filled slots, 12 empty
        slots, pos, empty = members.source.padded
        assert slots.shape == (5, 5) and empty.size == 12
        np.testing.assert_array_equal(slots[members.source.ids, pos], members.source.rows)
        x = rng.standard_normal((10, 2, 3))
        padded = members.source.gather(x)
        assert padded.shape == (5, 5, 2, 3)
        assert (padded.reshape(25, 2, 3)[empty] == 0).all()
        np.testing.assert_array_equal(padded[members.source.ids, pos], x[members.source.rows])

    def test_cannot_be_modified(self):
        members = membership(overlapping_pairs())
        with pytest.raises((TypeError, AttributeError)):
            members.append(members[0])
        with pytest.raises(TypeError):
            members[0] = members[1]

    def test_of_round_trips_through_the_views(self):
        pairs = overlapping_pairs()
        members = membership(pairs)
        assert members.seeds.dtype == np.intp and members.seeds.shape == (5, 2)
        back = list(members)
        assert len(back) == len(pairs)
        for have, want in zip(back, pairs):
            assert have.seed == want.seed and all(type(i) is int for i in have.seed)
            for a, b in ((have.source_set, want.source_set), (have.target_set, want.target_set)):
                assert a.dtype == np.intp
                np.testing.assert_array_equal(a, b)
        assert list(membership([])) == [] and membership([]).seeds.shape == (0, 2)

    def test_one_set_per_seed_required(self):
        members = membership(overlapping_pairs())  # its last sets hold two rows each
        source, target = members.source, members.target
        short = Segments(source.rows[:-2], source.sizes[:-1])
        with pytest.raises(ValueError, match="one set per seed"):
            Membership(members.seeds, short, target)
        with pytest.raises(ValueError, match="one set per seed"):
            Membership(members.seeds, source, Segments(target.rows[:-2], target.sizes[:-1]))
        with pytest.raises(ValueError, match="one set per seed"):
            Membership(members.seeds[:-1], source, target)
        assert len(Membership(members.seeds, source, target)) == 5


def per_head(kernel, t, heads):
    """Multi-head reference: run `kernel` on each head's columns alone, concatenate."""
    d = t.q.shape[1] // heads
    cols = [slice(h * d, (h + 1) * d) for h in range(heads)]
    return np.concatenate([kernel(ref.Triplet(t.q[:, c], t.k[:, c], t.v[:, c]))
                           for c in cols], axis=1)


def scattered_blocks(t, pairs):
    """Restricted-attention reference: the double-loop oracle per pair, summed."""
    out = np.zeros(t.q.shape)
    for p in pairs:
        out[p.source_set] += double_loop_attention(t.q[p.source_set], t.k[p.target_set],
                                                    t.v[p.target_set])
    return out


def overlapping_pairs():
    """Neighborhoods of one to five members sharing rows on both sides."""
    sets = [([0, 1, 2], [0, 1]), ([2, 3], [1, 2, 3]), ([1, 2, 4, 5, 6], [3, 4, 5, 6, 7]),
            ([7], [0]), ([6, 8], [8, 9])]
    return [NeighborhoodPair((s[0], t[0]), np.array(s), np.array(t)) for s, t in sets]


def mixed_pairs():
    """Twelve neighborhoods of one member per side beside one of 60, sharing rows with it,
    and one of a single source row and four target rows; rows 67 and up are in none."""
    pairs = [NeighborhoodPair((0, 5), np.arange(60), np.arange(5, 65))]
    pairs += [NeighborhoodPair((r, r), np.array([r]), np.array([r])) for r in range(55, 67)]
    return pairs + [NeighborhoodPair((66, 60), np.array([66]), np.arange(60, 64))]


class TestMultiHead:
    """Heads batched inside one kernel call equal a loop over column groups."""

    def test_single_head_is_identity_wrapper(self):
        rng = np.random.default_rng(30)
        t = random_triplet(rng, 6, 7, 8)
        np.testing.assert_array_equal(attention(*t, 1)[0], attention(*t)[0])
        np.testing.assert_allclose(attention(*t, 1)[0], double_loop_attention(t.q, t.k, t.v),
                                   rtol=1e-12)

    def test_matches_manual_slicing(self):
        rng = np.random.default_rng(31)
        t = random_triplet(rng, 8, 9, 8)
        for heads in (2, 4):
            np.testing.assert_allclose(attention(*t, heads)[0],
                                       per_head(lambda s: double_loop_attention(s.q, s.k, s.v),
                                                t, heads), rtol=1e-12)

    def test_scalar_heads_preserve_column_order(self):
        rng = np.random.default_rng(32)
        t = random_triplet(rng, 5, 5, 4)
        out = attention(*t, 4)[0]
        for col in range(4):
            sub = ref.Triplet(t.q[:, col:col + 1], t.k[:, col:col + 1], t.v[:, col:col + 1])
            np.testing.assert_allclose(out[:, col:col + 1], attention(*sub)[0], rtol=1e-12)

    def test_pairwise_matches_manual_slicing(self):
        rng = np.random.default_rng(33)
        t = random_triplet(rng, 9, 10, 6)
        pairs = overlapping_pairs()
        for heads in (1, 2, 3, 6):
            expect = per_head(lambda s: scattered_blocks(s, pairs), t, heads)
            np.testing.assert_allclose(attention(*t, heads, membership(pairs))[0], expect,
                                       rtol=1e-12, atol=1e-14)
        # size-1 segments beside one of 60 members: most slots of the padded layout are empty;
        # then query rows 9 to 11 and key rows 10 and 11 in no set, the last ones large: an
        # empty slot's phi is the last row's, which must add nothing
        mixed = random_triplet(rng, 70, 70, 4)
        outsider = random_triplet(rng, 12, 12, 4)
        outsider.k[-1] = outsider.q[-1] = 40.0
        for t, pairs in ((mixed, mixed_pairs()), (outsider, overlapping_pairs())):
            for dtype, rtol, atol in ((np.float64, 1e-12, 1e-14), (np.float32, 1e-5, 1e-6)):
                low = ref.Triplet(*(x.astype(dtype) for x in (t.q, t.k, t.v)))
                for heads in (1, 2):
                    got = attention(*low, heads, membership(pairs))[0]
                    assert got.dtype == dtype
                    want = per_head(lambda s: scattered_blocks(s, pairs), t, heads)
                    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)

    def test_reverse_swaps_the_sides(self):
        rng = np.random.default_rng(35)
        t = random_triplet(rng, 10, 9, 4)
        pairs = overlapping_pairs()
        swapped = [NeighborhoodPair(p.seed[::-1], p.target_set, p.source_set) for p in pairs]
        np.testing.assert_allclose(attention(*t, 2, membership(pairs), True)[0],
                                   per_head(lambda s: scattered_blocks(s, swapped), t, 2),
                                   rtol=1e-12, atol=1e-14)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(36)
        t = random_triplet(rng, 9, 10, 8, dtype=np.float32)
        members = membership(overlapping_pairs())
        out = attention(*t, 4, members)[0]
        assert out.dtype == np.float32
        t64 = ref.Triplet(*(x.astype(np.float64) for x in (t.q, t.k, t.v)))
        np.testing.assert_allclose(out, attention(*t64, 4, members)[0],
                                   rtol=1e-5, atol=1e-6)

    def test_indivisible_heads_rejected(self):
        rng = np.random.default_rng(34)
        t = random_triplet(rng, 4, 4, 6)
        with pytest.raises(ValueError):
            attention(*t, 4)
        with pytest.raises(ValueError):
            attention(*t, 4, membership([NeighborhoodPair((0, 0), [0], [0])]))


def finite_difference_check(out, tensors, w, eps=1e-6):
    """Analytic gradients of sum(w * out()) in each Tensor of `tensors` against central
    differences; `out` computes from the tensors' data."""
    ref.tsum(ref.mul(out(), ad.Tensor(w))).backward()
    for tensor in tensors:
        arr = tensor.data
        numeric = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = (out().data * w).sum()
            arr[idx] = orig - eps
            lo = (out().data * w).sum()
            arr[idx] = orig
            numeric[idx] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-8)


def triplet_difference_check(kernel, q, k, v):
    """`finite_difference_check` of the q/k/v gradients of `kernel`, a map from a
    `ref.Triplet` to a Tensor."""
    t = ref.Triplet(*(ad.Tensor(x.copy(), requires_grad=True) for x in (q, k, v)))
    finite_difference_check(lambda: kernel(t), t, np.random.default_rng(9).standard_normal(q.shape))


class TestFusedGradients:
    def test_pairwise_overlapping_pairs_two_heads(self):
        rng = np.random.default_rng(40)
        t = random_triplet(rng, 9, 10, 4)
        pairs = membership(overlapping_pairs())
        for reverse in (False, True):
            q = t.k if reverse else t.q
            k = t.q if reverse else t.k
            v = rng.standard_normal(k.shape)
            triplet_difference_check(lambda s: ref.attention(s, 2, pairs, reverse), q, k, v)

    def test_linear_two_heads(self):
        rng = np.random.default_rng(41)
        t = random_triplet(rng, 5, 6, 4)
        triplet_difference_check(lambda s: ref.attention(s, 2), t.q, t.k, t.v)

    def test_rows_outside_every_set_get_zero_gradient(self):
        rng = np.random.default_rng(42)
        t = random_triplet(rng, 12, 11, 4)
        q, k, v = (ad.Tensor(x, requires_grad=True) for x in (t.q, t.k, t.v))
        members = membership(overlapping_pairs())
        ref.tsum(ref.attention(ref.Triplet(q, k, v), 2, members)).backward()
        assert (q.grad[9:] == 0).all() and (k.grad[10:] == 0).all() and (v.grad[10:] == 0).all()

    @pytest.mark.parametrize("case", ["self", "cross", "reverse_pairwise"])
    def test_projected_attention_matches_finite_differences(self, case):
        """The encoder's one attention op: gradients of all five inputs, float64, two heads."""
        rng = np.random.default_rng(43)
        # in the reverse case xq holds the 10 target rows and xs the 9 source rows
        xq = ad.Tensor(rng.standard_normal((10, 3)), requires_grad=True)
        xs = xq if case == "self" else ad.Tensor(rng.standard_normal((9, 3)), requires_grad=True)
        wq, wk, wv = (ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True) for _ in range(3))
        pairs = membership(overlapping_pairs()) if case == "reverse_pairwise" else None
        tensors = [xq, wq, wk, wv] + ([] if xs is xq else [xs])
        finite_difference_check(
            lambda: projected_attention(xq, xs, wq, wk, wv, 2, pairs, pairs is not None)[0],
            tensors, rng.standard_normal((10, 4)))


def test_numpy_kernels_build_no_node(monkeypatch):
    nodes, node = [], ad.node
    monkeypatch.setattr(ad, "node", lambda *a: nodes.append(a) or node(*a))
    t = random_triplet(np.random.default_rng(44), 9, 10, 4)
    outs = [attention(*t, 2)[0], attention(*t, 2, membership(overlapping_pairs()))[0]]
    assert all(type(out) is np.ndarray for out in outs)
    assert nodes == []


def add_at_scatter(self, n, *xs):
    """The np.add.at scatter of padded arrays' members that `Segments.scatter` must equal
    bit for bit."""
    if self.rows is None:
        return [x[0] for x in xs]
    outs = [np.zeros((n,) + x.shape[2:], dtype=x.dtype) for x in xs]
    for out, x in zip(outs, xs):
        np.add.at(out, self.rows, x[self.ids, self.padded[1]])
    return outs


def hub_pairs(rng, n, m, count):
    """Neighborhoods that all hold source row 0 and target row 0, plus random others."""
    pairs = []
    for _ in range(count):
        src = np.unique(np.r_[0, rng.choice(n, rng.integers(1, 6))])
        tgt = np.unique(np.r_[0, rng.choice(m, rng.integers(1, 6))])
        pairs.append(NeighborhoodPair((0, 0), src, tgt))
    return pairs


class TestLevelScatter:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_add_at(self, dtype):
        rng = np.random.default_rng(50)
        members = membership(hub_pairs(rng, 30, 25, 40))
        for side, n in ((members.source, 30), (members.target, 25)):
            assert np.bincount(side.rows).max() == 40  # row 0 is in every segment
            x, y = (rng.standard_normal((2,) + side.padded[0].shape + (2, 3)) * 1e3).astype(dtype)
            got = side.scatter(n, x, y)
            assert all(np.array_equal(a, b) for a, b in zip(got, add_at_scatter(side, n, x, y)))
            assert len(got) == 2 and all(a.dtype == dtype for a in got)

    def test_empty_membership(self):
        side = Segments([], [])
        assert np.array_equal(side.scatter(4, np.zeros((0, 0, 2, 3)))[0], np.zeros((4, 2, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_forward_and_every_gradient_equal_add_at(self, monkeypatch, dtype, reverse):
        rng = np.random.default_rng(51)
        t = random_triplet(rng, 30, 25, 6, dtype)
        if reverse:
            t = ref.Triplet(t.k, t.q, rng.standard_normal(t.q.shape).astype(dtype))
        members = membership(hub_pairs(rng, 30, 25, 40))
        g = rng.standard_normal(t.q.shape).astype(dtype)

        def run():
            q, k, v = (ad.Tensor(x, requires_grad=True) for x in (t.q, t.k, t.v))
            out = ref.attention(ref.Triplet(q, k, v), 2, members, reverse)
            ref.tsum(ref.mul(out, ad.Tensor(g))).backward()
            return out.data, q.grad, k.grad, v.grad

        levels = run()
        monkeypatch.setattr(Segments, "scatter", add_at_scatter)
        for got, want in zip(levels, run()):
            assert got.dtype == dtype
            assert np.array_equal(got, want)


class TestTripletValidation:
    """Both kernels refuse k and v of different row counts, and q, k and v of different
    column counts; `attention` with and without `pairs`, `projected_attention` through it."""

    def test_row_mismatch(self):
        q, k, v = np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 3))
        for pairs in (None, membership([NeighborhoodPair((0, 0), [0], [0])])):
            with pytest.raises(ValueError, match="key/value row mismatch"):
                attention(q, k, v, pairs=pairs)
        with pytest.raises(ValueError, match="key/value row mismatch"):
            softmax_attention_reference(q, k, v)

    def test_column_mismatch(self):
        q, k, v = np.zeros((2, 3)), np.zeros((4, 4)), np.zeros((4, 4))
        for pairs in (None, membership([NeighborhoodPair((0, 0), [0], [0])])):
            with pytest.raises(ValueError, match="column mismatch"):
                attention(q, k, v, pairs=pairs)
        with pytest.raises(ValueError, match="column mismatch"):
            softmax_attention_reference(q, k, v)

    @pytest.mark.parametrize("case", ["self", "cross"])
    def test_projected_key_narrower_than_query(self, case):
        rng = np.random.default_rng(45)
        xq = ad.Tensor(rng.standard_normal((5, 3)))
        xs = xq if case == "self" else ad.Tensor(rng.standard_normal((6, 3)))
        wq, wv = (ad.Tensor(rng.standard_normal((3, 4))) for _ in range(2))
        with pytest.raises(ValueError, match="column mismatch"):
            projected_attention(xq, xs, wq, ad.Tensor(rng.standard_normal((3, 2))), wv)
