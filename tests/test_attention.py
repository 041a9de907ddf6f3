"""Kernel correctness against naive per-row oracles."""

import numpy as np
import pytest
from reference_ops import membership

from linmatch import autodiff as ad
from linmatch.attention import (
    Membership,
    NeighborhoodPair,
    ProjectedTriplet,
    Segments,
    linear_attention,
    pairwise_attention,
    softmax_attention_reference,
)


def naive_linear_attention(q, k, v):
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
    return ProjectedTriplet(
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
        out = linear_attention(t)
        np.testing.assert_allclose(out, np.tile(t.v, (5, 1)), rtol=1e-12)

    def test_identical_keys_give_value_mean(self):
        rng = np.random.default_rng(1)
        k_row = rng.standard_normal(4)
        t = ProjectedTriplet(
            rng.standard_normal((6, 4)),
            np.tile(k_row, (7, 1)),
            rng.standard_normal((7, 4)),
        )
        out = linear_attention(t)
        np.testing.assert_allclose(out, np.tile(t.v.mean(axis=0), (6, 1)), rtol=1e-10, atol=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        t = random_triplet(rng, 8, 8, 4)
        np.testing.assert_allclose(linear_attention(t), naive_linear_attention(t.q, t.k, t.v),
                                   rtol=1e-12, atol=1e-12)

    def test_oracle_various_shapes(self):
        rng = np.random.default_rng(3)
        for n, m, c in [(1, 1, 2), (3, 9, 5), (17, 4, 8), (2, 32, 16)]:
            t = random_triplet(rng, n, m, c)
            np.testing.assert_allclose(linear_attention(t),
                                       naive_linear_attention(t.q, t.k, t.v), rtol=1e-11, atol=1e-12)

    def test_source_permutation_equivariant(self):
        rng = np.random.default_rng(4)
        t = random_triplet(rng, 10, 12, 6)
        perm = rng.permutation(10)
        base = linear_attention(t)
        permuted = linear_attention(ProjectedTriplet(t.q[perm], t.k, t.v))
        np.testing.assert_allclose(permuted, base[perm], rtol=1e-12)

    def test_target_permutation_invariant(self):
        rng = np.random.default_rng(5)
        t = random_triplet(rng, 10, 12, 6)
        perm = rng.permutation(12)
        base = linear_attention(t)
        permuted = linear_attention(ProjectedTriplet(t.q, t.k[perm], t.v[perm]))
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=1e-13)

    def test_denominator_positive(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((20, 8)) * 10
        k = rng.standard_normal((30, 8)) * 10

        def elu1(x):
            return np.where(x >= 0, x + 1.0, np.exp(x))

        den = elu1(q) @ elu1(k).sum(axis=0)
        assert (den > 0).all()

    def test_empty_keys_rejected(self):
        t = ProjectedTriplet(np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            linear_attention(t)

    def test_no_query_key_product_allocated(self):
        rng = np.random.default_rng(7)
        t = random_triplet(rng, 33, 47, 8)
        with ad.count_ops() as counter:
            linear_attention(t)
        assert not counter.has_allocation((33, 47))
        assert not counter.has_allocation((47, 33))
        # every buffer is linear in N or M (times C'), never N*M
        assert counter.max_allocation() <= (33 + 47) * 8

    def test_gradients_flow(self):
        rng = np.random.default_rng(8)
        q = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        k = ad.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        v = ad.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        out = linear_attention(ProjectedTriplet(q, k, v))
        ad.tsum(out).backward()
        eps = 1e-6
        i, j = 1, 2
        for t_param, arr in [(q, q.data), (k, k.data), (v, v.data)]:
            orig = arr[i, j]
            arr[i, j] = orig + eps
            hi = linear_attention(ProjectedTriplet(q.data, k.data, v.data)).sum()
            arr[i, j] = orig - eps
            lo = linear_attention(ProjectedTriplet(q.data, k.data, v.data)).sum()
            arr[i, j] = orig
            np.testing.assert_allclose(t_param.grad[i, j], (hi - lo) / (2 * eps), atol=1e-5)


class TestSoftmaxReference:
    def test_single_key(self):
        rng = np.random.default_rng(10)
        t = random_triplet(rng, 4, 1, 3)
        np.testing.assert_allclose(softmax_attention_reference(t), np.tile(t.v, (4, 1)), rtol=1e-12)

    def test_zero_query_gives_value_mean(self):
        rng = np.random.default_rng(11)
        t = ProjectedTriplet(np.zeros((5, 4)), rng.standard_normal((9, 4)),
                             rng.standard_normal((9, 4)))
        out = softmax_attention_reference(t)
        np.testing.assert_allclose(out, np.tile(t.v.mean(axis=0), (5, 1)), rtol=1e-12)

    def test_matches_manual(self):
        rng = np.random.default_rng(12)
        t = random_triplet(rng, 8, 8, 4)
        np.testing.assert_allclose(softmax_attention_reference(t),
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
            softmax_attention_reference(t)
        assert counter.has_allocation((21, 34))


class TestPairwiseAttention:
    def test_empty_pairs_all_zero(self):
        rng = np.random.default_rng(20)
        t = random_triplet(rng, 6, 6, 4)
        np.testing.assert_array_equal(pairwise_attention(t, membership([])), np.zeros((6, 4)))

    def test_single_target_restriction(self):
        rng = np.random.default_rng(21)
        t = random_triplet(rng, 8, 8, 4)
        pair = NeighborhoodPair((2, 5), np.array([1, 2, 4]), np.array([5]))
        out = pairwise_attention(t, membership([pair]))
        for i in (1, 2, 4):
            np.testing.assert_allclose(out[i], t.v[5], rtol=1e-12)
        untouched = np.setdiff1d(np.arange(8), [1, 2, 4])
        np.testing.assert_array_equal(out[untouched], 0.0)

    def test_disjoint_pairs_match_blockwise_oracle(self):
        rng = np.random.default_rng(22)
        t = random_triplet(rng, 16, 16, 4)
        p1 = NeighborhoodPair((0, 1), np.array([0, 3, 5]), np.array([1, 2]))
        p2 = NeighborhoodPair((7, 9), np.array([7, 8]), np.array([9, 10, 11]))
        out = pairwise_attention(t, membership([p1, p2]))

        expect = np.zeros((16, 4))
        for p in (p1, p2):
            sub = ProjectedTriplet(t.q[p.source_set], t.k[p.target_set], t.v[p.target_set])
            expect[p.source_set] = linear_attention(sub)
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_overlap_sums_contributions(self):
        rng = np.random.default_rng(23)
        t = random_triplet(rng, 10, 10, 4)
        p1 = NeighborhoodPair((1, 0), np.array([1, 2, 3]), np.array([0, 1]))
        p2 = NeighborhoodPair((3, 4), np.array([3, 4]), np.array([4, 5]))
        combined = pairwise_attention(t, membership([p1, p2]))
        solo = pairwise_attention(t, membership([p1])) + pairwise_attention(t, membership([p2]))
        np.testing.assert_allclose(combined, solo, rtol=1e-12, atol=1e-14)
        # row 3 belongs to both neighborhoods: strictly a sum, not an average
        assert not np.allclose(combined[3], solo[3] / 2)

    def test_rows_outside_exactly_zero(self):
        rng = np.random.default_rng(24)
        t = random_triplet(rng, 12, 12, 4)
        pair = NeighborhoodPair((0, 0), np.array([0, 5]), np.array([0, 3, 7]))
        out = pairwise_attention(t, membership([pair]))
        outside = np.setdiff1d(np.arange(12), [0, 5])
        assert (out[outside] == 0.0).all()

    def test_out_of_range_indices_rejected(self):
        t = ProjectedTriplet(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 2)))
        bad = NeighborhoodPair((0, 0), np.array([0, 9]), np.array([0]))
        with pytest.raises(ValueError):
            pairwise_attention(t, membership([bad]))

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
            pairwise_attention(t, membership(pairs), heads)
        assert counter.multiplies > 0
        assert not counter.has_allocation((n, m))
        per_member_outer = len(pairs) * 10 * c * (c // heads)
        bound = 2 * (n + m + members) * c
        assert counter.max_allocation() <= bound < per_member_outer

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

    def test_groups_and_levels_are_built_on_first_use(self):
        members = membership(overlapping_pairs())
        np.testing.assert_array_equal(members.source.ids, np.repeat(np.arange(5), [3, 2, 5, 1, 2]))
        sides = (members.source, members.target)
        assert not any({"groups", "levels"} & set(vars(s)) for s in sides)
        rng = np.random.default_rng(3)
        t = ProjectedTriplet(*(rng.standard_normal((10, 4)) for _ in range(3)))
        for reverse in (False, True):  # the attention op is what reads them
            pairwise_attention(t, members, reverse=reverse)
        assert all({"groups", "levels"} <= set(vars(s)) for s in sides)

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
    return np.concatenate([kernel(ProjectedTriplet(t.q[:, c], t.k[:, c], t.v[:, c]))
                           for c in cols], axis=1)


def scattered_blocks(t, pairs):
    """Restricted-attention reference: the double-loop oracle per pair, summed."""
    out = np.zeros(t.q.shape)
    for p in pairs:
        out[p.source_set] += naive_linear_attention(t.q[p.source_set], t.k[p.target_set],
                                                    t.v[p.target_set])
    return out


def overlapping_pairs():
    """Neighborhoods of one to five members sharing rows on both sides."""
    sets = [([0, 1, 2], [0, 1]), ([2, 3], [1, 2, 3]), ([1, 2, 4, 5, 6], [3, 4, 5, 6, 7]),
            ([7], [0]), ([6, 8], [8, 9])]
    return [NeighborhoodPair((s[0], t[0]), np.array(s), np.array(t)) for s, t in sets]


class TestMultiHead:
    """Heads batched inside one kernel call equal a loop over column groups."""

    def test_single_head_is_identity_wrapper(self):
        rng = np.random.default_rng(30)
        t = random_triplet(rng, 6, 7, 8)
        np.testing.assert_array_equal(linear_attention(t, 1), linear_attention(t))
        np.testing.assert_allclose(linear_attention(t, 1), naive_linear_attention(t.q, t.k, t.v),
                                   rtol=1e-12)

    def test_matches_manual_slicing(self):
        rng = np.random.default_rng(31)
        t = random_triplet(rng, 8, 9, 8)
        for heads in (2, 4):
            np.testing.assert_allclose(linear_attention(t, heads),
                                       per_head(lambda s: naive_linear_attention(s.q, s.k, s.v),
                                                t, heads), rtol=1e-12)

    def test_scalar_heads_preserve_column_order(self):
        rng = np.random.default_rng(32)
        t = random_triplet(rng, 5, 5, 4)
        out = linear_attention(t, 4)
        for col in range(4):
            sub = ProjectedTriplet(t.q[:, col:col + 1], t.k[:, col:col + 1], t.v[:, col:col + 1])
            np.testing.assert_allclose(out[:, col:col + 1], linear_attention(sub), rtol=1e-12)

    def test_pairwise_matches_manual_slicing(self):
        rng = np.random.default_rng(33)
        t = random_triplet(rng, 9, 10, 6)
        pairs = overlapping_pairs()
        for heads in (1, 2, 3, 6):
            expect = per_head(lambda s: scattered_blocks(s, pairs), t, heads)
            np.testing.assert_allclose(pairwise_attention(t, membership(pairs), heads), expect,
                                       rtol=1e-12, atol=1e-14)

    def test_reverse_swaps_the_sides(self):
        rng = np.random.default_rng(35)
        t = random_triplet(rng, 10, 9, 4)
        pairs = overlapping_pairs()
        swapped = [NeighborhoodPair(p.seed[::-1], p.target_set, p.source_set) for p in pairs]
        np.testing.assert_allclose(pairwise_attention(t, membership(pairs), 2, reverse=True),
                                   per_head(lambda s: scattered_blocks(s, swapped), t, 2),
                                   rtol=1e-12, atol=1e-14)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(36)
        t = random_triplet(rng, 9, 10, 8, dtype=np.float32)
        members = membership(overlapping_pairs())
        out = pairwise_attention(t, members, 4)
        assert out.dtype == np.float32
        t64 = ProjectedTriplet(*(x.astype(np.float64) for x in (t.q, t.k, t.v)))
        np.testing.assert_allclose(out, pairwise_attention(t64, members, 4),
                                   rtol=1e-5, atol=1e-6)

    def test_indivisible_heads_rejected(self):
        rng = np.random.default_rng(34)
        t = random_triplet(rng, 4, 4, 6)
        with pytest.raises(ValueError):
            linear_attention(t, 4)
        with pytest.raises(ValueError):
            pairwise_attention(t, membership([NeighborhoodPair((0, 0), [0], [0])]), 4)


def finite_difference_check(kernel, q, k, v, eps=1e-6):
    """Analytic q/k/v gradients of sum(w * kernel) against central differences."""
    w = np.random.default_rng(9).standard_normal(q.shape)
    tq, tk, tv = (ad.Tensor(x.copy(), requires_grad=True) for x in (q, k, v))
    ad.tsum(ad.mul(kernel(ProjectedTriplet(tq, tk, tv)), ad.Tensor(w))).backward()
    for tensor in (tq, tk, tv):
        arr = tensor.data
        numeric = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = (kernel(ProjectedTriplet(tq.data, tk.data, tv.data)) * w).sum()
            arr[idx] = orig - eps
            lo = (kernel(ProjectedTriplet(tq.data, tk.data, tv.data)) * w).sum()
            arr[idx] = orig
            numeric[idx] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-8)


class TestFusedGradients:
    def test_pairwise_overlapping_pairs_two_heads(self):
        rng = np.random.default_rng(40)
        t = random_triplet(rng, 9, 10, 4)
        pairs = membership(overlapping_pairs())
        for reverse in (False, True):
            q = t.k if reverse else t.q
            k = t.q if reverse else t.k
            v = rng.standard_normal(k.shape)
            finite_difference_check(lambda s: pairwise_attention(s, pairs, 2, reverse), q, k, v)

    def test_linear_two_heads(self):
        rng = np.random.default_rng(41)
        t = random_triplet(rng, 5, 6, 4)
        finite_difference_check(lambda s: linear_attention(s, 2), t.q, t.k, t.v)

    def test_rows_outside_every_set_get_zero_gradient(self):
        rng = np.random.default_rng(42)
        t = random_triplet(rng, 12, 11, 4)
        q, k, v = (ad.Tensor(x, requires_grad=True) for x in (t.q, t.k, t.v))
        members = membership(overlapping_pairs())
        ad.tsum(pairwise_attention(ProjectedTriplet(q, k, v), members, 2)).backward()
        assert (q.grad[9:] == 0).all() and (k.grad[10:] == 0).all() and (v.grad[10:] == 0).all()


def add_at_scatter(self, x, n):
    """The np.add.at scatter that `Segments.scatter` must equal bit for bit."""
    if self.rows is None:
        return x
    out = np.zeros((n,) + x.shape[1:], dtype=x.dtype)
    np.add.at(out, self.rows, x)
    return out


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
            x = (rng.standard_normal((side.rows.size, 2, 3)) * 1e3).astype(dtype)
            assert np.array_equal(side.scatter(x, n), add_at_scatter(side, x, n))
            assert side.scatter(x, n).dtype == dtype

    def test_empty_membership(self):
        side = Segments([], [])
        assert np.array_equal(side.scatter(np.zeros((0, 2, 3)), 4), np.zeros((4, 2, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_forward_and_every_gradient_equal_add_at(self, monkeypatch, dtype, reverse):
        rng = np.random.default_rng(51)
        t = random_triplet(rng, 30, 25, 6, dtype)
        if reverse:
            t = ProjectedTriplet(t.k, t.q, rng.standard_normal(t.q.shape).astype(dtype))
        members = membership(hub_pairs(rng, 30, 25, 40))
        g = rng.standard_normal(t.q.shape).astype(dtype)

        def run():
            q, k, v = (ad.Tensor(x, requires_grad=True) for x in (t.q, t.k, t.v))
            out = pairwise_attention(ProjectedTriplet(q, k, v), members, 2, reverse)
            ad.tsum(ad.mul(out, ad.Tensor(g))).backward()
            return out.data, q.grad, k.grad, v.grad

        levels = run()
        monkeypatch.setattr(Segments, "scatter", add_at_scatter)
        for got, want in zip(levels, run()):
            assert got.dtype == dtype
            assert np.array_equal(got, want)


class TestTripletValidation:
    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            ProjectedTriplet(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 3)))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            ProjectedTriplet(np.zeros((2, 3)), np.zeros((4, 4)), np.zeros((4, 4)))
