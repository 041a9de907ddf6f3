"""Matching, seeding, and neighborhood construction vs brute-force oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ops import membership

from linmatch import neighborhood
from linmatch.attention import Membership
from linmatch.neighborhood import (
    NeighborhoodConfig,
    RatioMatchSet,
    build_neighborhoods,
    default_radius,
    ratio_match,
    select_seeds,
)


def brute_force_ratio_match(a, b, theta):
    """O(N*M) mutual-NN + ratio filter, computed with direct distances."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    out = []
    for i in range(a.shape[0]):
        j = int(np.argmin(d[i]))
        if int(np.argmin(d[:, j])) != i:
            continue
        d1 = d[i, j]
        rest = np.delete(d[i], j)
        d2 = rest.min() if rest.size else np.inf
        if d1 > theta * d2:
            continue
        out.append(((i, j), np.inf if d1 == 0 else d2 / d1))
    return out


def _chunked_nearest(a, b, second, chunk_entries):
    """Nearest (and optionally second-nearest) rows of b for each row of a.

    The matcher's former two-pass kernel, kept as the reference for the single
    pass: each direction builds its own chunked distance table.
    """
    n, m = a.shape[0], b.shape[0]
    aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)
    j1 = np.empty(n, dtype=np.intp)
    j2 = np.empty(n, dtype=np.intp) if second and m >= 2 else None
    chunk = max(1, chunk_entries // max(m, 1))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        block = aa[s:e, None] + bb[None, :] - 2.0 * (a[s:e] @ b.T)
        idx1 = block.argmin(axis=1)
        j1[s:e] = idx1
        if j2 is not None:
            block[np.arange(e - s), idx1] = np.inf
            j2[s:e] = block.argmin(axis=1)
    d1 = np.linalg.norm(a - b[j1], axis=1)
    if not second:
        return j1, d1
    if j2 is None:
        return j1, d1, None, np.full(n, np.inf)
    d2 = np.linalg.norm(a - b[j2], axis=1)
    flip = d2 < d1
    if flip.any():
        j1[flip], j2[flip] = j2[flip], j1[flip]
        d1[flip], d2[flip] = d2[flip], d1[flip]
    return j1, d1, j2, d2


def two_pass_ratio_match(a, b, theta, chunk_entries):
    """`ratio_match` as it was with one distance table per direction."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    nn_st, d1, _, d2 = _chunked_nearest(a, b, True, chunk_entries)
    nn_ts, _ = _chunked_nearest(b, a, False, chunk_entries)
    src = np.flatnonzero((nn_ts[nn_st] == np.arange(a.shape[0])) & ~(d1 > theta * d2))
    d1, d2 = d1[src], d2[src]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(d1 == 0, np.inf, d2 / d1)
    return np.column_stack([src, nn_st[src]]).astype(np.intp), scores


def assert_same_as_two_pass(a, b, monkeypatch, chunk_entries):
    monkeypatch.setattr(neighborhood, "_CHUNK_ENTRIES", chunk_entries)
    for theta in (0.6, 0.9, 1.0):
        m = ratio_match(a, b, theta)
        want, scores = two_pass_ratio_match(a, b, theta, chunk_entries)
        assert np.array_equal(m.matches, want.reshape(-1, 2))
        assert np.array_equal(m.ratio_score, scores)


def pairs_of(m):
    return [tuple(p) for p in m.matches.tolist()]


def brute_force_seeds(m, kpts, radius):
    """O(|M|^2) pairwise suppression check."""
    keep = []
    for p, (ip, _) in enumerate(m.matches):
        ok = True
        for q, (iq, _) in enumerate(m.matches):
            if p == q:
                continue
            if np.linalg.norm(kpts[ip] - kpts[iq]) > radius:
                continue
            if m.ratio_score[q] > m.ratio_score[p] or \
                    (m.ratio_score[q] == m.ratio_score[p] and iq < ip):
                ok = False
                break
        if ok:
            keep.append(p)
    return sorted(keep, key=lambda p: m.matches[p][0])


class TestDefaultRadius:
    def test_square_frame(self):
        np.testing.assert_allclose(default_radius(100, 100), np.sqrt(100 / np.pi), rtol=1e-12)
        np.testing.assert_allclose(default_radius(100, 100), 5.6419, atol=1e-4)

    def test_rectangular_frame(self):
        np.testing.assert_allclose(default_radius(628, 50), 9.9975, atol=1e-4)

    def test_doubling_dims_doubles_radius(self):
        np.testing.assert_allclose(default_radius(640, 480) * 2, default_radius(1280, 960),
                                   rtol=1e-12)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            default_radius(0, 100)


class TestRatioMatch:
    def test_one_hot_permutation(self):
        perm = np.array([2, 0, 3, 1])
        a = np.eye(4)
        b = np.eye(4)[perm]
        m = ratio_match(a, b, theta=1.0)
        # b[k] = a[perm[k]], so source perm[k] matches target k
        assert sorted(pairs_of(m)) == sorted((int(perm[k]), k) for k in range(4))
        assert np.isinf(m.ratio_score).all()

    def test_theta_one_equals_pure_mutual_nn(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal((25, 8))
        m = ratio_match(a, b, theta=1.0)
        oracle = brute_force_ratio_match(a, b, theta=1.0)
        assert sorted(pairs_of(m)) == sorted(pair for pair, _ in oracle)

    def test_matches_brute_force_with_scores(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((16, 6))
        b = rng.standard_normal((16, 6))
        for theta in (0.5, 0.8, 1.0):
            m = ratio_match(a, b, theta)
            oracle = brute_force_ratio_match(a, b, theta)
            assert pairs_of(m) == [pair for pair, _ in oracle]
            np.testing.assert_allclose(m.ratio_score, [s for _, s in oracle], rtol=1e-10)

    def test_single_target_second_distance_infinite(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.9, 0.1]])
        m = ratio_match(a, b, theta=0.5)
        assert pairs_of(m) == [(0, 0)]
        assert np.isinf(m.ratio_score[0])

    def test_empty_sides(self):
        assert len(ratio_match(np.zeros((0, 4)), np.zeros((3, 4)), 1.0)) == 0
        assert len(ratio_match(np.zeros((3, 4)), np.zeros((0, 4)), 1.0)) == 0

    def test_tight_theta_blocks_ambiguous(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[1.0, 0.05], [1.0, -0.05]])  # nearly tied neighbors
        assert len(ratio_match(a, b, theta=0.5)) == 0
        assert len(ratio_match(a, b, theta=1.0)) == 1

    def test_chunked_path_matches_small_path(self, monkeypatch):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((300, 16))
        b = rng.standard_normal((310, 16))
        entries = 97 * 310  # 97-row chunks: three full ones and a ragged 9-row one
        monkeypatch.setattr(neighborhood, "_CHUNK_ENTRIES", entries)
        m = ratio_match(a, b, 1.0)
        oracle = brute_force_ratio_match(a, b, 1.0)
        assert pairs_of(m) == [pair for pair, _ in oracle]
        assert_same_as_two_pass(a, b, monkeypatch, entries)


def _dyadic(rng, shape):
    """Small multiples of 1/4: every distance is exact in f64, so ties are exact."""
    return rng.integers(-8, 9, shape) / 4.0


def _cases():
    rng = np.random.default_rng(7)
    yield "random", rng.standard_normal((130, 12)), rng.standard_normal((140, 12))
    yield "grid", rng.integers(-2, 3, (120, 5)).astype(float), \
        rng.integers(-2, 3, (110, 5)).astype(float)
    a, b = _dyadic(rng, (90, 6)), _dyadic(rng, (100, 6))
    a[45:], b[50:] = a[:45], b[:50]  # every row has a twin
    yield "duplicates", a, b
    yield "n=1", rng.standard_normal((1, 8)), rng.standard_normal((50, 8))
    yield "m=1", rng.standard_normal((50, 8)), rng.standard_normal((1, 8))
    yield "n=m=1", rng.standard_normal((1, 8)), rng.standard_normal((1, 8))
    yield "m=2", rng.standard_normal((60, 8)), rng.standard_normal((2, 8))
    yield "n>>m", rng.integers(-1, 2, (400, 3)).astype(float), rng.standard_normal((5, 3))
    yield "n<<m", rng.standard_normal((5, 3)), rng.integers(-1, 2, (400, 3)).astype(float)


class TestSinglePass:
    """One table per chunk answers both directions, as the two-pass matcher did."""

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 64, None])
    @pytest.mark.parametrize("case", [c[0] for c in _cases()])
    def test_matches_two_pass_reference(self, monkeypatch, case, rows_per_chunk):
        _, a, b = next(c for c in _cases() if c[0] == case)
        entries = neighborhood._CHUNK_ENTRIES if rows_per_chunk is None \
            else rows_per_chunk * len(b)
        assert_same_as_two_pass(a, b, monkeypatch, entries)

    def test_column_tie_across_chunk_boundary_keeps_earlier_row(self, monkeypatch):
        rng = np.random.default_rng(8)
        b = _dyadic(rng, (20, 4))
        b[:, 0] = 8.0 * np.arange(20)  # columns lie far apart
        a = _dyadic(rng, (30, 4)) + 1000.0  # rows lie far from every column
        a[3] = a[13] = a[23] = b[5]  # rows in chunks 0, 1 and 2 all reach column 5
        a[17] = b[9] + 0.25  # column 9: chunk 1 reaches it first ...
        a[22] = b[9] + 0.25  # ... and chunk 2 only ties
        a[28] = b[11] + 0.5  # column 11: chunk 2 is strictly closer than chunk 0
        a[4] = b[11] + 0.75
        monkeypatch.setattr(neighborhood, "_CHUNK_ENTRIES", 10 * len(b))
        _, _, _, nearest_a = neighborhood._mutual_nearest(a, b)
        assert (nearest_a[5], nearest_a[9], nearest_a[11]) == (3, 17, 28)
        assert_same_as_two_pass(a, b, monkeypatch, 10 * len(b))
        assert_same_as_two_pass(a, b, monkeypatch, 7 * len(b))


def _ulp_groups(rng, base, size):
    """`size` float32 copies of each row of `base`; every copy after the first moves its
    first coordinate 1-4 ulps up, so distances to a group's rows differ in the last bits."""
    rows = np.repeat(base.astype(np.float32), size, axis=0)
    for k in range(1, size):
        x, steps = rows[k::size, 0], rng.integers(1, 5, len(base))
        for step in range(4):
            x = np.where(steps > step, np.nextafter(x, np.float32(np.inf)), x)
        rows[k::size, 0] = x
    return rows


def _float32_cases():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((12, 16))
    b = _ulp_groups(rng, base, 3)  # each row's three nearest columns tie to a few ulps ...
    a = _ulp_groups(rng, base + 0.05 * rng.standard_normal(base.shape), 3)  # ... and so do columns
    a[7], b[7] = a[6], b[6]  # exact ties; rows 6 and 7 sit in different 1- and 7-row chunks
    yield "ulp ties", a, b
    b = rng.standard_normal((50, 8))
    a = b[rng.permutation(50)[:40]] + 0.3 * rng.standard_normal((40, 8))
    yield "offset 1000", (a + 1000).astype(np.float32), (b + 1000).astype(np.float32)
    yield "all equal", np.full((30, 8), 0.7, np.float32), np.full((20, 8), 0.7, np.float32)
    b = rng.standard_normal((40, 8))
    a = b[rng.permutation(40)] + 0.1 * rng.standard_normal((40, 8))
    yield "squares beyond float32", (a * 1e25).astype(np.float32), (b * 1e25).astype(np.float32)


class TestFloat32Ranking:
    """float32 tables only pick candidates; exact distances decide, as in the oracle."""

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, None])
    @pytest.mark.parametrize("case", [c[0] for c in _float32_cases()])
    def test_matches_exact_oracle(self, monkeypatch, case, rows_per_chunk):
        _, a, b = next(c for c in _float32_cases() if c[0] == case)
        if rows_per_chunk is not None:
            monkeypatch.setattr(neighborhood, "_CHUNK_ENTRIES", rows_per_chunk * len(b))
        for theta in (0.6, 0.9, 1.0):
            m = ratio_match(a, b, theta)
            oracle = brute_force_ratio_match(a, b, theta)
            assert pairs_of(m) == [pair for pair, _ in oracle]
            assert np.array_equal(m.ratio_score, [score for _, score in oracle])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, dtype, value):
        rng = np.random.default_rng(13)
        for side in range(2):
            x = [rng.standard_normal((6, 4)).astype(dtype) for _ in range(2)]
            x[side][3, 1] = value
            with pytest.raises(ValueError, match="non-finite encodings"):
                ratio_match(x[0], x[1], 1.0)

    def test_distances_beyond_float64_rejected(self):
        a = np.full((3, 4), 1e160)
        with pytest.raises(ValueError, match="too large"):
            ratio_match(a, -a, 1.0)

    @pytest.mark.parametrize("case", ["random", "all equal"])
    def test_peak_memory_is_one_float32_table(self, case):
        """One (chunk, m) table in the input dtype plus O((n + m) * C) scratch: no
        float64 table, and candidate lists stay bounded when every distance ties."""
        c = 64
        if case == "random":
            rng = np.random.default_rng(14)
            a, b = (rng.standard_normal((2048, c)).astype(np.float32) for _ in range(2))
        else:
            a = b = np.ones((512, c), np.float32)
        n, m = len(a), len(b)
        table = min(n, neighborhood._CHUNK_ENTRIES // m) * m * a.itemsize
        tracemalloc.start()
        try:
            ratio_match(a, b, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table + 4 * (n + m) * c * 8


class TestSelectSeeds:
    def _match_set(self, rng, n, n_kpts):
        taken_s = rng.choice(n_kpts, size=n, replace=False)
        taken_t = rng.choice(n_kpts, size=n, replace=False)
        matches = [(int(i), int(j)) for i, j in zip(taken_s, taken_t)]
        scores = rng.uniform(1.0, 5.0, size=n)
        return RatioMatchSet(matches, scores)

    def test_far_apart_all_seeds(self):
        kpts = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        m = RatioMatchSet([(0, 0), (1, 1), (2, 2)], [1.0, 2.0, 3.0])
        seeds = select_seeds(m, kpts, radius=5.0)
        assert list(seeds) == [0, 1, 2]

    def test_local_suppression(self):
        kpts = np.array([[0.0, 0.0], [1.0, 0.0]])
        m = RatioMatchSet([(0, 0), (1, 1)], [3.0, 2.0])
        seeds = select_seeds(m, kpts, radius=5.0)
        assert [pairs_of(m)[p] for p in seeds] == [(0, 0)]
        # a point exactly at the radius is within it
        assert list(select_seeds(m, np.array([[0.0, 0.0], [3.0, 4.0]]), radius=5.0)) == [0]

    def test_tie_breaks_to_lower_source_index(self):
        kpts = np.array([[0.0, 0.0], [1.0, 0.0]])
        m = RatioMatchSet([(0, 0), (1, 1)], [2.0, 2.0])
        seeds = select_seeds(m, kpts, radius=5.0)
        assert [pairs_of(m)[p] for p in seeds] == [(0, 0)]

    def test_infinite_score_ties(self):
        kpts = np.array([[0.0, 0.0], [1.0, 0.0]])
        m = RatioMatchSet([(0, 0), (1, 1)], [np.inf, np.inf])
        seeds = select_seeds(m, kpts, radius=5.0)
        assert [pairs_of(m)[p] for p in seeds] == [(0, 0)]

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(3)
        kpts = rng.uniform(0, 200, size=(100, 2))
        m = self._match_set(rng, 64, 100)
        seeds = select_seeds(m, kpts, radius=25.0)
        assert list(seeds) == brute_force_seeds(m, kpts, 25.0)

    def test_tie_heavy_inputs_match_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(10, 200))
            kpts = rng.uniform(0, 300, size=(n, 2))
            perm = rng.permutation(n)  # match order differs from source order
            scores = rng.choice([1.0, 2.0, 3.0, np.inf], size=n)  # force ties
            m = RatioMatchSet([(int(i), k) for k, i in enumerate(perm)], scores)
            radius = float(rng.uniform(5, 80))
            assert list(select_seeds(m, kpts, radius)) == brute_force_seeds(m, kpts, radius)

    def test_large_match_set_matches_row_reference(self):
        # as many ratio matches as a 4k-keypoint scene can give
        rng = np.random.default_rng(10)
        n = 4500
        kpts = rng.uniform(0, 600, size=(n, 2))
        scores = rng.choice([1.0, 2.0, 3.0, np.inf], size=n)
        m = RatioMatchSet([(i, i) for i in range(n)], scores)
        radius = 12.0
        expected = []
        for p in range(n):  # one row of the quadratic comparison at a time
            near = ((kpts - kpts[p]) ** 2).sum(axis=1) <= radius * radius
            near[p] = False
            beats = (scores > scores[p]) | ((scores == scores[p]) & (np.arange(n) < p))
            if not (near & beats).any():
                expected.append(p)
        assert list(select_seeds(m, kpts, radius)) == expected

    def test_separation_invariant(self):
        rng = np.random.default_rng(5)
        kpts = rng.uniform(0, 150, size=(80, 2))
        m = self._match_set(rng, 50, 80)
        radius = 20.0
        seeds = select_seeds(m, kpts, radius)
        chosen = [(pairs_of(m)[p], m.ratio_score[p]) for p in seeds]
        for a, ((ia, _), sa) in enumerate(chosen):
            for b, ((ib, _), sb) in enumerate(chosen):
                if a == b:
                    continue
                d = np.linalg.norm(kpts[ia] - kpts[ib])
                if d <= radius:
                    assert sa == sb  # only rank-tied seeds may coexist within R
        assert len(seeds) > 0

    def test_non_finite_point_is_near_nothing(self):
        kpts = np.array([[0.0, 0.0], [np.nan, 0.0], [1.0, 0.0], [np.inf, np.inf]])
        m = RatioMatchSet([(0, 0), (1, 1), (2, 2), (3, 3)], [1.0, 3.0, 2.0, 0.5])
        assert list(select_seeds(m, kpts, radius=5.0)) == [1, 2, 3]

    def test_empty_input(self):
        assert len(select_seeds(RatioMatchSet([], np.zeros(0)), np.zeros((0, 2)), 5.0)) == 0


class TestBuildNeighborhoods:
    def _scene(self, rng, n):
        ks = rng.uniform(0, 200, size=(n, 2))
        kt = rng.uniform(0, 200, size=(n, 2))
        matches = [(i, i) for i in range(n)]
        scores = rng.uniform(1, 4, size=n)
        return ks, kt, RatioMatchSet(matches, scores)

    def test_single_match_single_seed(self):
        ks = np.array([[10.0, 10.0]])
        kt = np.array([[20.0, 20.0]])
        m = RatioMatchSet([(0, 0)], [2.0])
        cfg = NeighborhoodConfig(r=5.0, r_s=5.0, r_t=5.0)
        pairs = build_neighborhoods(np.array([0]), m, ks, kt, cfg)
        assert len(pairs) == 1
        assert pairs[0].seed == (0, 0)
        np.testing.assert_array_equal(pairs[0].source_set, [0])
        np.testing.assert_array_equal(pairs[0].target_set, [0])

    def test_huge_lambda_covers_everything(self):
        rng = np.random.default_rng(6)
        ks, kt, m = self._scene(rng, 30)
        cfg = NeighborhoodConfig(lam=1e9, r=10.0, r_s=10.0, r_t=10.0)
        pairs = build_neighborhoods(np.array([0, 5]), m, ks, kt, cfg)
        for p in pairs:
            assert len(p.source_set) == 30
            assert len(p.target_set) == 30

    def test_matches_brute_force_double_filter(self):
        rng = np.random.default_rng(7)
        ks, kt, m = self._scene(rng, 60)
        cfg = NeighborhoodConfig(lam=2.0, r=15.0, r_s=15.0, r_t=15.0)
        seeds = select_seeds(m, ks, cfg.r)
        pairs = build_neighborhoods(seeds, m, ks, kt, cfg)
        assert len(pairs) == len(seeds)
        for pos, p in zip(seeds, pairs):
            p1, p2 = m.matches[pos]
            expect_src, expect_tgt = [], []
            for (q1, q2) in m.matches:
                if np.linalg.norm(ks[q1] - ks[p1]) <= cfg.lam * cfg.r_s and \
                        np.linalg.norm(kt[q2] - kt[p2]) <= cfg.lam * cfg.r_t:
                    expect_src.append(q1)
                    expect_tgt.append(q2)
            np.testing.assert_array_equal(p.source_set, sorted(expect_src))
            np.testing.assert_array_equal(p.target_set, sorted(expect_tgt))

    def test_seed_always_member(self):
        rng = np.random.default_rng(8)
        ks, kt, m = self._scene(rng, 40)
        cfg = NeighborhoodConfig(r=10.0, r_s=10.0, r_t=10.0)
        seeds = select_seeds(m, ks, cfg.r)
        for pos, p in zip(seeds, build_neighborhoods(seeds, m, ks, kt, cfg)):
            assert p.seed[0] in p.source_set
            assert p.seed[1] in p.target_set

    def test_lambda_monotonicity(self):
        rng = np.random.default_rng(9)
        ks, kt, m = self._scene(rng, 50)
        seeds = select_seeds(m, ks, 12.0)
        small = build_neighborhoods(seeds, m, ks, kt,
                                    NeighborhoodConfig(lam=1.0, r=12.0, r_s=12.0, r_t=12.0))
        large = build_neighborhoods(seeds, m, ks, kt,
                                    NeighborhoodConfig(lam=3.0, r=12.0, r_s=12.0, r_t=12.0))
        for p_small, p_large in zip(small, large):
            assert set(p_small.source_set) <= set(p_large.source_set)
            assert set(p_small.target_set) <= set(p_large.target_set)

    def test_unresolved_radii_rejected(self):
        m = RatioMatchSet([(0, 0)], [1.0])
        with pytest.raises(ValueError):
            build_neighborhoods(np.array([0]), m, np.zeros((1, 2)), np.zeros((1, 2)),
                                NeighborhoodConfig())


def loop_neighborhoods(seeds, m, source_keypoints, target_keypoints, cfg):
    """Reference: scan every match per seed; a seed with no members gets no neighborhood."""
    src_idx, tgt_idx = m.matches.T
    sp = np.asarray(source_keypoints, dtype=np.float64)[src_idx]
    tp = np.asarray(target_keypoints, dtype=np.float64)[tgt_idx]
    rs2 = (cfg.lam * cfg.r_s) ** 2
    rt2 = (cfg.lam * cfg.r_t) ** 2
    out = []
    for pos in seeds:
        with np.errstate(invalid="ignore"):  # inf - inf
            ds = ((sp - sp[pos]) ** 2).sum(axis=1)
            dt = ((tp - tp[pos]) ** 2).sum(axis=1)
        member = (ds <= rs2) & (dt <= rt2)
        if member.any():
            out.append(((int(src_idx[pos]), int(tgt_idx[pos])),
                        np.sort(src_idx[member]), np.sort(tgt_idx[member])))
    return out


def assert_same_as_loop(seeds, m, ks, kt, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from non-finite points
        got = build_neighborhoods(seeds, m, ks, kt, cfg)
    want = loop_neighborhoods(seeds, m, ks, kt, cfg)
    assert isinstance(got, Membership) and len(got) == len(want)
    for side, field in ((got.source, 1), (got.target, 2)):  # the CSR rows are the sets in order
        np.testing.assert_array_equal(side.rows, np.concatenate([w[field] for w in want] or [[]]))
    for p, (seed, src, tgt) in zip(got, want):
        assert p.seed == seed
        for have, expect in ((p.source_set, src), (p.target_set, tgt)):
            assert have.dtype == expect.dtype
            np.testing.assert_array_equal(have, expect)
    again = membership(list(got))  # the views convert back to the same arrays
    np.testing.assert_array_equal(again.seeds, got.seeds)
    for have, built in ((again.source, got.source), (again.target, got.target)):
        np.testing.assert_array_equal(have.rows, built.rows)
        np.testing.assert_array_equal(have.sizes, built.sizes)
    return got


class TestNeighborhoodOracle:
    """build_neighborhoods against the per-seed scan it replaced."""

    def test_bounds_are_inclusive_to_the_ulp(self):
        # seed at (50, 50) on both sides; lambda*R_s = 10 and lambda*R_t = 5
        cfg = NeighborhoodConfig(lam=2.0, r=5.0, r_s=5.0, r_t=2.5)
        up = np.nextafter(58.0, np.inf)
        src = [(50, 50), (56, 58), (56, up), (60, 50), (np.nextafter(60.0, np.inf), 50),
               (40, 50), (50, 51), (50, 51), (44, 42)]
        tgt = [(50, 50), (50, 51), (50, 51), (51, 50), (51, 50),
               (50, 50), (53, 54), (53, np.nextafter(54.0, np.inf)), (50, 50)]
        ks, kt = np.array(src, dtype=np.float64), np.array(tgt, dtype=np.float64)
        d_s = ((ks - ks[0]) ** 2).sum(axis=1)
        d_t = ((kt - kt[0]) ** 2).sum(axis=1)
        # the construction: rows 1, 3, 5 and 8 sit exactly on the source bound, row 6
        # on the target bound, and rows 2, 4 and 7 one ulp outside
        assert (d_s[[1, 3, 5, 8]] == 100).all() and d_t[6] == 25
        assert (d_s[[2, 4]] > 100).all() and d_t[7] > 25
        m = RatioMatchSet([(i, i) for i in range(len(src))], np.ones(len(src)))
        [p] = assert_same_as_loop(np.array([0]), m, ks, kt, cfg)
        np.testing.assert_array_equal(p.source_set, [0, 1, 3, 5, 6, 8])

    def test_overlapping_neighborhoods(self):
        rng = np.random.default_rng(21)
        ks, kt = rng.uniform(0, 60, size=(80, 2)), rng.uniform(0, 60, size=(80, 2))
        m = RatioMatchSet([(i, i) for i in range(80)], rng.uniform(1, 4, size=80))
        cfg = NeighborhoodConfig(lam=2.0, r=8.0, r_s=8.0, r_t=30.0)
        seeds = select_seeds(m, ks, cfg.r)
        got = list(assert_same_as_loop(seeds, m, ks, kt, cfg))
        assert any(np.intersect1d(a.source_set, b.source_set).size
                   for a, b in zip(got, got[1:]))

    def test_unsorted_matches_and_seeds(self):
        rng = np.random.default_rng(22)
        ks, kt = rng.uniform(0, 100, size=(90, 2)), rng.uniform(0, 100, size=(70, 2))
        m = RatioMatchSet(np.column_stack([rng.permutation(90)[:60], rng.permutation(70)[:60]]),
                          rng.uniform(1, 4, size=60))
        assert (np.diff(m.matches[:, 0]) < 0).any()
        cfg = NeighborhoodConfig(lam=2.0, r=10.0, r_s=10.0, r_t=40.0)
        seeds = rng.permutation(select_seeds(m, ks, cfg.r))
        assert len(assert_same_as_loop(seeds, m, ks, kt, cfg)) == len(seeds)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_points(self, value):
        ks = np.array([[0.0, 0.0], [1.0, 1.0], [value, 2.0], [3.0, 3.0], [2.0, 2.0]])
        kt = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, value], [2.0, value]])
        m = RatioMatchSet([(i, i) for i in range(5)], np.ones(5))
        cfg = NeighborhoodConfig(r=5.0, r_s=5.0, r_t=5.0)
        got = assert_same_as_loop(np.array([2, 0, 3, 1]), m, ks, kt, cfg)
        # seeds 2 and 3 have a non-finite point of their own, so no members
        assert [p.seed for p in got] == [(0, 0), (1, 1)]
        np.testing.assert_array_equal(got[0].source_set, [0, 1])
        assert len(assert_same_as_loop(np.array([3, 2]), m, ks, kt, cfg)) == 0

    def test_float32_scenes(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            ks = rng.uniform(0, 320, size=(400, 2)).astype(np.float32)
            kt = rng.uniform(0, 240, size=(300, 2)).astype(np.float32)
            m = ratio_match(rng.standard_normal((400, 8)), rng.standard_normal((300, 8)), 1.0)
            cfg = NeighborhoodConfig().resolved_pair((320, 320), (240, 240))
            seeds = select_seeds(m, ks, cfg.r)
            assert len(assert_same_as_loop(seeds, m, ks, kt, cfg)) == len(seeds)

    def test_no_seeds_or_no_matches(self):
        cfg = NeighborhoodConfig(r=5.0, r_s=5.0, r_t=5.0)
        m = RatioMatchSet([(0, 0)], [1.0])
        assert len(assert_same_as_loop(np.zeros(0, dtype=np.intp), m, np.zeros((1, 2)),
                                       np.zeros((1, 2)), cfg)) == 0
        assert len(build_neighborhoods([], RatioMatchSet([], []), np.zeros((0, 2)),
                                       np.zeros((0, 2)), cfg)) == 0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborhoodConfig(theta=0.0)
        with pytest.raises(ValueError):
            NeighborhoodConfig(theta=1.5)
        with pytest.raises(ValueError):
            NeighborhoodConfig(lam=-1.0)
        with pytest.raises(ValueError):
            NeighborhoodConfig(r=-3.0)

    def test_resolved_fills_radii(self):
        cfg = NeighborhoodConfig().resolved_pair((100, 100), (100, 100))
        np.testing.assert_allclose(cfg.r, default_radius(100, 100))
        assert cfg.r_s == cfg.r_t == cfg.r

    def test_resolved_respects_explicit(self):
        cfg = NeighborhoodConfig(r=7.0).resolved_pair((100, 100), (100, 100))
        assert cfg.r == 7.0
        np.testing.assert_allclose(cfg.r_s, default_radius(100, 100))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=1000))
def test_ratio_match_is_partial_bijection(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 4))
    b = rng.standard_normal((max(1, n // 2), 4))
    m = ratio_match(a, b, 1.0)
    assert m.matches.dtype == np.intp and m.matches.shape == (len(m), 2)
    assert m.ratio_score.dtype == np.float64 and m.ratio_score.shape == (len(m),)
    src, tgt = m.matches.T.tolist()
    assert len(set(src)) == len(src)
    assert len(set(tgt)) == len(tgt)
    assert all(0 <= i < n for i in src)


def test_ratio_match_set_built_from_outside_refuses_repeats():
    for rows in ([(0, 0), (1, 0)], [(2, 0), (2, 1)]):
        with pytest.raises(ValueError, match="one-to-one"):
            RatioMatchSet(rows, [1.0, 2.0])
