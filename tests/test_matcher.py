"""Candidate expansion, affine verification, pipeline, and metrics."""

import collections
import itertools

import numpy as np
import pytest
from reference_ops import membership

import linmatch.matcher as matcher
from linmatch.attention import Membership, NeighborhoodPair
from linmatch.cli import main
from linmatch.encoder import NetworkConfig, forward, init_weights
from linmatch.geometry import (
    GenNoiseConfig,
    GroundTruth,
    Homography,
    KeypointSet,
    generate_pair,
    write_ground_truth,
    write_homography,
    write_kpds,
)
from linmatch.matcher import (
    FilterConfig,
    MatchSet,
    evaluate,
    filter_matches,
    match_pipeline,
    read_matches,
    write_matches,
    _affine,
    _candidates,
    _residual,
    _triples,
    _SCORE_ENTRIES,
)
from linmatch.neighborhood import (
    NeighborhoodConfig,
    build_neighborhoods,
    ratio_match,
    select_seeds,
)
from linmatch.training import LossConfig, loss_gradient


def sparse_orthogonal_scene(n=6, spacing=60.0):
    """Keypoints far apart with one-hot descriptors: matching is unambiguous."""
    side = int(np.ceil(np.sqrt(n)))
    pts = np.array([[10 + spacing * (k % side), 10 + spacing * (k // side)]
                    for k in range(n)], dtype=np.float32)
    width = height = int(spacing * side + 20)
    desc = np.eye(n, dtype=np.float32)
    ks = KeypointSet(pts, desc, width, height)
    kt = KeypointSet(pts.copy(), desc.copy(), width, height)
    return ks, kt


def diagonal(idx, score=1.0, stage="candidate"):
    """(i, i) matches in the order of `idx`, all with one score and one stage."""
    idx = np.asarray(idx, dtype=np.intp)
    return MatchSet(np.column_stack([idx, idx]), np.full(len(idx), score), [stage] * len(idx))


def pair_set(m):
    return set(map(tuple, m.pairs.tolist()))


def same(a, b):
    """Equal match sets: the same rows, scores and stages in the same order."""
    return (np.array_equal(a.pairs, b.pairs) and np.array_equal(a.score, b.score)
            and a.stage == b.stage)


def taken(got, m, positions):
    """`got` holds exactly the matches of `m` at `positions`, in match order."""
    keep = np.array(sorted(positions), dtype=np.intp)
    return np.array_equal(got.pairs, m.pairs[keep]) and np.array_equal(got.score, m.score[keep])


def triples(rng_seed, seed, k, count):
    """`count` uniform 3-subsets of range(k): the draw `filter_matches` makes for the
    neighborhood seeded at source index `seed`."""
    return _triples(rng_seed, [seed], [k], count)[:, 0].T


def affine_map(p, t):
    """The exact affine map through one triple p -> t as a (3, 2) `coef`, or None when
    |det| < 1e-9: the filter's closed form, one scalar at a time."""
    (x0, y0), (x1, y1), (x2, y2) = p.tolist()
    dx1, dy1, dx2, dy2 = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    det = dx1 * dy2 - dy1 * dx2
    if abs(det) < 1e-9:
        return None
    coef = []
    for (t0, t1, t2) in t.T.tolist():  # the x column, then the y column
        a0 = (dy2 * (t1 - t0) - dy1 * (t2 - t0)) / det
        a1 = (dx1 * (t2 - t0) - dx2 * (t1 - t0)) / det
        coef.append([a0, a1, t0 - (x0 * a0 + y0 * a1)])
    return np.array(coef).T


class FakeEnc:
    """Stand-in encoded pair: descriptors already matchable."""

    def __init__(self, xs, xt):
        self.xs_hat = xs
        self.xt_hat = xt


class TestDistanceMatch:
    """`_candidates`: ratio matches, seeds and their neighborhoods' members, tagged."""

    def test_orthogonal_sparse_all_seeds(self):
        ks, kt = sparse_orthogonal_scene(n=4, spacing=200.0)
        cfg = NeighborhoodConfig(r=10.0, r_t=10.0)
        out = _candidates(FakeEnc(ks.descriptors, kt.descriptors), ks, kt, cfg)[0]
        assert out.pairs.tolist() == [[i, i] for i in range(4)]
        assert all(s == "seed" for s in out.stage)

    def test_no_mutual_nn_empty(self):
        ks = KeypointSet(np.array([[5.0, 5.0]]), np.array([[1.0, 0.0]]), 10, 10)
        kt = KeypointSet(np.zeros((0, 2)), np.zeros((0, 2)), 10, 10)
        cfg = NeighborhoodConfig().resolved_pair((10, 10), (10, 10))
        out = _candidates(FakeEnc(ks.descriptors, kt.descriptors), ks, kt, cfg)[0]
        assert len(out) == 0

    def test_matches_scripted_composition(self):
        rng = np.random.default_rng(0)
        ks, kt, _, _ = generate_pair(4, 60, (256, 256), 16,
                                     GenNoiseConfig(desc_sigma=0.2, distractors=10))
        xs_enc = ks.descriptors + 0.0
        xt_enc = kt.descriptors + 0.0
        cfg = NeighborhoodConfig().resolved_pair((256, 256), (256, 256))
        out = _candidates(FakeEnc(xs_enc, xt_enc), ks, kt, cfg)[0]

        m = ratio_match(xs_enc, xt_enc, cfg.theta)
        seeds = select_seeds(m, ks.keypoints, cfg.r)
        neigh = build_neighborhoods(seeds, m, ks.keypoints, kt.keypoints, cfg)
        expect = set()
        tgt_of = dict(m.matches.tolist())
        for p in neigh:
            for i in p.source_set:
                expect.add((int(i), tgt_of[int(i)]))
        assert pair_set(out) == expect
        seed_sources = set(m.matches[seeds, 0].tolist())
        for i, st in zip(out.pairs[:, 0].tolist(), out.stage):
            assert st == ("seed" if i in seed_sources else "candidate")

    def test_candidate_scores_are_ratio_scores(self):
        ks, kt = sparse_orthogonal_scene(n=4, spacing=30.0)
        out = _candidates(FakeEnc(ks.descriptors, kt.descriptors), ks, kt,
                          NeighborhoodConfig(r=10.0, r_t=10.0))[0]
        assert np.isinf(out.score).all()


def exhaustive_affine_check(src, tgt, threshold, min_inliers):
    """All 3-subsets; best inlier set by exhaustive search (oracle)."""
    k = len(src)
    best = set()
    for combi in itertools.combinations(range(k), 3):
        m = np.column_stack([src[list(combi)], np.ones(3)])
        if abs(np.linalg.det(m)) < 1e-9:
            continue
        coef = np.linalg.solve(m, tgt[list(combi)])
        res = np.linalg.norm(np.column_stack([src, np.ones(k)]) @ coef - tgt, axis=1)
        inl = set(np.nonzero(res <= threshold)[0])
        if len(inl) > len(best):
            best = inl
    return best if len(best) >= min_inliers else set()


def loop_verify(pair, src, tgt, fcfg, threshold):
    """One neighborhood, one hypothesis at a time: the plain reference for `filter_matches`.

    Returns (surviving rows, degenerate samples skipped, hypotheses tying the best so far).
    """
    k = len(src)
    if k < 3:  # no 3-sample to draw; fewer than min_inliers >= 3 anyway
        return np.zeros(0, int), 0, 0
    hom = np.column_stack([src, np.ones(k)])
    best_count, best_mask = 0, None
    degenerate = ties = 0
    for sample in triples(fcfg.rng_seed, pair.seed[0], k, fcfg.ransac_iterations):
        coef = affine_map(src[sample], tgt[sample])
        if coef is None:
            degenerate += 1
            continue
        mask = np.linalg.norm(hom @ coef - tgt, axis=1) <= threshold
        count = int(mask.sum())
        ties += count == best_count
        if count > best_count:
            best_count, best_mask = count, mask
    rows = np.flatnonzero(best_mask) if best_count >= fcfg.min_inliers else np.zeros(0, int)
    return rows, degenerate, ties


def random_neighborhood(rng, case):
    """Affine-related candidates with up to 50 % outliers.

    Odd cases use integer-grid points and an integer map, so exact residuals
    and inlier-count ties occur; every third case makes some points collinear
    or duplicated, so degenerate samples occur.
    """
    k = 3 if case % 10 == 0 else int(rng.integers(3, 61))
    grid = case % 2 == 1
    src = rng.integers(0, 12, size=(k, 2)).astype(np.float64) if grid \
        else rng.uniform(0, 200, size=(k, 2))
    if case % 3 == 0:
        line = rng.choice(k, size=max(2, k // 2), replace=False)
        src[line] = src[line[0]] + np.outer(np.arange(len(line)), [2.0, 1.0])
        src[rng.integers(k)] = src[rng.integers(k)]
    if grid:
        tgt = src @ np.array([[0.0, -1.0], [1.0, 0.0]]).T + rng.integers(-5, 6, size=2)
        shift = lambda n: rng.integers(-3, 4, size=(n, 2))
    else:
        tgt = src @ (np.eye(2) + rng.normal(0, 0.1, (2, 2))).T + rng.uniform(-9, 9, 2)
        shift = lambda n: rng.uniform(-30, 30, size=(n, 2))
    outliers = rng.choice(k, size=int(rng.uniform(0, 0.5) * k), replace=False)
    tgt[outliers] += shift(len(outliers))
    return src, tgt


def loop_filter(m, ks, kt, pairs, fcfg, threshold):
    """Each neighborhood's candidates found one by one, then verified by `loop_verify`.

    Returns (surviving match positions of each neighborhood, degenerate
    samples skipped, hypotheses tying the best so far).
    """
    src, tgt = ks.keypoints.astype(np.float64), kt.keypoints.astype(np.float64)
    survivors, degenerate, ties = [], 0, 0
    for pair in pairs:
        targets = set(pair.target_set.tolist())
        cand = np.array([p for i in pair.source_set.tolist()
                         for p, (a, b) in enumerate(m.pairs.tolist()) if a == i and b in targets],
                        dtype=np.intp)
        ij = m.pairs[cand]
        rows, skipped, tied = loop_verify(pair, src[ij[:, 0]], tgt[ij[:, 1]], fcfg, threshold)
        survivors.append(set(cand[rows].tolist()))
        degenerate, ties = degenerate + skipped, ties + tied
    return survivors, degenerate, ties


def single_neighborhood_scene(rng, src, tgt, decoys):
    """`src`/`tgt` rows as the candidates of one neighborhood, plus decoy matches.

    Keypoint indices and match positions are shuffled, so neither equals the
    candidate row, and the target set lists its members in another order.
    """
    k, n = len(src), len(src) + decoys
    sidx, tidx = rng.permutation(n), rng.permutation(n)
    ks_pts, kt_pts = np.full((n, 2), 1.0), np.full((n, 2), 2.0)
    ks_pts[sidx[:k]], kt_pts[tidx[:k]] = src, tgt + 200.0  # a shift keeps the affine relation
    ks = KeypointSet(ks_pts, np.eye(n), 1024, 1024)
    kt = KeypointSet(kt_pts, np.eye(n), 1024, 1024)
    order = rng.permutation(n)
    m = MatchSet(np.column_stack([sidx[order], tidx[order]]), np.ones(n), ["candidate"] * n)
    seed = int(rng.integers(k))
    pair = NeighborhoodPair((int(sidx[seed]), int(tidx[seed])), sidx[:k],
                            rng.permutation(tidx[:k]))
    return ks, kt, m, pair


class TestBatchedVerifier:
    @pytest.mark.parametrize("block", [1, 5, 256, _SCORE_ENTRIES])
    def test_matches_loop_reference(self, block, monkeypatch):
        monkeypatch.setattr(matcher, "_SCORE_ENTRIES", block)
        rng = np.random.default_rng(2024)
        degenerate = ties = 0
        for case in range(200):
            src, tgt = random_neighborhood(rng, case)
            iters = int(rng.choice([1, 7, 64, 128, 257, 529],
                                   p=[0.1, 0.2, 0.3, 0.3, 0.05, 0.05]))
            fcfg = FilterConfig(ransac_iterations=iters, min_inliers=int(rng.integers(3, 8)),
                                rng_seed=case, inlier_threshold_factor=1.0)
            threshold = 1.0 if case % 2 else float(rng.uniform(0.5, 3.0))
            ks, kt, m, pair = single_neighborhood_scene(rng, src, tgt, decoys=case % 4)
            got = filter_matches(m, ks, kt, membership([pair]), fcfg, r_t=threshold)
            (want,), skipped, tied = loop_filter(m, ks, kt, [pair], fcfg, threshold)
            assert taken(got, m, want), case
            degenerate += skipped
            ties += tied
        assert degenerate > 0 and ties > 0  # both rules were exercised

    @pytest.mark.parametrize("block", [1, 256, _SCORE_ENTRIES])
    def test_many_neighborhoods_match_loop_reference(self, block, monkeypatch):
        """One call over neighborhoods of unequal size that overlap and repeat triples."""
        monkeypatch.setattr(matcher, "_SCORE_ENTRIES", block)
        rng = np.random.default_rng(77)
        n = 90
        src = rng.integers(0, 40, size=(n, 2)).astype(np.float64)  # grid: exact ties occur
        tgt = src @ np.array([[0.0, 1.0], [-1.0, 1.0]]).T + 60.0
        tgt[rng.choice(n, size=30, replace=False)] += rng.integers(-6, 7, size=(30, 2))
        ks = KeypointSet(src, np.eye(n), 256, 256)
        kt = KeypointSet(tgt, np.eye(n), 256, 256)
        m = diagonal(rng.permutation(n))
        pairs = []
        for size in (2, 3, 3, 4, 5, 5, 5, 8, 12, 12, 30, 61, 90):
            members = rng.choice(n, size=size, replace=False)
            for _ in range(2):  # the same members under two seeds: shared triples
                seed = int(rng.choice(members))
                pairs.append(NeighborhoodPair((seed, seed), members, rng.permutation(members)))
        # a target set that leaves out some of the source set's matches
        pairs.append(NeighborhoodPair((0, 0), np.arange(20), np.arange(0, 40, 2)))
        fcfg = FilterConfig(ransac_iterations=40, min_inliers=3, inlier_threshold_factor=1.0,
                            rng_seed=5)
        want, degenerate, ties = loop_filter(m, ks, kt, pairs, fcfg, 1.5)
        got = filter_matches(m, ks, kt, membership(pairs), fcfg, r_t=1.5)
        assert taken(got, m, set().union(*want))
        for pair, w in zip(pairs, want):  # and each neighborhood on its own
            alone = filter_matches(m, ks, kt, membership([pair]), fcfg, r_t=1.5)
            assert taken(alone, m, w)
        assert degenerate > 0 and ties > 0 and 0 < len(got) < n
        # ordered triples repeat within a neighborhood and across neighborhoods
        drawn = [triples(5, p.seed[0], len(p.source_set), 40) for p in pairs[2:4]]
        assert len({tuple(t) for t in drawn[0].tolist()}) < 40
        assert {tuple(t) for t in drawn[0].tolist()} & {tuple(t) for t in drawn[1].tolist()}

    @pytest.mark.parametrize("grid", [True, False])
    def test_residual_is_bitwise_norm(self, grid):
        rng = np.random.default_rng(9)
        for k in (3, 7, 64):
            pts = rng.integers(0, 50, size=(k, 2)) if grid else rng.uniform(0, 500, size=(k, 2))
            hom = np.column_stack([pts, np.ones(k)])
            tgt = rng.integers(0, 50, size=(k, 2)) if grid else rng.uniform(0, 500, size=(k, 2))
            coef = rng.integers(-3, 4, size=(20, 3, 2)).astype(float) if grid \
                else rng.normal(size=(20, 3, 2))
            want = np.linalg.norm(hom @ coef - tgt, axis=2)
            assert np.array_equal(_residual(hom, coef, tgt), want)
            # stacked per neighborhood as the filter does: (s, 1, k, 3) @ (s, d, 3, 2)
            stacked = _residual(np.stack([hom] * 3)[:, None], np.stack([coef] * 3),
                                np.stack([tgt] * 3)[:, None])
            assert all(np.array_equal(s, want) for s in stacked)

    @pytest.mark.parametrize("kind", ["random", "grid", "near_degenerate"])
    def test_closed_form_agrees_with_lapack(self, kind):
        """Every fitted map's residuals at 64 points of the frame agree with those of
        np.linalg.solve's map to within 8 * eps * cond([p, 1]) * (1 + residual): the size of
        the error a stable solve of either kind may make."""
        rng = np.random.default_rng(12)
        n = 2000
        if kind == "random":
            p, t = rng.uniform(0, 1024, size=(2, n, 3, 2))
        elif kind == "grid":  # some exactly degenerate triples among them
            p, t = rng.integers(0, 1024, size=(2, n, 3, 2)).astype(np.float64)
        else:  # p2 off the line through p0 and p1 by det(D) / |p1 - p0|, det(D) just over 1e-9
            p0, u = rng.uniform(0, 1024, size=(n, 2)), rng.uniform(-50, 50, size=(n, 2))
            length = np.linalg.norm(u, axis=1, keepdims=True)
            off = u[:, ::-1] * [-1.0, 1.0] * rng.uniform(1.05e-9, 2e-9, size=(n, 1)) / length ** 2
            p = np.stack([p0, p0 + u, p0 + rng.uniform(-3, 3, size=(n, 1)) * u + off], axis=1)
            t = p @ np.array([[1.1, 0.1], [-0.05, 0.95]]) + rng.uniform(-1, 1, size=(n, 3, 2))
            d = p[:, 1:] - p[:, :1]
            assert (np.abs(d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]) < 4e-9).all()
        hom = np.concatenate([p, np.ones((n, 3, 1))], axis=2)
        coef = _affine(p.transpose(2, 1, 0), t.transpose(2, 1, 0))
        fit = np.isfinite(coef).all(axis=(1, 2))
        assert fit.mean() > 0.95 and (np.isnan(coef[~fit])).all()
        query = np.column_stack([rng.uniform(0, 1024, size=(64, 2)), np.ones(64)])
        tq = rng.uniform(0, 1024, size=(64, 2))
        got = np.linalg.norm(query @ coef[fit] - tq, axis=2)
        want = np.linalg.norm(query @ np.linalg.solve(hom[fit], t[fit]) - tq, axis=2)
        cond = np.linalg.cond(hom[fit])[:, None]
        assert (np.abs(got - want) <= 8 * np.finfo(np.float64).eps * cond * (1 + want)).all()

    def test_sample_triples_are_distinct_and_in_range(self):
        for k in (3, 4, 5, 17, 60):
            t = triples(4, k, k, 2000)
            assert t.shape == (2000, 3)
            assert ((t >= 0) & (t < k)).all()
            assert ((t[:, 0] != t[:, 1]) & (t[:, 0] != t[:, 2]) & (t[:, 1] != t[:, 2])).all()

    def test_sample_triples_are_uniform_over_subsets(self):
        t = triples(11, 0, 5, 20000)
        counts = collections.Counter(map(tuple, np.sort(t, axis=1).tolist()))
        assert set(counts) == set(itertools.combinations(range(5), 3))
        assert all(1800 <= c <= 2200 for c in counts.values())


class TestFilterMatches:
    def _affine_scene(self, rng, n=20, outlier_rows=()):
        """Candidates exactly related by one affine map, plus forced outliers."""
        src = rng.uniform(20, 200, size=(n, 2))
        a = np.array([[1.1, 0.1], [-0.05, 0.95]])
        b = np.array([7.0, -3.0])
        tgt = src @ a.T + b
        for row in outlier_rows:
            tgt[row] += 40.0  # huge displacement
        ks = KeypointSet(src.astype(np.float32), np.eye(n, dtype=np.float32), 256, 256)
        kt = KeypointSet(tgt.astype(np.float32), np.eye(n, dtype=np.float32), 256, 256)
        pair = NeighborhoodPair((0, 0), np.arange(n), np.arange(n))
        return ks, kt, diagonal(np.arange(n), score=2.0), membership([pair])

    def test_exact_affine_all_survive(self):
        rng = np.random.default_rng(1)
        ks, kt, m, neigh = self._affine_scene(rng)
        out = filter_matches(m, ks, kt, neigh, FilterConfig(rng_seed=3))
        assert len(out) == len(m)
        assert all(s == "verified" for s in out.stage)

    def test_single_outlier_removed(self):
        rng = np.random.default_rng(2)
        ks, kt, m, neigh = self._affine_scene(rng, n=20, outlier_rows=(7,))
        fcfg = FilterConfig(rng_seed=5)
        out = filter_matches(m, ks, kt, neigh, fcfg)
        assert (7, 7) not in pair_set(out)
        assert len(out) == 19
        # agreement with the exhaustive all-3-subsets oracle
        src = ks.keypoints.astype(np.float64)
        tgt = kt.keypoints.astype(np.float64)
        from linmatch.neighborhood import default_radius
        thr = fcfg.inlier_threshold_factor * default_radius(256, 256)
        oracle = exhaustive_affine_check(src, tgt, thr, fcfg.min_inliers)
        assert set(out.pairs[:, 0].tolist()) == oracle

    def test_subminimal_neighborhood_dropped(self):
        ks = KeypointSet(np.array([[1.0, 1.0], [5.0, 5.0]]), np.eye(2, dtype=np.float32),
                         10, 10)
        kt = KeypointSet(ks.keypoints.copy(), np.eye(2, dtype=np.float32), 10, 10)
        m = diagonal([0, 1])
        pair = NeighborhoodPair((0, 0), np.array([0, 1]), np.array([0, 1]))
        out = filter_matches(m, ks, kt, membership([pair]), FilterConfig(min_inliers=6))
        assert len(out) == 0

    def test_output_subset_of_input(self):
        rng = np.random.default_rng(3)
        ks, kt, m, neigh = self._affine_scene(rng, n=15, outlier_rows=(2, 9))
        out = filter_matches(m, ks, kt, neigh)
        assert pair_set(out) <= pair_set(m)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        ks, kt, m, neigh = self._affine_scene(rng, n=18, outlier_rows=(1, 4, 6))
        small = filter_matches(m, ks, kt, neigh,
                               FilterConfig(inlier_threshold_factor=0.05, rng_seed=7))
        large = filter_matches(m, ks, kt, neigh,
                               FilterConfig(inlier_threshold_factor=0.5, rng_seed=7))
        assert pair_set(small) <= pair_set(large)

    def test_collinear_neighborhood_has_no_survivors(self):
        n = 12
        src = np.column_stack([10 + 5.0 * np.arange(n), 20 + 5.0 * np.arange(n)])
        src[3] = src[2]  # a duplicate too
        ks = KeypointSet(src, np.eye(n), 256, 256)
        kt = KeypointSet(src + 3.0, np.eye(n), 256, 256)
        m = diagonal(np.arange(n))
        pair = NeighborhoodPair((0, 0), np.arange(n), np.arange(n))
        out = filter_matches(m, ks, kt, membership([pair]), FilterConfig(min_inliers=3))
        assert len(out) == 0
        # targets at the origin: a singular sample must not stand for the zero map
        at_origin = KeypointSet(np.full((n, 2), 0.25), np.eye(n), 256, 256)
        assert len(filter_matches(m, ks, at_origin, membership([pair]),
                                  FilterConfig(min_inliers=3))) == 0

    def test_neighborhood_order_does_not_matter(self):
        rng = np.random.default_rng(8)
        ks, kt, m, _ = self._affine_scene(rng, n=30, outlier_rows=(2, 5, 11, 17, 23, 29))
        neigh = []
        for seed in (0, 4, 9, 15, 20):
            members = np.union1d(rng.choice(30, size=12, replace=False), [seed])
            neigh.append(NeighborhoodPair((seed, seed), members, members))
        fcfg = FilterConfig(ransac_iterations=6, min_inliers=4, rng_seed=1)
        base = filter_matches(m, ks, kt, membership(neigh), fcfg)
        assert 0 < len(base) < len(m)
        for perm in ([4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            out = filter_matches(m, ks, kt, membership([neigh[p] for p in perm]), fcfg)
            assert same(out, base)

    @pytest.mark.parametrize("extra_first", [True, False])
    def test_matches_sharing_a_source_are_all_candidates(self, extra_first):
        """Six identity matches plus (0, 6): (0, 0) survives wherever (0, 6) is listed."""
        src = np.array([[10, 10], [60, 12], [20, 70], [80, 90], [45, 40], [90, 30]], float)
        ks = KeypointSet(src, np.eye(6), 128, 128)
        kt = KeypointSet(np.vstack([src, [[120, 5]]]), np.eye(7), 128, 128)
        identity = [(i, i) for i in range(6)]
        pairs = [(0, 6)] + identity if extra_first else identity + [(0, 6)]
        m = MatchSet(pairs, np.ones(7), ["candidate"] * 7)
        pair = NeighborhoodPair((0, 0), np.arange(6), np.arange(7))
        out = filter_matches(m, ks, kt, membership([pair]), FilterConfig(rng_seed=2))
        assert out.pairs.tolist() == [[i, i] for i in range(6)]

    def test_more_than_two_to_the_21_matches(self):
        """The match count has no cap; a raveled key of drawn triples once refused 2**21."""
        n = 2**21 + 1
        rng = np.random.default_rng(10)
        last = np.arange(n - 10, n)  # the neighborhood: indices past 2**21
        src = np.zeros((n, 2), dtype=np.float32)
        src[last] = rng.uniform(20, 200, size=(10, 2))
        tgt = src.copy()
        tgt[last] = src[last] @ np.array([[1.1, 0.1], [-0.05, 0.95]]).T + [7.0, 3.0]
        tgt[last[4]] += 40.0  # an outlier
        desc = np.zeros((n, 1), dtype=np.float32)
        ks, kt = KeypointSet(src, desc, 256, 256), KeypointSet(tgt, desc, 256, 256)
        pair = NeighborhoodPair((int(last[0]), int(last[0])), last, last)
        out = filter_matches(diagonal(np.arange(n)), ks, kt, membership([pair]),
                             FilterConfig(min_inliers=3))
        assert out.pairs[:, 0].tolist() == np.delete(last, 4).tolist()

    def test_rng_seed_beyond_64_bits(self):
        rng = np.random.default_rng(6)
        ks, kt, m, neigh = self._affine_scene(rng, n=25, outlier_rows=(3, 11, 20))
        for seed in (2**64 - 1, 2**64, 2**70):
            out = filter_matches(m, ks, kt, neigh, FilterConfig(rng_seed=seed))
            assert set(out.pairs[:, 0].tolist()) == set(range(25)) - {3, 11, 20}
        # the draws read the whole seed, not its low 64 bits
        assert not np.array_equal(_triples(2**70, [0], [25], 64), _triples(0, [0], [25], 64))

    def test_determinism_same_seed(self):
        rng = np.random.default_rng(6)
        ks, kt, m, neigh = self._affine_scene(rng, n=25, outlier_rows=(3, 11, 20))
        a = filter_matches(m, ks, kt, neigh, FilterConfig(rng_seed=9))
        b = filter_matches(m, ks, kt, neigh, FilterConfig(rng_seed=9))
        assert same(a, b)


class TestMatchPipeline:
    def _net(self, d=16, c=8):
        cfg = NetworkConfig(input_dim=d, hidden_dim=c, heads=2, l1=1, l2=1)
        return cfg, init_weights(cfg, seed=0, dtype=np.float64)

    def test_identity_grid_scene_full_recall(self):
        # spacing between R and sqrt(2) R: every match seeds its own dense
        # neighborhood, so nothing is stranded by suppression chains
        side = 7
        radius = 10.0
        spacing = 1.3 * radius
        pts = np.array([[5 + spacing * (k % side), 5 + spacing * (k // side)]
                        for k in range(side * side)], dtype=np.float32)
        dim = side * side
        frame = int(spacing * side + 10)
        desc = np.eye(dim, dtype=np.float32)
        ks = KeypointSet(pts, desc, frame, frame)
        kt = KeypointSet(pts.copy(), desc.copy(), frame, frame)
        gt = GroundTruth([(i, i) for i in range(dim)])

        cfg = NetworkConfig(input_dim=dim, hidden_dim=8, heads=2, l1=1, l2=1)
        weights = init_weights(cfg, seed=0, dtype=np.float64)
        ncfg = NeighborhoodConfig(r=radius, r_t=radius)
        out = match_pipeline(ks, kt, weights, cfg, ncfg,
                             fcfg=FilterConfig(min_inliers=3))
        res = evaluate(out, gt, Homography(np.eye(3)), ks, kt)
        assert res.recall == 1.0
        assert res.precision == 1.0

    def test_empty_source(self):
        cfg, weights = self._net()
        ks = KeypointSet(np.zeros((0, 2)), np.zeros((0, 16)), 100, 100)
        kt, _, _, _ = generate_pair(2, 16, (100, 100), 16)[1], None, None, None
        kt = generate_pair(2, 16, (100, 100), 16)[1]
        out = match_pipeline(ks, kt, weights, cfg)
        assert len(out) == 0

    def test_filter_improves_or_keeps_precision(self):
        cfg, weights = self._net()
        ks, kt, gt, h = generate_pair(3, 96, (256, 256), 16,
                                      GenNoiseConfig(desc_sigma=0.4, distractors=40))
        dm = match_pipeline(ks, kt, weights, cfg, skip_filter=True)
        filt = match_pipeline(ks, kt, weights, cfg,
                              fcfg=FilterConfig(min_inliers=3))
        if len(dm) and len(filt):
            p_dm = evaluate(dm, gt, h, ks, kt).precision
            p_f = evaluate(filt, gt, h, ks, kt).precision
            assert p_f >= p_dm - 1e-9

    def test_verified_subset_of_candidates(self):
        cfg, weights = self._net()
        ks, kt, _, _ = generate_pair(4, 64, (256, 256), 16,
                                     GenNoiseConfig(desc_sigma=0.3, distractors=20))
        dm = match_pipeline(ks, kt, weights, cfg, skip_filter=True)
        filt = match_pipeline(ks, kt, weights, cfg,
                              fcfg=FilterConfig(min_inliers=3))
        assert pair_set(filt) <= pair_set(dm)

    def test_production_path_builds_no_neighborhood_records(self, monkeypatch):
        """From the build through the pairwise layers and the filter, only the
        `Membership` arrays are read: no `NeighborhoodPair` view is made."""
        cfg = NetworkConfig(input_dim=32, hidden_dim=16, heads=2, l1=1, l2=1)
        weights = init_weights(cfg, seed=0)
        ks, kt, gt, _ = generate_pair(256, 256, (157, 157), cfg.input_dim,
                                      GenNoiseConfig(desc_sigma=0.02, jitter_sigma=0.5))

        def run():
            out = match_pipeline(ks, kt, weights, cfg)
            w64 = init_weights(cfg, seed=0, dtype=np.float64)
            loss, grads = loss_gradient(w64, (ks, kt, gt), cfg, LossConfig())
            return out, loss, [np.asarray(g) for _, g in grads.all_params()]

        want = run()

        def refuse(*args):
            raise AssertionError("a per-neighborhood record was made")

        monkeypatch.setattr(Membership, "__iter__", refuse, raising=False)
        monkeypatch.setattr(Membership, "__getitem__", refuse)
        with pytest.raises(AssertionError, match="record was made"):
            list(membership([NeighborhoodPair((0, 0), [0], [0])]))
        out, loss, grads = run()
        assert want[0].stage.count("verified") > 10  # the filter kept matches
        assert same(out, want[0]) and loss == want[1]
        assert all(np.array_equal(a, b) for a, b in zip(grads, want[2], strict=True))


class TestEvaluate:
    def _scene(self):
        pts = np.array([[10.0, 10.0], [20.0, 10.0], [30.0, 30.0], [40.0, 25.0]],
                       dtype=np.float32)
        ks = KeypointSet(pts, np.eye(4, dtype=np.float32), 64, 64)
        # target displaced by known per-match errors
        err = np.array([[0.5, 0.0], [2.0, 0.0], [4.0, 0.0], [20.0, 0.0]])
        kt = KeypointSet((pts + err).astype(np.float32), np.eye(4, dtype=np.float32),
                         64, 64)
        return ks, kt

    def test_constructed_errors(self):
        ks, kt = self._scene()
        m = diagonal(range(4), stage="verified")
        gt = GroundTruth([(0, 0), (1, 1)])
        res = evaluate(m, gt, Homography(np.eye(3)), ks, kt)
        assert res.mma[3] == 0.5  # errors 0.5 and 2 within 3 px; 4 and 20 beyond
        assert res.mma[1] == 0.25
        assert res.mma[10] == 0.75
        assert res.precision == 0.5
        assert res.recall == 1.0
        assert res.num_matches == 4
        assert res.inlier_ratio == res.mma[3]

    def test_all_correct(self):
        ks, _ = self._scene()
        m = diagonal(range(4), stage="verified")
        gt = GroundTruth([(i, i) for i in range(4)])
        res = evaluate(m, gt, Homography(np.eye(3)), ks, ks)
        assert all(v == 1.0 for v in res.mma.values())
        assert res.precision == res.recall == 1.0

    def test_empty_matchset(self):
        ks, kt = self._scene()
        res = evaluate(MatchSet([], [], []), GroundTruth([(0, 0)]), Homography(np.eye(3)),
                       ks, kt)
        assert res.num_matches == 0
        assert res.precision == 0.0
        assert all(v == 0.0 for v in res.mma.values())


class TestMatchSetType:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate match \(0, 1\)"):
            MatchSet([(0, 1), (0, 1)], [1.0, 2.0], ["seed", "seed"])

    def test_duplicate_row_of_an_array_rejected(self):
        pairs = np.array([[0, 1], [1, 0], [2, 1], [0, 2], [1, 0]])  # rows 1 and 4 repeat
        with pytest.raises(ValueError, match=r"duplicate match \(1, 0\)"):
            MatchSet(pairs, np.ones(5), ["candidate"] * 5)
        assert len(MatchSet(pairs[:4], np.ones(4), ["candidate"] * 4)) == 4

    def test_other_shapes_rejected(self):
        with pytest.raises(ValueError, match="rows of"):
            MatchSet(np.zeros((2, 3), dtype=np.intp), np.ones(2), ["seed"] * 2)
        with pytest.raises(ValueError, match="one score"):
            MatchSet([(0, 1), (1, 2)], np.ones(3), ["seed"] * 2)
        with pytest.raises(ValueError, match="one score"):
            MatchSet([(0, 1), (1, 2)], np.ones(2), ["seed"])

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            MatchSet([(0, 1)], [1.0], ["wild"])

    def test_filter_config_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(ransac_iterations=0)
        with pytest.raises(ValueError):
            FilterConfig(min_inliers=2)
        with pytest.raises(ValueError):
            FilterConfig(inlier_threshold_factor=0.0)


class TestMatchFiles:
    def test_round_trip(self, tmp_path):
        m = MatchSet([(0, 3), (2, 1), (4, 4)], [1.5, np.inf, 0.25],
                     ["seed", "candidate", "verified"])
        p = tmp_path / "m.csv"
        write_matches(p, m)
        assert p.read_text().splitlines() == ["i,j,score,stage", "0,3,1.5,seed",
                                              "2,1,inf,candidate", "4,4,0.25,verified"]
        loaded = read_matches(p)
        assert loaded.pairs.dtype == np.intp and same(loaded, m)

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_matches(p)

    def test_metrics_json(self, tmp_path):
        # two of four matches are true and on their projection; the other two are 14 px off
        pts = np.array([[10, 10], [20, 20], [30, 30], [40, 40]], dtype=np.float32)
        kpts = KeypointSet(pts, np.eye(4, dtype=np.float32), 64, 64)
        write_kpds(tmp_path / "k.kpds", kpts)
        write_ground_truth(tmp_path / "gt.csv", GroundTruth([(0, 0), (1, 1)]))
        write_homography(tmp_path / "h.txt", Homography(np.eye(3)))
        write_matches(tmp_path / "m.csv", MatchSet([(0, 0), (1, 1), (2, 3), (3, 2)],
                                                   np.ones(4), ["verified"] * 4))
        assert main(["eval", "--matches", str(tmp_path / "m.csv"),
                     "--source", str(tmp_path / "k.kpds"), "--target", str(tmp_path / "k.kpds"),
                     "--gt", str(tmp_path / "gt.csv"), "--homography", str(tmp_path / "h.txt"),
                     "-o", str(tmp_path)]) == 0
        import json
        loaded = json.loads((tmp_path / "metrics.json").read_text())
        assert loaded["mma"]["3"] == 0.5
        assert loaded["precision"] == 0.5
        assert loaded["num_matches"] == 4
        assert set(loaded) == {"mma", "precision", "recall", "num_matches", "inlier_ratio"}
