"""Scene generation, homography math, labeling oracle, and file round-trips."""

import tracemalloc

import numpy as np
import pytest

from linmatch import geometry
from linmatch.geometry import (
    GenNoiseConfig,
    GroundTruth,
    Homography,
    KeypointSet,
    apply_homography,
    generate_pair,
    label_correspondences,
    near_pairs,
    read_ground_truth,
    read_homography,
    read_kpds,
    write_ground_truth,
    write_homography,
    write_kpds,
)


def brute_force_labels(h, ks, kt):
    """Independent O(N*M) relabeling pass used as the oracle."""
    proj, valid = apply_homography(h, ks.keypoints)
    tpts = kt.keypoints.astype(np.float64)
    pairs = []
    if len(kt) == 0:
        return pairs
    for i in range(len(ks)):
        if not valid[i]:
            continue
        d_i = np.linalg.norm(tpts - proj[i], axis=1)
        j = int(np.argmin(d_i))
        d_j = np.linalg.norm(proj[valid] - tpts[j], axis=1)
        back = int(np.nonzero(valid)[0][np.argmin(d_j)])
        if back == i and d_i[j] < 3.0:
            pairs.append((i, j))
    return pairs


def as_tuples(gt):
    return sorted(map(tuple, gt.pairs.tolist()))


class TestHomography:
    def test_identity_fixed_point(self):
        h = Homography(np.eye(3))
        out, valid = apply_homography(h, [(3.0, 4.0)])
        np.testing.assert_allclose(out, [[3.0, 4.0]])
        assert valid.all()

    def test_translation(self):
        m = np.eye(3)
        m[0, 2] = 10.0
        out, _ = apply_homography(Homography(m), [(0.0, 0.0)])
        np.testing.assert_allclose(out, [[10.0, 0.0]])

    def test_scalar_formula_oracle(self):
        rng = np.random.default_rng(0)
        m = np.eye(3) + rng.standard_normal((3, 3)) * 0.1
        h = Homography(m)
        x, y = 17.3, 42.9
        out, _ = apply_homography(h, [(x, y)])
        hm = h.matrix
        w = hm[2, 0] * x + hm[2, 1] * y + hm[2, 2]
        expect = [(hm[0, 0] * x + hm[0, 1] * y + hm[0, 2]) / w,
                  (hm[1, 0] * x + hm[1, 1] * y + hm[1, 2]) / w]
        np.testing.assert_allclose(out[0], expect, rtol=1e-14)

    def test_round_trip_through_inverse(self):
        rng = np.random.default_rng(1)
        m = np.eye(3) + rng.standard_normal((3, 3)) * 0.05
        h = Homography(m)
        pts = rng.uniform(0, 100, size=(50, 2))
        fwd, _ = apply_homography(h, pts)
        back, _ = apply_homography(Homography(np.linalg.inv(h.matrix)), fwd)
        np.testing.assert_allclose(back, pts, atol=1e-6)

    def test_normalized_bottom_right(self):
        h = Homography(np.diag([2.0, 2.0, 2.0]))
        assert h.matrix[2, 2] == 1.0

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Homography(np.zeros((3, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value):
        m = np.eye(3)
        m[0, 2] = value
        with pytest.raises(ValueError, match="finite"):
            Homography(m)

    def test_vanishing_w_flagged(self):
        m = np.eye(3)
        m[2, :] = [1.0, 0.0, 0.0]  # w = x; goes through zero at x=0
        m[2, 2] = 1e-30
        with pytest.raises(ValueError):
            Homography(m)  # not normalizable
        m2 = np.array([[1.0, 0, 0], [0, 1, 0], [-1.0, 0, 1.0]])  # w = 1 - x
        out, valid = apply_homography(Homography(m2), [(1.0, 5.0), (0.5, 0.5)])
        assert not valid[0] and valid[1]
        assert np.isinf(out[0]).all()


class TestKeypointSet:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            KeypointSet(np.zeros((3, 2)), np.zeros((4, 8)), 10, 10)

    def test_out_of_frame_rejected(self):
        with pytest.raises(ValueError):
            KeypointSet(np.array([[10.0, 5.0]]), np.zeros((1, 4)), 10, 10)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            KeypointSet(np.zeros((0, 2)), np.zeros((0, 4)), 0, 10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_keypoint_rejected(self, value):
        with pytest.raises(ValueError):
            KeypointSet(np.array([[1.0, 2.0], [3.0, value]]), np.zeros((2, 4)), 10, 10)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_descriptor_rejected(self, value):
        desc = np.zeros((2, 4))
        desc[1, 2] = value
        with pytest.raises(ValueError):
            KeypointSet(np.array([[1.0, 2.0], [3.0, 4.0]]), desc, 10, 10)


class TestGroundTruthType:
    def test_partial_bijection_enforced(self):
        with pytest.raises(ValueError):
            GroundTruth([(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            GroundTruth([(0, 1), (2, 1)])

    @pytest.mark.parametrize("pairs", [[(0, 1, 2)], [0, 1], [[0]], np.zeros((2, 2, 2))])
    def test_pairs_must_be_k_by_2(self, pairs):
        with pytest.raises(ValueError):
            GroundTruth(pairs)

    def test_pairs_are_an_index_array(self):
        for pairs, k in (([(0, 3), (2, 1)], 2), ([], 0)):
            gt = GroundTruth(pairs)
            assert gt.pairs.shape == (k, 2) and gt.pairs.dtype == np.intp


class TestGeneratePair:
    def test_deterministic(self):
        a = generate_pair(9, 64, (320, 240), 16)
        b = generate_pair(9, 64, (320, 240), 16)
        np.testing.assert_array_equal(a[0].keypoints, b[0].keypoints)
        np.testing.assert_array_equal(a[1].descriptors, b[1].descriptors)
        np.testing.assert_array_equal(a[2].pairs, b[2].pairs)
        np.testing.assert_array_equal(a[3].matrix, b[3].matrix)

    def test_noiseless_covers_all_survivors(self):
        ks, kt, gt, h = generate_pair(7, 128, (320, 240), 16, GenNoiseConfig())
        # every target keypoint is a projected survivor, so all must be matched
        np.testing.assert_array_equal(np.sort(gt.pairs[:, 1]), np.arange(len(kt)))

    def test_identity_homography_pairs_are_diagonal(self):
        ks, kt, gt, h = generate_pair(3, 64, (100, 100), 8,
                                      homography=Homography(np.eye(3)))
        np.testing.assert_array_equal(gt.pairs, [(i, i) for i in range(64)])

    def test_jittered_pairs_match_brute_force_oracle(self):
        ks, kt, gt, h = generate_pair(7, 128, (320, 240), 16,
                                      GenNoiseConfig(jitter_sigma=5.0, distractors=20))
        assert as_tuples(gt) == sorted(brute_force_labels(h, ks, kt))
        # jitter of 5 px must push a decent share of pairs past the cutoff
        assert 0 < len(gt.pairs) < len(kt) - 20

    def test_label_soundness(self):
        ks, kt, gt, h = generate_pair(11, 96, (320, 240), 8,
                                      GenNoiseConfig(jitter_sigma=2.0, distractors=10))
        proj, valid = apply_homography(h, ks.keypoints)
        for i, j in gt.pairs:
            assert valid[i]
            d = np.linalg.norm(proj[i] - kt.keypoints[j].astype(np.float64))
            assert d < 3.0
        # unmatchable (in no pair) means no mutual-NN partner under 3 px
        unmatched = np.setdiff1d(np.arange(len(ks)), gt.pairs[:, 0])
        assert unmatched.size > 0
        oracle = dict(brute_force_labels(h, ks, kt))
        for i in unmatched.tolist():
            assert i not in oracle

    def test_min_matches_resamples(self):
        ks, kt, gt, h = generate_pair(5, 32, (320, 240), 8,
                                      GenNoiseConfig(jitter_sigma=6.0), min_matches=6)
        assert len(gt.pairs) >= 6
        # the first attempt for this seed falls short, so resampling must kick in
        first = generate_pair(5, 32, (320, 240), 8, GenNoiseConfig(jitter_sigma=6.0))
        assert len(first[2].pairs) < 6

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            generate_pair(0, 8, (0, 240), 8)

    def test_distractor_count(self):
        ks, kt, gt, h = generate_pair(13, 50, (320, 240), 8,
                                      GenNoiseConfig(distractors=17))
        n_survivors = len(kt) - 17
        assert len(gt.pairs) == n_survivors


class TestLabelCorrespondences:
    def test_matches_brute_force_on_random_scenes(self):
        for seed in range(5):
            ks, kt, gt, h = generate_pair(seed, 80, (256, 256), 4,
                                          GenNoiseConfig(jitter_sigma=3.0, distractors=15))
            assert as_tuples(gt) == sorted(brute_force_labels(h, ks, kt))

    def test_empty_target(self):
        ks = KeypointSet(np.array([[1.0, 1.0]]), np.zeros((1, 4)), 10, 10)
        kt = KeypointSet(np.zeros((0, 2)), np.zeros((0, 4)), 10, 10)
        gt = label_correspondences(Homography(np.eye(3)), ks, kt)
        assert gt.pairs.shape == (0, 2) and gt.pairs.dtype == np.intp

    def test_exact_ties_go_to_the_lower_index(self):
        eye = Homography(np.eye(3))
        # source 0 is 1 px from targets 0 and 1, so target 0 is its nearest
        ks = KeypointSet(np.array([[5.0, 5.0]]), np.zeros((1, 4)), 10, 10)
        kt = KeypointSet(np.array([[4.0, 5.0], [6.0, 5.0]]), np.zeros((2, 4)), 10, 10)
        assert as_tuples(label_correspondences(eye, ks, kt)) == [(0, 0)]
        assert as_tuples(label_correspondences(eye, kt, ks)) == [(0, 0)]  # and source 0, seen back
        # target 1 sits between sources 1 and 2 and takes source 1; source 0 keeps target 0
        ks = KeypointSet(np.array([[1.0, 1.0], [4.0, 5.0], [6.0, 5.0]]), np.zeros((3, 4)), 10, 10)
        kt = KeypointSet(np.array([[1.0, 2.0], [5.0, 5.0]]), np.zeros((2, 4)), 10, 10)
        gt = label_correspondences(eye, ks, kt)
        assert as_tuples(gt) == [(0, 0), (1, 1)] == sorted(brute_force_labels(eye, ks, kt))

    def test_projections_far_outside_the_frame(self):
        # a strong perspective term throws part of the source far away, or behind the camera
        h = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.004, 0.0, 0.6]]))
        for seed in range(3):
            ks, kt, gt, _ = generate_pair(seed, 200, (320, 240), 4, homography=h,
                                          noise=GenNoiseConfig(jitter_sigma=1.0, distractors=30))
            proj, _ = apply_homography(h, ks.keypoints)
            assert (np.abs(proj) > 1e3).any() and len(gt.pairs) > 0
            assert as_tuples(gt) == sorted(brute_force_labels(h, ks, kt))


def brute_force_near(p, q, radius, upper):
    """Every (i, j) with |p[i] - q[j]|^2 <= radius^2, summed in float64 as near_pairs does."""
    with np.errstate(all="ignore"):  # inf - inf, and far-but-finite points overflowing
        d = ((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
    near = d <= radius * radius
    return set(zip(*np.nonzero(np.triu(near, 1) if upper else near)))


def near_cases():
    """(p, q, radius): uniform, clustered, integer grids with pairs at exactly the
    radius, far-but-finite outliers with non-finite points, empty and one-point sets."""
    rng = np.random.default_rng(31)
    for case in range(60):
        n, m = int(rng.integers(1, 90)), int(rng.integers(1, 90))
        kind = case % 4
        if kind == 0:
            p, q, r = rng.uniform(0, 200, (n, 2)), rng.uniform(0, 200, (m, 2)), rng.uniform(1, 40)
        elif kind == 1:
            centers = rng.uniform(0, 500, (3, 2))
            p = centers[rng.integers(3, size=n)] + rng.normal(0, 2, (n, 2))
            q = centers[rng.integers(3, size=m)] + rng.normal(0, 2, (m, 2))
            r = rng.uniform(0.5, 8)
        elif kind == 2:  # 3-4-5 triangles put pairs exactly at radius 5
            p, q, r = rng.integers(0, 16, (n, 2)) * 1.0, rng.integers(0, 16, (m, 2)) * 1.0, 5.0
        else:
            p, q, r = rng.uniform(-50, 50, (n, 2)), rng.uniform(-50, 50, (m, 2)), rng.uniform(2, 20)
            p[: n // 4] = rng.choice([1e9, -3e15, 1.5e308, 1e300], size=(n // 4, 2))
            q[: m // 4] = rng.choice([1e9, -3e15, 1.5e308, 1e300], size=(m // 4, 2))
            p[n // 4: n // 3, 0], q[m // 4: m // 3, 1] = np.nan, np.inf
        yield p, q, float(r)
    yield np.zeros((0, 2)), np.ones((3, 2)), 1.0
    yield np.ones((3, 2)), np.zeros((0, 2)), 1.0
    yield np.zeros((1, 2)), np.zeros((1, 2)), 1.0
    yield np.array([[1e300, 1e300], [1e300, 1e300], [-1e300, -1e300]]), np.zeros((1, 2)), 1.0


class TestNearPairs:
    @pytest.mark.parametrize("all_pairs", [0, geometry._ALL_PAIRS])  # the search, and small inputs
    @pytest.mark.parametrize("upper", [False, True])
    def test_superset_of_pairs_within_radius(self, monkeypatch, all_pairs, upper):
        """Exactly the pairs within the radius: the superset, and nothing farther."""
        monkeypatch.setattr(geometry, "_ALL_PAIRS", all_pairs)
        for p, q, r in near_cases():
            q = p if upper else q
            i, j = near_pairs(p, q, r, upper=upper)
            assert i.dtype == j.dtype == np.intp
            got = list(zip(i.tolist(), j.tolist()))
            if upper:  # each unordered pair once, never a point with itself
                assert (i != j).all()
                got = [(min(a, b), max(a, b)) for a, b in got]
            assert len(set(got)) == len(got)
            assert set(got) == brute_force_near(p, q, r, upper)
            # a non-finite point pairs with nothing
            assert np.isfinite(p[i]).all() and np.isfinite(q[j]).all()

    def test_search_scratch_is_linear_in_points_plus_pairs(self, monkeypatch):
        monkeypatch.setattr(geometry, "_ALL_PAIRS", 0)
        pts = np.random.default_rng(5).uniform(0, 600, (3000, 2))
        for upper in (True, False):  # 45k pairs with upper, 94k without; all would be 9M
            tracemalloc.start()
            try:
                i, _ = near_pairs(pts, pts, 35.0, upper=upper)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(i) > 40_000 and peak <= 128 * (len(pts) + len(i))  # about 62 here

    def test_small_inputs_return_every_pair(self):
        """Every pair within the radius, and only those, on the all-pairs path."""
        p = np.array([[0.0, 0.0], [100.0, 0.0], [np.nan, 0.0], [0.0, 100.0], [0.6, 0.8]])
        i, j = near_pairs(p, p, 1.0, upper=True)
        assert sorted(zip(i.tolist(), j.tolist())) == [(0, 4)]  # (0, 4) at exactly the radius
        i, j = near_pairs(p[:2], p, 1.0)
        assert sorted(zip(i.tolist(), j.tolist())) == [(0, 0), (0, 4), (1, 1)]

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError):
            near_pairs(np.zeros((2, 2)), np.zeros((2, 2)), radius)

    def test_upper_needs_one_point_set(self):
        p = np.zeros((2, 2))
        with pytest.raises(ValueError):
            near_pairs(p, p.copy(), 1.0, upper=True)


class TestFileFormats:
    def test_kpds_round_trip(self, tmp_path):
        ks, _, _, _ = generate_pair(21, 40, (640, 480), 32)
        p = tmp_path / "a.kpds"
        write_kpds(p, ks)
        loaded = read_kpds(p)
        np.testing.assert_array_equal(loaded.keypoints, ks.keypoints)
        np.testing.assert_array_equal(loaded.descriptors, ks.descriptors)
        assert (loaded.width, loaded.height) == (640, 480)

    def test_kpds_bytes_stable_across_rewrites(self, tmp_path):
        ks, _, _, _ = generate_pair(22, 40, (640, 480), 32)
        p1, p2 = tmp_path / "a.kpds", tmp_path / "b.kpds"
        write_kpds(p1, ks)
        write_kpds(p2, read_kpds(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_kpds_bad_magic(self, tmp_path):
        p = tmp_path / "bad.kpds"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError):
            read_kpds(p)

    def test_ground_truth_round_trip(self, tmp_path):
        gt = GroundTruth([(0, 3), (2, 1), (5, 5)])
        p = tmp_path / "gt.csv"
        write_ground_truth(p, gt)
        assert p.read_text() == "0,3\n2,1\n5,5\n"
        loaded = read_ground_truth(p)
        np.testing.assert_array_equal(loaded.pairs, gt.pairs)
        assert loaded.pairs.dtype == np.intp

    def test_homography_round_trip(self, tmp_path):
        _, _, _, h = generate_pair(33, 8, (320, 240), 4)
        p = tmp_path / "h.txt"
        write_homography(p, h)
        loaded = read_homography(p)
        np.testing.assert_array_equal(loaded.matrix, h.matrix)

    def test_homography_bad_count(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            read_homography(p)
