"""The radius searches against SciPy's k-d tree, where SciPy is installed.

linmatch does not depend on SciPy.  These are the `cKDTree` formulations that
`label_correspondences`, `select_seeds` and `build_neighborhoods` used before
`geometry.near_pairs` replaced them, kept as independent oracles.  On exact
distance ties the tree's nearest neighbour is its own choice, so the label
scenes here are tie-free; the lower-index tie rule is tested in
`test_geometry.py`.
"""

import warnings

import numpy as np
import pytest

from linmatch.geometry import (
    LABEL_DISTANCE_PX,
    GenNoiseConfig,
    GroundTruth,
    Homography,
    apply_homography,
    generate_pair,
    label_correspondences,
)
from linmatch.neighborhood import (
    NeighborhoodConfig,
    RatioMatchSet,
    build_neighborhoods,
    select_seeds,
)

cKDTree = pytest.importorskip("scipy.spatial").cKDTree


def kdtree_labels(h, ks, kt):
    proj, valid = apply_homography(h, ks.keypoints)
    vidx = np.flatnonzero(valid)
    if vidx.size == 0 or len(kt) == 0:
        return GroundTruth([])
    tpts = kt.keypoints.astype(np.float64)
    d_st, nn_st = cKDTree(tpts).query(proj[vidx])  # nearest target for each projection
    _, nn_ts = cKDTree(proj[vidx]).query(tpts)  # nearest projection for each target
    mutual = (nn_ts[nn_st] == np.arange(vidx.size)) & (d_st < LABEL_DISTANCE_PX)
    return GroundTruth(np.column_stack([vidx[mutual], nn_st[mutual]]))


def kdtree_seeds(m, source_keypoints, radius):
    src_idx, scores = m.matches[:, 0], m.ratio_score
    pts = np.asarray(source_keypoints, dtype=np.float64)[src_idx]
    finite = np.flatnonzero(np.isfinite(pts).all(axis=1))
    pairs = cKDTree(pts[finite]).query_pairs(radius * (1 + 1e-9), output_type="ndarray")
    a, b = finite[pairs[:, 0]], finite[pairs[:, 1]]
    near = ((pts[a] - pts[b]) ** 2).sum(axis=1) <= radius * radius
    a, b = a[near], b[near]

    def outranks(x, y):
        return (scores[x] > scores[y]) | ((scores[x] == scores[y]) & (src_idx[x] < src_idx[y]))

    suppressed = np.zeros(len(m), dtype=bool)
    suppressed[a[outranks(b, a)]] = True
    suppressed[b[outranks(a, b)]] = True
    keep = np.flatnonzero(~suppressed)
    return keep[np.argsort(src_idx[keep], kind="stable")]


def kdtree_neighborhoods(seeds, m, source_keypoints, target_keypoints, cfg):
    """[(seed, source set, target set)] in seed order."""
    seeds = np.asarray(seeds, dtype=np.intp)
    src_idx, tgt_idx = m.matches.T
    sp = np.asarray(source_keypoints, dtype=np.float64)[src_idx]
    tp = np.asarray(target_keypoints, dtype=np.float64)[tgt_idx]
    seeds = seeds[np.isfinite(sp[seeds]).all(axis=1) & np.isfinite(tp[seeds]).all(axis=1)]
    finite = np.flatnonzero(np.isfinite(sp).all(axis=1))
    near = cKDTree(sp[seeds]).sparse_distance_matrix(
        cKDTree(sp[finite]), cfg.lam * cfg.r * (1 + 1e-9), output_type="ndarray")
    row, pos = near["i"], finite[near["j"]]
    ds = ((sp[pos] - sp[seeds[row]]) ** 2).sum(axis=1)
    dt = ((tp[pos] - tp[seeds[row]]) ** 2).sum(axis=1)
    member = (ds <= (cfg.lam * cfg.r) ** 2) & (dt <= (cfg.lam * cfg.r_t) ** 2)
    return [((int(src_idx[s]), int(tgt_idx[s])), np.sort(src_idx[pos[member & (row == k)]]),
             np.sort(tgt_idx[pos[member & (row == k)]])) for k, s in enumerate(seeds)]


def random_matches(rng):
    """Matches over random keypoints with tied scores and some NaN or inf points."""
    n_s, n_t = int(rng.integers(1, 400)), int(rng.integers(1, 400))
    side = rng.uniform(50, 800)
    ks = rng.uniform(0, side, (n_s, 2))
    kt = rng.uniform(0, side, (n_t, 2))
    if rng.random() < 0.5:  # integer grids: pairs at exactly the radius
        ks, kt = np.floor(ks / 8), np.floor(kt / 8)
    for pts in (ks, kt):
        bad = rng.random(len(pts)) < 0.05
        pts[bad, rng.integers(2)] = rng.choice([np.nan, np.inf, -np.inf])
    n = int(rng.integers(0, min(n_s, n_t) + 1))
    matches = np.column_stack([rng.permutation(n_s)[:n], rng.permutation(n_t)[:n]])
    scores = rng.choice([1.0, 1.5, 2.0, np.inf], size=n) if rng.random() < 0.5 \
        else rng.uniform(1, 3, size=n)
    return ks, kt, RatioMatchSet(matches, scores)


def test_seeds_and_neighborhoods_match_kdtree():
    rng = np.random.default_rng(2026)
    for case in range(250):
        ks, kt, m = random_matches(rng)
        r = float(rng.choice([1.0, 5.0, rng.uniform(2, 60)]))
        cfg = NeighborhoodConfig(lam=float(rng.uniform(0.5, 3)), r=r,
                                 r_t=float(rng.uniform(2, 60)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from non-finite points
            seeds = select_seeds(m, ks, r)
            got = build_neighborhoods(seeds, m, ks, kt, cfg)
        np.testing.assert_array_equal(seeds, kdtree_seeds(m, ks, r), err_msg=str(case))
        want = [w for w in kdtree_neighborhoods(seeds, m, ks, kt, cfg) if len(w[1])]
        assert [p.seed for p in got] == [w[0] for w in want], case
        for p, (_, src, tgt) in zip(got, want):
            np.testing.assert_array_equal(p.source_set, src)
            np.testing.assert_array_equal(p.target_set, tgt)


def test_labels_match_kdtree():
    rng = np.random.default_rng(2027)
    for case in range(220):
        dims = tuple(int(v) for v in rng.integers(16, 700, size=2))
        h = None
        if case % 4 == 0:  # a perspective term that throws points far away
            h = Homography(np.array([[1.0, 0.1, 5.0], [0.0, 1.0, 0.0],
                                     [rng.uniform(-4, 4) / dims[0], 0.0, 1.0]]))
        noise = GenNoiseConfig(jitter_sigma=float(rng.choice([0.0, 0.5, 3.0])),
                               distractors=int(rng.integers(0, 60)))
        ks, kt, gt, h = generate_pair(case, int(rng.integers(1, 300)), dims, 4, noise, h)
        np.testing.assert_array_equal(gt.pairs, kdtree_labels(h, ks, kt).pairs,
                                      err_msg=str(case))
        np.testing.assert_array_equal(label_correspondences(h, ks, kt).pairs, gt.pairs)
