"""Feature-distance matching and local-affine verification.

`match_pipeline` encodes a pair, then runs the ratio matcher on the final
descriptors, picks locally best seeds, grows candidate neighborhoods around
them, and takes the union of all neighborhood members as candidates (seeds
keep their own tag).

`filter_matches` then verifies all neighborhoods in one batched pass:
repeated 3-correspondence minimal samples fit an exact affine transform,
candidates within `inlier_threshold_factor * R_t` of their prediction count
as inliers, and the first best model in draw order keeps its inliers when
there are at least `min_inliers`.  There is no refitting step; a match kept
by any neighborhood survives.  Candidates are the matches whose (source,
target) pair lies in a neighborhood's two sets, looked up for all at once in
the `Membership` rows.  Each neighborhood draws from its own RNG stream,
seeded by (rng_seed, seed source index), so neighborhood order does not
matter.  A triple of match positions drawn again is the same LAPACK input,
so each distinct hypothesis is solved once, and residuals come from the same
(k, 3) @ (3, 2) products and arithmetic as one neighborhood at a time would
use: survivors are bit-identical to that loop.  Runs single-threaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .attention import Membership
from .encoder import EncodedPair, NetworkConfig, NetworkWeights, forward
from .geometry import GroundTruth, Homography, KeypointSet, apply_homography, require_int
# the benchmark's tracer patches ratio_match, select_seeds and build_neighborhoods here
from .neighborhood import (
    NeighborhoodConfig,
    build_neighborhoods,
    default_radius,
    ratio_match,
    select_seeds,
)

_STAGES = ("seed", "candidate", "verified")
_SCORE_ENTRIES = 1 << 16  # residuals per scoring table (or one draw of a size group)
_MMA_THRESHOLDS_PX = tuple(range(1, 11))


@dataclass
class MatchSet:
    """Scored index pairs, each tagged with the pipeline stage that produced it."""

    # lists, not arrays: the benchmark's determinism check compares `matches` with !=
    matches: list  # of (source_index, target_index, score)
    stage: list  # of str, aligned with matches

    def __post_init__(self):
        if len(self.matches) != len(self.stage):
            raise ValueError("one stage tag per match required")
        seen = set()
        for (i, j, _), s in zip(self.matches, self.stage):
            if s not in _STAGES:
                raise ValueError(f"unknown stage {s!r}")
            if (i, j) in seen:
                raise ValueError(f"duplicate match ({i}, {j})")
            seen.add((i, j))

    def __len__(self):
        return len(self.matches)

    def pairs(self):
        return [(i, j) for i, j, _ in self.matches]


@dataclass
class FilterConfig:
    ransac_iterations: int = 128
    inlier_threshold_factor: float = 0.15  # fraction of R_t
    min_inliers: int = 6
    rng_seed: int = 0

    def __post_init__(self):
        for name, low in (("ransac_iterations", 1), ("min_inliers", 3), ("rng_seed", 0)):
            require_int(name, getattr(self, name), low)
        if not self.inlier_threshold_factor > 0:  # written so that NaN fails too
            raise ValueError("threshold factor must be positive")


@dataclass
class Metrics:
    mma: dict  # threshold px (1..10) -> fraction of matches within it
    precision: float
    recall: float
    num_matches: int
    inlier_ratio: float  # convention: the 3 px entry of mma


# the benchmark's tracer times this stage under this name
def _candidates(enc: EncodedPair, ks: KeypointSet, kt: KeypointSet,
                cfg: NeighborhoodConfig):
    """Candidate matches from final descriptors: (MatchSet, the neighborhoods' Membership)."""
    cfg = cfg.resolved_pair((ks.width, ks.height), (kt.width, kt.height))
    m = ratio_match(enc.xs_hat, enc.xt_hat, cfg.theta)
    seeds = select_seeds(m, ks.keypoints, cfg.r)
    neighborhoods = build_neighborhoods(seeds, m, ks.keypoints, kt.keypoints, cfg)

    src = m.matches[:, 0]
    ordered = np.flatnonzero(np.isin(src, neighborhoods.source.rows))
    i, j = m.matches[ordered].T.tolist()
    matches = list(zip(i, j, m.ratio_score[ordered].tolist()))
    stages = np.where(np.isin(src[ordered], src[seeds]), "seed", "candidate").tolist()
    return MatchSet(matches, stages), neighborhoods


def _sample_triples(rng, k, count):
    """`count` uniform 3-subsets of range(k) in one draw (Floyd's algorithm)."""
    return _distinct(rng.integers(0, [k - 2, k - 1, k], size=(count, 3)), k)


def _distinct(draws, k):
    """Floyd's fix-ups: rows drawn below (k - 2, k - 1, k) as distinct triples; k may be per row."""
    a, b, c = draws.T
    b = np.where(b == a, k - 2, b)
    c = np.where((c == a) | (c == b), k - 1, c)
    return np.stack([a, b, c], axis=1)


def _residual(h, c, t):
    """|h @ c - t| over the last (x, y) axis, bit for bit as np.linalg.norm gives it."""
    dx, dy = np.moveaxis(h @ c - t, -1, 0)
    return np.sqrt(dx * dx + dy * dy)


def filter_matches(m: MatchSet, ks: KeypointSet, kt: KeypointSet, members: Membership,
                   fcfg: FilterConfig | None = None, r_t: float | None = None) -> MatchSet:
    """Keep matches that are affine-consistent inliers in any of the `members` neighborhoods."""
    fcfg = fcfg or FilterConfig()
    if r_t is None:
        r_t = default_radius(kt.width, kt.height)
    threshold = fcfg.inlier_threshold_factor * r_t
    idx = np.array([(i, j) for i, j, _ in m.matches], dtype=np.intp).reshape(-1, 2)
    # every source member's matches, in set order, kept where (neighborhood, target) is a
    # target member; the keys are raveled index pairs, which rejects an out-of-range index
    by_src = np.argsort(idx[:, 0], kind="stable")
    lo = np.searchsorted(idx[by_src, 0], members.source.rows, "left")
    hits = np.searchsorted(idx[by_src, 0], members.source.rows, "right") - lo
    cand = by_src[np.repeat(lo - np.cumsum(hits) + hits, hits) + np.arange(hits.sum())]
    seg = np.repeat(members.source.ids, hits)  # each candidate's neighborhood
    key = lambda s, j: np.ravel_multi_index((s, j), (len(members), len(kt)))
    inside = np.isin(key(seg, idx[cand, 1]), key(members.target.ids, members.target.rows))
    cand, seg = cand[inside], seg[inside]  # match positions, grouped by neighborhood
    sizes = np.bincount(seg, minlength=len(members))
    starts = np.cumsum(sizes) - sizes
    hom = np.column_stack([ks.keypoints[idx[cand, 0]], np.ones(len(cand))])  # float64
    tgt = kt.keypoints[idx[cand, 1]].astype(np.float64)

    live, iters = np.flatnonzero(sizes >= 3), fcfg.ransac_iterations  # others never reach 3 inliers
    draws = np.concatenate([np.zeros((0, 3), dtype=np.intp)] + [  # one stream per neighborhood
        np.random.default_rng([fcfg.rng_seed, members.seeds[s, 0]]).integers(
            0, [sizes[s] - 2, sizes[s] - 1, sizes[s]], size=(iters, 3)) for s in live])
    owner = np.repeat(live, iters)  # each draw's neighborhood
    draws = _distinct(draws, sizes[owner]) + starts[owner, None]  # candidate rows
    # a triple of match positions drawn again, in any neighborhood, is the same LAPACK input;
    # its raveled key limits a call to 2**21 - 1 matches (ravel_multi_index refuses more)
    _, once, inverse = np.unique(np.ravel_multi_index(cand[draws].T, (len(m),) * 3),
                                 return_index=True, return_inverse=True)
    # a singular system makes the batched solve raise, so it keeps NaN maps: never an inlier
    fit = np.abs(np.linalg.det(hom[draws[once]])) >= 1e-9
    coef = np.full((len(once), 3, 2), np.nan)
    coef[fit] = np.linalg.solve(hom[draws[once[fit]]], tgt[draws[once[fit]]])
    coef = coef[inverse].reshape(len(live), iters, 3, 2)  # each draw's affine map

    kept = np.zeros(len(m), dtype=bool)
    for k in np.unique(sizes[live]):  # neighborhoods of k candidates score together
        same = np.flatnonzero(sizes[live] == k)
        rows = starts[live[same], None] + np.arange(k)
        h, t, c = hom[rows], tgt[rows], coef[same]
        step = max(1, _SCORE_ENTRIES // (len(same) * k))  # draws per residual table
        count = np.concatenate([(_residual(h[:, None], c[:, d:d + step], t[:, None])
                                 <= threshold).sum(axis=2)
                                for d in range(0, iters, step)], axis=1)
        g = count.argmax(axis=1)  # the first best in draw order, as a sequential loop takes
        won = count[np.arange(len(same)), g] >= fcfg.min_inliers
        kept[cand[rows[won][_residual(h[won], c[won, g[won]], t[won]) <= threshold]]] = True
    ordered = np.flatnonzero(kept)
    return MatchSet([m.matches[pos] for pos in ordered], ["verified"] * len(ordered))


def match_pipeline(ks: KeypointSet, kt: KeypointSet, weights: NetworkWeights,
                   cfg: NetworkConfig, neigh_cfg: NeighborhoodConfig | None = None,
                   fcfg: FilterConfig | None = None,
                   skip_filter: bool = False) -> MatchSet:
    """forward -> candidates -> filter_matches (optionally skipping the filter)."""
    neigh_cfg = neigh_cfg or NeighborhoodConfig()
    enc = forward(ks, kt, weights, cfg, neigh_cfg)
    candidates, neighborhoods = _candidates(enc, ks, kt, neigh_cfg)
    if skip_filter:
        return candidates
    return filter_matches(candidates, ks, kt, neighborhoods, fcfg, r_t=neigh_cfg.r_t)


def evaluate(m: MatchSet, gt: GroundTruth, h: Homography, ks: KeypointSet,
             kt: KeypointSet) -> Metrics:
    """Reprojection accuracy and ground-truth precision/recall.

    Conventions: an empty match set reports 0 for every accuracy number;
    an empty ground truth makes recall vacuously 1.
    """
    if ((gt.pairs < 0) | (gt.pairs >= (len(ks), len(kt)))).any():
        raise ValueError("ground-truth index out of range of the keypoint sets")
    n, truth = len(m), len(gt.pairs)
    if n == 0:
        mma = {t: 0.0 for t in _MMA_THRESHOLDS_PX}
        return Metrics(mma, 0.0, 0.0 if truth else 1.0, 0, 0.0)
    try:
        idx = np.array(m.pairs(), dtype=np.intp)
    except OverflowError:  # an index beyond intp is out of range too
        idx = np.full((1, 2), -1)
    if ((idx < 0) | (idx >= (len(ks), len(kt)))).any():
        raise ValueError("match index out of range of the keypoint sets")
    src_idx, tgt_idx = idx.T
    proj, valid = apply_homography(h, ks.keypoints[src_idx])
    tgt_pts = kt.keypoints[tgt_idx].astype(np.float64)
    err = np.where(valid, np.linalg.norm(proj - tgt_pts, axis=1), np.inf)
    mma = {t: float((err <= t).mean()) for t in _MMA_THRESHOLDS_PX}
    partner = np.full(len(ks), -1, dtype=np.intp)  # source index -> its true target
    partner[gt.pairs[:, 0]] = gt.pairs[:, 1]
    hits = int(np.count_nonzero(partner[src_idx] == tgt_idx))  # a MatchSet has no duplicates
    precision = hits / n
    recall = hits / truth if truth else 1.0
    return Metrics(mma, precision, recall, n, mma[3])


def write_matches(path, m: MatchSet) -> None:
    with open(path, "w") as f:
        f.write("i,j,score,stage\n")
        for (i, j, score), stage in zip(m.matches, m.stage):
            f.write(f"{i},{j},{repr(float(score))},{stage}\n")


def read_matches(path) -> MatchSet:
    matches, stages = [], []
    with open(path) as f:
        header = f.readline().strip()
        if header != "i,j,score,stage":
            raise ValueError(f"unexpected header {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            i, j, score, stage = line.split(",")
            matches.append((int(i), int(j), float(score)))
            stages.append(stage)
    return MatchSet(matches, stages)


def write_metrics(path, metrics: Metrics) -> None:
    payload = {
        "mma": {str(t): v for t, v in sorted(metrics.mma.items())},
        "precision": metrics.precision,
        "recall": metrics.recall,
        "num_matches": metrics.num_matches,
        "inlier_ratio": metrics.inlier_ratio,
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
