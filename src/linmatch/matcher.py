"""Feature-distance matching and local-affine verification.

A `MatchSet` is a (k, 2) index array of (source, target) rows, a score array
and one stage tag per row; every stage slices the arrays.

`match_pipeline` encodes a pair, then runs the neighborhood chain
(`encoder.neighborhoods`: ratio matches, locally best seeds, their
neighborhoods, under radii it resolves itself) on the final descriptors and
takes the ratio matches of all neighborhood members as candidates (seeds
keep their own tag).

`filter_matches` then verifies all neighborhoods in one batched pass:
repeated 3-correspondence minimal samples fit an exact affine transform,
candidates within `inlier_threshold_factor * R_t` of their prediction count
as inliers, and the first best model in draw order keeps its inliers when
there are at least `min_inliers`.  A neighborhood with fewer candidates than
that can never win, so it draws no samples.  There is no refitting step; a
match kept by any neighborhood survives.  Candidates are the matches whose
(source, target) pair lies in a neighborhood's two sets.  A neighborhood's
samples are a counter hash of (rng_seed, its seed source index, draw), so they
do not depend on neighborhood order, and all are solved at once in closed form.
Survivors equal those of verifying one neighborhood and one sample at a time
with the same draws and arithmetic.  Runs single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import Membership
from .encoder import EncodedPair, NetworkConfig, NetworkWeights, forward, neighborhoods
from .geometry import GroundTruth, Homography, KeypointSet, apply_homography, require_int
from .neighborhood import NeighborhoodConfig, default_radius
# no caller here: the benchmark's tracer patches these names on this module
from .neighborhood import build_neighborhoods, ratio_match, select_seeds  # noqa: F401

_STAGES = ("seed", "candidate", "verified")
_SCORE_ENTRIES = 1 << 16  # residuals per scoring table (or one draw); survivors ignore it
_MMA_THRESHOLDS_PX = tuple(range(1, 11))


@dataclass
class MatchSet:
    """Scored index pairs, each tagged with the pipeline stage that produced it."""

    pairs: np.ndarray  # (k, 2) intp rows of (source_index, target_index)
    score: np.ndarray  # (k,) float64
    stage: list  # of str, one per row; a list: the benchmark compares it with !=

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.intp)
        if self.pairs.shape == (0,):
            self.pairs = self.pairs.reshape(0, 2)
        self.score = np.asarray(self.score, dtype=np.float64)
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise ValueError("pairs must be (k, 2) rows of (source, target) indices")
        if self.score.shape != (len(self.pairs),) or len(self.stage) != len(self.pairs):
            raise ValueError("one score and one stage tag per match required")
        unknown = set(self.stage) - set(_STAGES)
        if unknown:
            raise ValueError(f"unknown stage {min(unknown)!r}")
        rows = self.pairs[np.lexsort(self.pairs.T)]
        same = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
        if len(same):
            raise ValueError(f"duplicate match {tuple(rows[same[0]].tolist())}")

    def __len__(self):
        return len(self.pairs)

    # (i, j, score) tuples: only the benchmark's determinism check (`Pipeline.check`) reads them
    @property
    def matches(self):
        return list(zip(*self.pairs.T.tolist(), self.score.tolist()))


@dataclass
class FilterConfig:
    ransac_iterations: int = 128
    inlier_threshold_factor: float = 0.15  # fraction of R_t
    min_inliers: int = 6
    rng_seed: int = 0

    def __post_init__(self):
        for name, low in (("ransac_iterations", 1), ("min_inliers", 3), ("rng_seed", 0)):
            require_int(name, getattr(self, name), low)
        if not 0 < self.inlier_threshold_factor < np.inf:  # written so that NaN fails too
            raise ValueError("threshold factor must be positive and finite")


@dataclass
class Metrics:
    mma: dict  # threshold px (1..10) -> fraction of matches within it
    precision: float
    recall: float
    num_matches: int
    inlier_ratio: float  # convention: the 3 px entry of mma


# the benchmark's tracer times this stage under this name
def _candidates(enc: EncodedPair, ks: KeypointSet, kt: KeypointSet, cfg: NeighborhoodConfig):
    """Candidate matches from final descriptors: (MatchSet, the neighborhoods' Membership)."""
    m, seeds, members = neighborhoods(enc.xs_hat, enc.xt_hat, ks, kt, cfg)
    src = m.matches[:, 0]
    ordered = np.flatnonzero(np.isin(src, members.source.rows))
    stages = np.where(np.isin(src[ordered], src[seeds]), "seed", "candidate").tolist()
    return MatchSet(m.matches[ordered], m.ratio_score[ordered], stages), members


def _mix(z):
    """SplitMix64's finalizer on a uint64 array (array arithmetic wraps without a warning)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _triples(rng_seed, seeds, sizes, iters):
    """`iters` uniform 3-subsets of range(k) per (seed source index, k), as (3, seeds, iters):
    draw d, column c is a SplitMix64 hash of (a 64-bit key of `rng_seed`, the seed source
    index, d, c) below (k - 2, k - 1, k), made distinct by Floyd's fix-ups."""
    gamma = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment
    key = np.random.SeedSequence(rng_seed).generate_state(1, np.uint64)  # any size of seed
    stream = _mix(key + gamma * np.asarray(seeds, dtype=np.uint64))
    draws = _mix(stream[:, None] + gamma * np.arange(1, 3 * iters + 1, dtype=np.uint64))
    k = np.asarray(sizes, dtype=np.intp)[:, None]
    below = (k[:, None] - [2, 1, 0]).astype(np.uint64)
    a, b, c = np.moveaxis(draws.reshape(-1, iters, 3) % below, -1, 0).astype(np.intp)
    b = np.where(b == a, k - 2, b)
    return np.stack([a, b, np.where((c == a) | (c == b), k - 1, c)])


def _affine(p, t):
    """Exact affine maps through triples p -> t of (axis, point, ...) arrays, as (..., 3, 2)
    `coef` with [p, 1] @ coef = t, NaN where |det| < 1e-9: never an inlier.  Closed form on
    the triple moved to p0: A = adj(D) E / det(D), D = [p1 - p0; p2 - p0], E likewise of t."""
    (dx, dy), e = p[:, 1:] - p[:, :1], t[:, 1:] - t[:, :1]  # e[:, i]: row i of E
    det = dx[0] * dy[1] - dy[0] * dx[1]
    det = np.where(np.abs(det) >= 1e-9, det, np.nan)
    a0 = (dy[1] * e[:, 0] - dy[0] * e[:, 1]) / det
    a1 = (dx[0] * e[:, 1] - dx[1] * e[:, 0]) / det
    coef = np.stack([a0, a1, t[:, 0] - (p[0, 0] * a0 + p[1, 0] * a1)])
    return np.moveaxis(coef, (0, 1), (-2, -1))


def _residual(h, c, t):
    """|h @ c - t| over the last (x, y) axis, bit for bit as np.linalg.norm gives it."""
    dx, dy = np.moveaxis(h @ c - t, -1, 0)
    return np.sqrt(dx * dx + dy * dy)


def filter_matches(m: MatchSet, ks: KeypointSet, kt: KeypointSet, members: Membership,
                   fcfg: FilterConfig | None = None, r_t: float | None = None) -> MatchSet:
    """Keep matches that are affine-consistent inliers in any of the `members` neighborhoods."""
    fcfg = fcfg or FilterConfig()
    threshold = fcfg.inlier_threshold_factor * (default_radius(kt.width, kt.height)
                                                 if r_t is None else r_t)
    idx = m.pairs
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

    live, iters = np.flatnonzero(sizes >= fcfg.min_inliers), fcfg.ransac_iterations
    draws = _triples(fcfg.rng_seed, members.seeds[live, 0], sizes[live], iters) \
        + starts[live, None]  # candidate rows
    coef = _affine(*(np.take(pts.T, draws, axis=1) for pts in (hom[:, :2], tgt)))  # per draw

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
    return MatchSet(idx[kept], m.score[kept], ["verified"] * int(kept.sum()))


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
    for what, rows in (("ground-truth", gt.pairs), ("match", m.pairs)):
        if ((rows < 0) | (rows >= (len(ks), len(kt)))).any():
            raise ValueError(f"{what} index out of range of the keypoint sets")
    n, truth = len(m), len(gt.pairs)
    if n == 0:
        return Metrics(dict.fromkeys(_MMA_THRESHOLDS_PX, 0.0), 0.0, 0.0 if truth else 1.0, 0, 0.0)
    idx = m.pairs
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
        for (i, j), score, stage in zip(m.pairs.tolist(), m.score.tolist(), m.stage):
            f.write(f"{i},{j},{score!r},{stage}\n")


def read_matches(path) -> MatchSet:
    pairs, scores, stages = [], [], []
    with open(path) as f:
        header = f.readline().strip()
        if header != "i,j,score,stage":
            raise ValueError(f"unexpected header {header!r}")
        for line in filter(None, map(str.strip, f)):  # blank lines skipped
            i, j, score, stage = line.split(",")
            pairs.append((int(i), int(j)))
            scores.append(float(score))
            stages.append(stage)
    return MatchSet(pairs, scores, stages)
