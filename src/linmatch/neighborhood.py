"""Distance-ratio matching, seed selection, and local neighborhood sets.

Matching is mutual nearest neighbor in descriptor space gated by Lowe's
ratio test d1/d2 <= theta.  Each surviving match carries a distinctiveness
score d2/d1 (capped at +inf when d1 = 0 or when there is no second
neighbor), so higher means more confident.

A match is a *seed* when its score is strictly the best among all matches
whose source keypoints lie within radius R of its own; equal scores break
toward the lower source index.  Seeds therefore end up spread out: no two
survive within R of each other unless tied-and-ranked.  Around every seed,
the neighborhood collects the matches lying within lambda * R_s of the seed
on the source side and lambda * R_t on the target side simultaneously.

Matches are kept as a (k, 2) index array of (source, target) rows, and every
stage indexes it directly.  Seed candidates come from a k-d tree radius
query; each pair it reports is re-tested with the exact squared-distance
comparison, so the radius boundary does not depend on the tree's arithmetic.

One f64 distance table per chunk of source rows serves both directions: rows
give the nearest and second-nearest target, columns the nearest source.  Ties
go to the lower index, as argmin's do: the lowest row of a chunk reaching a
column's minimum wins, and a later chunk only when strictly closer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .attention import NeighborhoodPair

_CHUNK_ENTRIES = 1 << 22  # ~32 MB of f64 per distance block


@dataclass
class NeighborhoodConfig:
    theta: float = 1.0  # ratio-test threshold, (0, 1]
    lam: float = 2.0  # neighborhood overlap factor
    r: float | None = None  # seed separation radius (px)
    r_s: float | None = None  # source-side neighborhood radius (px)
    r_t: float | None = None  # target-side neighborhood radius (px)
    min_neighborhood: int = 1  # drop neighborhoods smaller than this

    def __post_init__(self):
        if not (0 < self.theta <= 1):
            raise ValueError("theta must lie in (0, 1]")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        for name in ("r", "r_s", "r_t"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive when set")
        if self.min_neighborhood < 1:
            raise ValueError("min_neighborhood must be at least 1")

    def resolved_pair(self, source_dims: tuple, target_dims: tuple) -> "NeighborhoodConfig":
        """Fill unset radii per side: r and r_s from the source frame, r_t from the target."""
        base_s = default_radius(*source_dims)
        base_t = default_radius(*target_dims)
        return replace(self,
                       r=self.r if self.r is not None else base_s,
                       r_s=self.r_s if self.r_s is not None else base_s,
                       r_t=self.r_t if self.r_t is not None else base_t)


@dataclass
class RatioMatchSet:
    """Mutual-NN matches with per-match distinctiveness scores."""

    matches: np.ndarray  # (k, 2) intp rows of (source_index, target_index)
    ratio_score: np.ndarray

    def __post_init__(self):
        self.matches = np.asarray(self.matches, dtype=np.intp)
        if self.matches.size == 0:
            self.matches = self.matches.reshape(0, 2)
        if self.matches.ndim != 2 or self.matches.shape[1] != 2:
            raise ValueError("matches must be (source, target) index pairs")
        self.ratio_score = np.asarray(self.ratio_score, dtype=np.float64)
        if len(self.matches) != self.ratio_score.shape[0]:
            raise ValueError("one score per match required")
        for side in self.matches.T:
            if len(np.unique(side)) != len(side):
                raise ValueError("matches must be one-to-one per side")

    def __len__(self):
        return len(self.matches)


def default_radius(width: int, height: int) -> float:
    """Radius giving one hundred radius-sized discs per frame area."""
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    return float(np.sqrt(width * height / (100.0 * np.pi)))


def _mutual_nearest(a: np.ndarray, b: np.ndarray):
    """(j1, d1, d2, i1): each row of a's nearest row of b, its nearest and
    second-nearest distances, and each row of b's nearest row of a.

    Distances are ranked with the expanded dot product in f64 and the chosen
    few are then recomputed exactly by direct subtraction, so downstream
    threshold comparisons do not inherit cancellation error.
    """
    n, m = a.shape[0], b.shape[0]
    aa, bb = (a * a).sum(axis=1), (b * b).sum(axis=1)
    j1, j2 = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp) if m >= 2 else None
    col_d, col_i = np.full(m, np.inf), np.zeros(m, dtype=np.intp)
    chunk = min(n, max(1, _CHUNK_ENTRIES // m))
    table, sums = np.empty((chunk, m)), np.empty((chunk, m))  # reused: fresh ones fault every page
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        block = np.matmul(-2.0 * a[s:e], b.T, out=table[:e - s])
        block += np.add(aa[s:e, None], bb, out=sums[:e - s])
        idx1 = block.argmin(axis=1)
        j1[s:e] = idx1
        # per column: the lowest row reaching its minimum (argmin along a column
        # would copy the block transposed); a later chunk must do strictly better
        cmin = block.min(axis=0)
        rows, cols = np.divmod(np.flatnonzero(block == cmin), m)  # ~10x faster than 2-D nonzero
        cols, first = np.unique(cols, return_index=True)
        take = cmin[cols] < col_d[cols]
        col_d[cols[take]], col_i[cols[take]] = cmin[cols[take]], s + rows[first[take]]
        if j2 is not None:
            block[np.arange(e - s), idx1] = np.inf
            j2[s:e] = block.argmin(axis=1)
    d1 = np.linalg.norm(a - b[j1], axis=1)
    if j2 is None:
        return j1, d1, np.full(n, np.inf), col_i
    d2 = np.linalg.norm(a - b[j2], axis=1)
    flip = d2 < d1  # exact recomputation may reorder near-ties
    j1[flip], d1[flip], d2[flip] = j2[flip], d2[flip], d1[flip]
    return j1, d1, d2, col_i


def ratio_match(xs_enc, xt_enc, theta: float) -> RatioMatchSet:
    """Mutual-NN matches passing d1/d2 <= theta, scored by d2/d1."""
    a = np.asarray(xs_enc, dtype=np.float64)
    b = np.asarray(xt_enc, dtype=np.float64)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return RatioMatchSet([], np.zeros(0))
    nn_st, d1, d2, nn_ts = _mutual_nearest(a, b)
    # mutual nearest neighbors; the ratio test is written without dividing by inf/zero
    src = np.flatnonzero((nn_ts[nn_st] == np.arange(a.shape[0])) & ~(d1 > theta * d2))
    d1, d2 = d1[src], d2[src]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(d1 == 0, np.inf, d2 / d1)
    return RatioMatchSet(np.column_stack([src, nn_st[src]]), scores)


def select_seeds(m: RatioMatchSet, source_keypoints, radius: float) -> np.ndarray:
    """Positions (into m.matches) of locally top-scored matches, by source index.

    A match survives iff no other match within `radius` of its source keypoint
    has a strictly higher score, or an equal score with a lower source index.
    """
    if len(m) == 0:
        return np.zeros(0, dtype=np.intp)
    src_idx, scores = m.matches[:, 0], m.ratio_score
    pts = np.asarray(source_keypoints, dtype=np.float64)[src_idx]
    # a non-finite point is within radius of nothing, and the tree rejects it;
    # the query radius is padded so the exact re-test below sees every pair
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


def build_neighborhoods(seeds, m: RatioMatchSet, source_keypoints, target_keypoints,
                        cfg: NeighborhoodConfig) -> list:
    """Matches within lambda*R_s of a seed's source AND lambda*R_t of its target."""
    if cfg.r_s is None or cfg.r_t is None:
        raise ValueError("config radii must be resolved before building neighborhoods")
    if len(m) == 0 or len(seeds) == 0:
        return []
    src_idx, tgt_idx = m.matches.T
    sp = np.asarray(source_keypoints, dtype=np.float64)[src_idx]
    tp = np.asarray(target_keypoints, dtype=np.float64)[tgt_idx]
    rs2 = (cfg.lam * cfg.r_s) ** 2
    rt2 = (cfg.lam * cfg.r_t) ** 2
    pairs = []
    for pos in np.asarray(seeds, dtype=np.intp):
        ds = ((sp - sp[pos]) ** 2).sum(axis=1)
        dt = ((tp - tp[pos]) ** 2).sum(axis=1)
        member = (ds <= rs2) & (dt <= rt2)
        if member.sum() < cfg.min_neighborhood:
            continue
        pairs.append(NeighborhoodPair(
            seed=(int(src_idx[pos]), int(tgt_idx[pos])),
            source_set=np.sort(src_idx[member]),
            target_set=np.sort(tgt_idx[member]),
        ))
    return pairs
