"""Distance-ratio matching, seed selection, local neighborhood sets, and the
certified distance search that ratio matching and the training loss share.

Matching is mutual nearest neighbor in descriptor space gated by Lowe's
ratio test d1/d2 <= theta.  Each surviving match carries a distinctiveness
score d2/d1 (capped at +inf when d1 = 0 or when there is no second
neighbor), so higher means more confident.

A match is a *seed* when its score is strictly the best among all matches
whose source keypoints lie within radius R of its own; equal scores break
toward the lower source index.  Seeds therefore end up spread out: no two
survive within R of each other unless tied-and-ranked.  Around every seed,
the neighborhood collects the matches lying within lambda * R of the seed
on the source side and lambda * R_t on the target side simultaneously.

Matches are kept as a (k, 2) index array of (source, target) rows, and every
stage indexes it directly.  The pairs of matches within R of each other come
from one radius search (`geometry.near_pairs`) among the matches' source
points, which returns exactly the pairs with dx*dx + dy*dy <= r*r.  Members
come from one search between the seeds' source points and the matches', and
the same test on the target side.  A non-finite point is within the radius of
nothing, and a seed whose own point is non-finite gets no neighborhood.  The
sorted sets and their sizes go straight into one `Membership`, which checks
them all at once.

One distance table per chunk of source rows serves both directions: rows
give the nearest and second-nearest target, columns the nearest source.  The
table is one product in the encodings' own dtype (float32 in the pipeline,
float64 in training), [-2a | aa | 1] @ [b | 1 | bb]^T, and it only picks
candidates.  Each entry lies within E of the squared distance recomputed by
direct subtraction in dtype d, where E = (gamma_{C+6} of the table's dtype +
gamma_{3C+6} of d) * (max|a| + max|b|)^2 and gamma_k = k*u / (1 - k*u) is the
dot-product error bound (Higham, Accuracy and Stability of Numerical
Algorithms, section 3.1); the slack over gamma_{C+2} covers rounding the
squared norms and the window's threshold, and the d term the recomputed
distances.  `_augmented` builds the product and the window 2E for both its
callers, `_mutual_nearest` (d = float64) and `hardest_negatives`, the
training loss's negative search (d = the encodings' dtype), and both cut it
into chunks of `_CHUNK_ENTRIES`: their scratch is one table chunk, its one-byte
mask and O((n + m) * C) entries.  In `_mutual_nearest` a row's two nearest
targets lie within 2E of its second-smallest entry, and a column's nearest
source within 2E of its smallest.  Every entry inside those windows is
recomputed as np.linalg.norm(a_i - b_j) in float64, and the exact distances
decide: the lower index wins an exact tie, and a later chunk takes a column
only when strictly closer.  NaN or inf encodings are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import Membership, Segments
from .autodiff import note_alloc
from .geometry import index_pairs, near_pairs

_CHUNK_ENTRIES = 1 << 21  # per chunk: 8 MB in float32, 16 MB in float64, plus a 2 MB mask


@dataclass
class NeighborhoodConfig:
    theta: float = 1.0  # ratio-test threshold, (0, 1]
    lam: float = 2.0  # neighborhood overlap factor
    r: float | None = None  # seed separation and source-side neighborhood radius (px)
    r_t: float | None = None  # target-side neighborhood radius (px)

    def __post_init__(self):
        if not (0 < self.theta <= 1):
            raise ValueError("theta must lie in (0, 1]")
        if not 0 < self.lam < np.inf:  # written so that NaN fails too
            raise ValueError("lambda must be positive and finite")
        for name in ("r", "r_t"):
            val = getattr(self, name)
            if val is not None and not 0 < val < np.inf:
                raise ValueError(f"{name} must be positive and finite when set")

    def resolved_pair(self, source_dims: tuple, target_dims: tuple) -> "NeighborhoodConfig":
        """Fill unset radii per side: r from the source frame, r_t from the target."""
        return replace(self,
                       r=self.r if self.r is not None else default_radius(*source_dims),
                       r_t=self.r_t if self.r_t is not None else default_radius(*target_dims))


@dataclass
class RatioMatchSet:
    """Mutual-NN matches with per-match distinctiveness scores."""

    matches: np.ndarray  # (k, 2) intp rows of (source_index, target_index)
    ratio_score: np.ndarray

    def __post_init__(self):
        self.matches = index_pairs(self.matches)
        self.ratio_score = np.asarray(self.ratio_score, dtype=np.float64)
        if len(self.matches) != self.ratio_score.shape[0]:
            raise ValueError("one score per match required")

    def __len__(self):
        return len(self.matches)


def default_radius(width: int, height: int) -> float:
    """Radius giving one hundred radius-sized discs per frame area."""
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    return float(np.sqrt(width * height / (100.0 * np.pi)))


def _gamma(k: int, dtype) -> float:
    """Higham's gamma_k = k*u / (1 - k*u): the relative error bound of a length-k dot product."""
    ku = k * np.finfo(dtype).eps / 2
    return ku / (1 - ku)


def _exact(a, b, rows, cols, batch, dtype=np.float64):
    """Squared distances from a[rows] to b[cols] by direct subtraction in `dtype`,
    ((a - b) ** 2).sum(axis=-1) bit for bit, `batch` pairs at a time."""
    out = np.empty(len(rows), dtype)
    for s in range(0, len(rows), batch):
        diff = np.subtract(a[rows[s:s + batch]], b[cols[s:s + batch]], dtype=dtype)
        out[s:s + batch] = (diff * diff).sum(axis=1)
    return out


def _augmented(a: np.ndarray, b: np.ndarray, exact):
    """(lhs, rhs, window): lhs @ rhs.T = [-2a | aa | 1] @ [b | 1 | bb]^T in a and b's dtype
    (float64 if its squares could overflow), and twice its error bound against `_exact` in
    dtype `exact`; inf when no bound holds (a non-finite row, or squares overflowing `exact`)."""
    c = a.shape[1]
    aa = np.einsum("ij,ij->i", a, a, dtype=np.float64)
    bb = np.einsum("ij,ij->i", b, b, dtype=np.float64)
    # (max|a| + max|b|)^2 bounds every |x|.|y| of the augmented product
    reach = (np.sqrt(aa.max()) + np.sqrt(bb.max())) ** 2
    dt = np.result_type(a, b)
    if not reach < np.finfo(dt).max / 4:
        dt = np.dtype(np.float64)
    lhs = np.column_stack([-2 * a, aa.astype(dt), np.ones(len(a), dt)])
    rhs = np.column_stack([b, np.ones(len(b), dt), bb.astype(dt)])
    if not reach < np.finfo(exact).max / 4:
        return lhs, rhs, dt.type(np.inf)
    g = _gamma(c + 6, dt) + _gamma(3 * c + 6, exact)  # see the module docstring
    return lhs, rhs, dt.type(2 * (g * reach + (c + 3) * np.finfo(dt).smallest_subnormal))


def _mutual_nearest(a: np.ndarray, b: np.ndarray):
    """(j1, d1, d2, i1): each row of a's nearest row of b, its nearest and
    second-nearest distances, and each row of b's nearest row of a.

    Per chunk, columns keep a running minimum of the table, and every entry
    within the window of it is recomputed and merged.  Rows take their two
    smallest entries; a row whose third-smallest entry is also within the
    window of the second is crowded, and all its entries within the window
    are recomputed.  Candidate lists and exact batches are cut to
    O((n + m) * C) entries, so the scratch stays one table chunk, its
    one-byte mask and that, even when every distance ties.
    """
    n, m, c = a.shape[0], b.shape[0], a.shape[1]
    lhs, rhs, window = _augmented(a, b, np.float64)
    if window == np.inf:
        raise ValueError("non-finite distances: encodings too large to compare")
    span = max(1 << 16, (n + m) * c)  # scratch entries: candidate lists, exact batches
    batch, cap = max(1, span // max(8 * c, 1)), span // 8
    j1, d1, d2 = np.empty(n, dtype=np.intp), np.empty(n), np.full(n, np.inf)
    col_t, col_d, col_i = np.full(m, np.inf, lhs.dtype), np.full(m, np.inf), np.zeros(m, dtype=np.intp)
    chunk = min(n, max(1, _CHUNK_ENTRIES // m))
    table = np.empty((chunk, m), lhs.dtype)  # reused: a fresh one faults every page
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        block = np.matmul(lhs[s:e], rhs.T, out=table[:e - s])
        # columns: every row within the window of the running column minimum
        np.minimum(col_t, block.min(axis=0), out=col_t)
        keep = block <= col_t + window
        if np.count_nonzero(keep) <= cap:
            groups = [np.divmod(np.flatnonzero(keep), m)]
        else:  # near-ties everywhere: one row at a time bounds the lists
            groups = ((np.full(k.sum(), i), np.flatnonzero(k)) for i, k in enumerate(keep))
        for rows, cols in groups:
            rows += s
            dist = np.sqrt(_exact(a, b, rows, cols, batch))
            closer = dist < col_d[cols]  # a later row must be strictly closer
            rows, cols, dist = rows[closer], cols[closer], dist[closer]
            np.minimum.at(col_d, cols, dist)
            tie = dist == col_d[cols]
            col_i[cols[tie]] = n
            np.minimum.at(col_i, cols[tie], rows[tie])
        # rows: the two smallest entries, and a third one inside the window flags a crowded row
        ar = np.arange(e - s)
        i1 = block.argmin(axis=1)
        if m == 1:
            j1[s:e], d1[s:e] = i1, np.sqrt(_exact(a, b, s + ar, i1, batch))
            continue
        v1 = block[ar, i1]
        block[ar, i1] = np.inf
        i2 = block.argmin(axis=1)
        v2 = block[ar, i2]
        block[ar, i2] = np.inf
        crowded = np.flatnonzero(block.min(axis=1) <= v2 + window)
        block[ar, i1], block[ar, i2] = v1, v2
        dist = np.sqrt(_exact(a, b, np.concatenate([ar, ar]) + s, np.concatenate([i1, i2]), batch))
        r1, r2 = dist[:e - s], dist[e - s:]
        swap = (r2 < r1) | ((r2 == r1) & (i2 < i1))
        j1[s:e] = np.where(swap, i2, i1)
        d1[s:e], d2[s:e] = np.minimum(r1, r2), np.maximum(r1, r2)
        for i in crowded:
            cols = np.flatnonzero(block[i] <= v2[i] + window)
            dist = np.sqrt(_exact(a, b, np.full(len(cols), s + i), cols, batch))
            k1 = dist.argmin()  # cols ascend, so argmin keeps the lower index of a tie
            j1[s + i], d1[s + i] = cols[k1], dist[k1]
            dist[k1] = np.inf
            d2[s + i] = dist.min()
    return j1, d1, d2, col_i


def hardest_negatives(a: np.ndarray, b: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Per row i of a, the first index of the least ((a_i - b) ** 2).sum(axis=-1) among all
    but partner[i], computed a chunk of rows at a time, never as a (len(a), len(b), C) table."""
    dt = np.result_type(a, b)
    lhs, rhs, window = _augmented(a, b, dt)
    chunk = min(len(a), max(1, _CHUNK_ENTRIES // len(b)))
    table = np.empty((chunk, len(b)), lhs.dtype)  # the search's largest buffer
    note_alloc(table)
    out = np.empty(len(a), dtype=np.intp)
    for s in range(0, len(a), chunk):
        e = min(len(a), s + chunk)
        ar, skip = np.arange(e - s), partner[s:e]
        with np.errstate(invalid="ignore", over="ignore"):  # from non-finite or huge rows
            block = np.matmul(lhs[s:e], rhs.T, out=table[:e - s])
            block[ar, skip] = np.inf
            keep = ~(block > (block.min(axis=1) + window)[:, None])  # NaN keeps its whole row
        # any other entry exceeds the row's least exact value
        rows, cols = np.divmod(np.flatnonzero(keep), len(b))
        block[rows, cols] = _exact(a, b, rows + s, cols, max(1, table.size // a.shape[1]), dt)
        block[ar, skip] = np.inf  # a void window recomputed the partner too
        out[s:e] = block.argmin(axis=1)
    # np.argmin returns the partner only as index 0 of a row whose other entries are all inf
    out[out == partner] = 1
    return out


def _encodings(x) -> np.ndarray:
    """x as float32 or float64 (other dtypes become float64), rejecting NaN and inf."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if not np.isfinite(x).all():
        raise ValueError("non-finite encodings: NaN or inf among the rows to match")
    return x


def ratio_match(xs_enc, xt_enc, theta: float) -> RatioMatchSet:
    """Mutual-NN matches passing d1/d2 <= theta, scored by d2/d1.

    Raises ValueError on NaN or inf encodings.
    """
    a, b = _encodings(xs_enc), _encodings(xt_enc)
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
    src_idx, scores = m.matches[:, 0], m.ratio_score
    pts = np.asarray(source_keypoints, dtype=np.float64)[src_idx]
    a, b = near_pairs(pts, pts, radius, upper=True)  # a non-finite point is near nothing

    def outranks(x, y):
        return (scores[x] > scores[y]) | ((scores[x] == scores[y]) & (src_idx[x] < src_idx[y]))

    suppressed = np.zeros(len(m), dtype=bool)
    suppressed[a[outranks(b, a)]] = True
    suppressed[b[outranks(a, b)]] = True
    keep = np.flatnonzero(~suppressed)
    return keep[np.argsort(src_idx[keep], kind="stable")]


def build_neighborhoods(seeds, m: RatioMatchSet, source_keypoints, target_keypoints,
                        cfg: NeighborhoodConfig) -> Membership:
    """Matches within lambda*R of a seed's source AND lambda*R_t of its target.

    One neighborhood per seed, in the order of `seeds`, except that a seed
    with a non-finite point of its own has no members and gets none.
    """
    if cfg.r is None or cfg.r_t is None:
        raise ValueError("config radii must be resolved before building neighborhoods")
    seeds = np.asarray(seeds, dtype=np.intp)
    src_idx, tgt_idx = m.matches.T
    sp = np.asarray(source_keypoints, dtype=np.float64)[src_idx]
    tp = np.asarray(target_keypoints, dtype=np.float64)[tgt_idx]
    seeds = seeds[(np.isfinite(sp[seeds]) & np.isfinite(tp[seeds])).all(axis=1)]
    row, pos = near_pairs(sp[seeds], sp, cfg.lam * cfg.r)  # a non-finite point is near nothing
    (x, y), at = tp.T, seeds[row]  # ((tp[pos] - tp[at]) ** 2).sum(axis=1), bit for bit
    dx, dy, reach = x[pos] - x[at], y[pos] - y[at], cfg.lam * cfg.r_t
    member = np.flatnonzero(dx * dx + dy * dy <= reach * reach)  # inf, not OverflowError
    row, pos = row[member], pos[member]
    sizes = np.bincount(row, minlength=len(seeds))  # each seed is a member
    return Membership(m.matches[seeds], *(Segments(idx[pos[np.lexsort((idx[pos], row))]], sizes)
                                          for idx in (src_idx, tgt_idx)))
