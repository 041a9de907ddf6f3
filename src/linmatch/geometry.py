"""Synthetic scene generation, homographies, and correspondence labeling.

A scene pair is built by warping uniformly sampled source keypoints through a
random (or supplied) homography, jittering the projected positions, keeping
the survivors that land inside the target frame, and appending independent
distractor points.  True-pair descriptors share a base vector plus additive
Gaussian noise; distractor descriptors are independent draws.

Ground truth follows a mutual-nearest-neighbor rule under exact reprojection:
a source/target pair is labeled a correspondence iff each is the other's
nearest neighbor and the reprojection distance is below 3 pixels (absolute,
regardless of image size); an exact distance tie goes to the lower index.
The pairs are one (k, 2) index array; an index that appears in no row is
unmatchable.  `near_pairs` is the package's one radius search.
"""

from __future__ import annotations

import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

LABEL_DISTANCE_PX = 3.0

_KPDS_MAGIC = b"KPDS"
_KPDS_VERSION = 1
_ROW_LIMIT = 1 << 24  # positions clip here, in rows, so a key fits int64
_ROW_STRIDE = 1 << 34  # key distance between rows: more than 512 * (_ROW_LIMIT + 4)
_ALL_PAIRS = 1 << 12  # up to this many pairs, near_pairs tests them all
# NumPy's normal draws lie within 14 standard deviations, so base + noise stays a finite float32
_DESC_SIGMA_MAX = float(np.finfo(np.float32).max) / 64


@dataclass
class KeypointSet:
    """Keypoints with descriptors inside a W x H pixel frame."""

    keypoints: np.ndarray  # N x 2 float32, (x, y)
    descriptors: np.ndarray  # N x D float32
    width: int
    height: int

    def __post_init__(self):
        self.keypoints = np.ascontiguousarray(self.keypoints, dtype=np.float32).reshape(-1, 2)
        self.descriptors = np.ascontiguousarray(self.descriptors, dtype=np.float32)
        if self.descriptors.ndim != 2:
            raise ValueError("descriptors must be a 2-D matrix")
        if self.descriptors.shape[0] != self.keypoints.shape[0]:
            raise ValueError("descriptor row count must equal keypoint count")
        if self.descriptors.shape[1] < 1:
            raise ValueError("descriptor dimension must be >= 1")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if not np.isfinite(self.descriptors).all():
            raise ValueError("descriptors must be finite")
        # phrased as what must hold, so that NaN keypoints fail it too
        if not ((self.keypoints >= 0) & (self.keypoints < (self.width, self.height))).all():
            raise ValueError("keypoints must be finite and lie inside [0, W) x [0, H)")

    def __len__(self):
        return self.keypoints.shape[0]


def require_int(name: str, value, low: int) -> None:
    """ValueError unless `value` is an integer (not a bool, float or string) of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


def index_pairs(rows) -> np.ndarray:
    """`rows` as a (k, 2) intp array of (source, target) indices, one-to-one per side."""
    pairs = np.asarray(rows, dtype=np.intp)
    if pairs.shape == (0,):
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must be (k, 2) rows of (source, target) indices")
    for side in pairs.T:
        if len(np.unique(side)) != len(side):
            raise ValueError("pairs must be one-to-one per side")
    return pairs


@dataclass
class GroundTruth:
    """Partial bijection of true correspondences; every other index is unmatchable."""

    pairs: np.ndarray  # (k, 2) intp rows of (source_index, target_index)

    def __post_init__(self):
        self.pairs = index_pairs(self.pairs)


@dataclass
class Homography:
    """Invertible 3x3 projective transform, normalized to h[2,2] = 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64).reshape(3, 3)
        if not np.isfinite(m).all():
            raise ValueError("homography entries must be finite")
        if abs(np.linalg.det(m)) <= 1e-9:
            raise ValueError("homography is singular")
        if m[2, 2] == 0:
            raise ValueError("cannot normalize: bottom-right entry is zero")
        self.matrix = m / m[2, 2]


@dataclass
class GenNoiseConfig:
    """Perturbation knobs for synthetic pair generation."""

    desc_sigma: float = 0.0  # additive descriptor noise on true pairs
    jitter_sigma: float = 0.0  # pixel jitter on projected target positions
    distractors: int = 0  # extra unmatched target keypoints

    def __post_init__(self):
        require_int("distractors", self.distractors, 0)
        if not (0 <= self.desc_sigma < np.inf and 0 <= self.jitter_sigma < np.inf):
            raise ValueError("noise magnitudes must be finite and non-negative")
        if self.desc_sigma > _DESC_SIGMA_MAX:
            raise ValueError(f"desc_sigma above {_DESC_SIGMA_MAX:.3g} overflows float32 descriptors")


def apply_homography(h: Homography, points) -> tuple[np.ndarray, np.ndarray]:
    """Project points; returns (projected N x 2, valid mask).

    Rows whose homogeneous w-coordinate collapses (|w| < 1e-12) are marked
    invalid and set to +inf so they can never win a nearest-neighbor search.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    ones = np.ones((pts.shape[0], 1))
    hom = np.concatenate([pts, ones], axis=1) @ h.matrix.T
    w = hom[:, 2]
    valid = np.abs(w) >= 1e-12
    out = np.full((pts.shape[0], 2), np.inf)
    out[valid] = hom[valid, :2] / w[valid, None]
    return out, valid


def _sample_homography(rng: np.random.Generator, width: int, height: int) -> Homography:
    """Rotation, anisotropic scale, shear, and translation about frame center."""
    angle = rng.uniform(-np.pi / 6, np.pi / 6)
    sx, sy = rng.uniform(0.7, 1.4, size=2)
    shear = rng.uniform(-0.2, 0.2)
    tx = rng.uniform(-0.15, 0.15) * width
    ty = rng.uniform(-0.15, 0.15) * height
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    scale = np.diag([sx, sy, 1.0])
    sh = np.array([[1, shear, 0], [0, 1, 0], [0, 0, 1]])
    cx, cy = width / 2, height / 2
    to_center = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]])
    back = np.array([[1, 0, cx + tx], [0, 1, cy + ty], [0, 0, 1]])
    return Homography(back @ rot @ sh @ scale @ to_center)


def _clip_to_frame(pts: np.ndarray, width: int, height: int) -> np.ndarray:
    """Cast to f32 without letting rounding push a point onto the open edge."""
    out = pts.astype(np.float32)
    out[:, 0] = np.clip(out[:, 0], 0.0, np.nextafter(np.float32(width), np.float32(0)))
    out[:, 1] = np.clip(out[:, 1], 0.0, np.nextafter(np.float32(height), np.float32(0)))
    return out


def near_pairs(p, q, radius: float, upper: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) intp arrays of exactly the pairs with dx*dx + dy*dy <= radius*radius in float64
    (where a far-but-finite pair overflows to inf); a non-finite point pairs with nothing.
    With `upper`, q must be p and each unordered pair of distinct rows comes once."""
    if upper and q is not p:
        raise ValueError("upper pairs need q to be p")
    if not radius > 0:
        raise ValueError("radius must be positive")
    p = np.asarray(p, dtype=np.float64).reshape(-1, 2)
    q = p if upper else np.asarray(q, dtype=np.float64).reshape(-1, 2)
    i, j = _candidates(p, q, radius, upper)  # the search's scratch is freed before the test
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = (a[i] - b[j] for a, b in zip(p.T, q.T))
        near = np.flatnonzero(dx * dx + dy * dy <= radius * radius)
    return i[near], j[near]


def _candidates(p, q, radius: float, upper: bool):
    """(i, j) among the finite points: all pairs, if at most 4096, else every pair within
    `radius` and some farther.  q is then binned into rows half the (padded) radius high and
    sorted by x, and a point meets, in the five rows around its own, the points within reach
    along x, all within about 1.5 radii.  Positions clip at 2**24 rows, which only brings far
    points closer: scratch is linear in points plus candidates."""
    fp = np.flatnonzero(np.isfinite(p[:, 0]) & np.isfinite(p[:, 1]))
    fq = fp if upper else np.flatnonzero(np.isfinite(q[:, 0]) & np.isfinite(q[:, 1]))
    if (len(fp) * (len(fp) - 1) // 2 if upper else len(fp) * len(fq)) <= _ALL_PAIRS:
        pt = np.arange(len(fp))  # each point pt of fp meets the positions lo..hi-1 of fq
        lo, hi = (pt + 1 if upper else np.zeros_like(pt)), len(fq)
    else:
        side = radius * (1 + 1e-6) / 2  # so that in rows, the reach is 2
        bound = side * _ROW_LIMIT  # clipped before dividing, so the division stays finite

        def key(base, x):  # x quantized to 1/256 of a row; floor keeps the order
            return base + np.floor(x * 256).astype(np.int64)

        def rows(pts, idx):  # idx in key order, and x, height in row, row start and key
            x, y = (np.clip(c[idx], -bound, bound) / side for c in pts.T)
            row = np.floor(y)
            base = row.astype(np.int64) * _ROW_STRIDE
            keys = key(base, x)
            order = np.argsort(keys, kind="stable")
            return idx[order], x[order], (y - row)[order], base[order], keys[order]

        fp, x, fy, base, keys = rows(p, fp)
        fq, *_, keys = (fp, keys) if upper else rows(q, fq)
        dy = np.arange(0 if upper else -2, 3)  # upper: the own row only after the own point
        # queries row by row, each in key order, so that the searches run in order
        gap = np.maximum(np.abs(dy[:, None] + 0.5 - fy) - 0.5, 0)  # to each row, in rows
        at = np.flatnonzero(gap < 2)
        k, pt = np.divmod(at, len(fp))
        half = np.sqrt(4 - gap.ravel()[at] ** 2)  # half the x extent within reach in the row
        ends = key(base[pt] + dy[k] * _ROW_STRIDE, x[pt] + np.multiply.outer((-1, 1), half))
        lo, hi = np.searchsorted(keys, ends + ((0,), (1,)))  # hi: the first key past the end
        lo = np.maximum(lo, pt + 1) if upper else lo
    count = hi - lo
    at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    return fp[np.repeat(pt, count)], fq[at]


def label_correspondences(h: Homography, ks: KeypointSet, kt: KeypointSet) -> GroundTruth:
    """Mutual-NN labeling under exact reprojection with the 3 px cutoff."""
    proj, _ = apply_homography(h, ks.keypoints)  # a collapsed projection is inf
    i, j = near_pairs(proj, kt.keypoints, LABEL_DISTANCE_PX)
    dx, dy = proj[i, 0] - kt.keypoints[j, 0], proj[i, 1] - kt.keypoints[j, 1]  # in float64
    d = np.sqrt(dx * dx + dy * dy)

    def nearest(a, b):  # positions of each a's candidate at the least distance, then lowest b
        by = np.lexsort((b, d, a))
        return by[np.diff(a[by], prepend=-1) != 0]

    mutual = nearest(i, j)  # in source order
    mutual = mutual[np.isin(mutual, nearest(j, i)) & (d[mutual] < LABEL_DISTANCE_PX)]
    return GroundTruth(np.column_stack([i[mutual], j[mutual]]))


def generate_pair(seed: int, n_keypoints: int, dims: tuple, descriptor_dim: int,
                  noise: GenNoiseConfig | None = None,
                  homography: Homography | None = None,
                  min_matches: int | None = None):
    """Build a synthetic (source, target, ground truth, homography) scene.

    Deterministic for a fixed seed.  If `min_matches` is given, regenerates
    with successive derived seeds until the ground truth is large enough.
    """
    width, height = dims
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    if n_keypoints < 1:
        raise ValueError("need at least one keypoint")
    noise = noise or GenNoiseConfig()

    for attempt in range(64):
        rng = np.random.default_rng(seed + attempt)
        h = homography if homography is not None else _sample_homography(rng, width, height)

        src = np.column_stack([rng.uniform(0, width, n_keypoints),
                               rng.uniform(0, height, n_keypoints)])
        src_f32 = _clip_to_frame(src, width, height)
        base_desc = rng.standard_normal((n_keypoints, descriptor_dim))

        proj, valid = apply_homography(h, src_f32)
        jitter = rng.normal(0.0, noise.jitter_sigma, size=proj.shape) if noise.jitter_sigma > 0 \
            else np.zeros_like(proj)
        landed = proj + jitter
        in_frame = valid & (landed[:, 0] >= 0) & (landed[:, 0] < width) \
            & (landed[:, 1] >= 0) & (landed[:, 1] < height)
        survivors = np.nonzero(in_frame)[0]

        tgt_pts = landed[survivors]
        tgt_desc = base_desc[survivors]
        if noise.desc_sigma > 0:
            tgt_desc = tgt_desc + rng.normal(0.0, noise.desc_sigma, size=tgt_desc.shape)
        if noise.distractors > 0:
            extra_pts = np.column_stack([rng.uniform(0, width, noise.distractors),
                                         rng.uniform(0, height, noise.distractors)])
            extra_desc = rng.standard_normal((noise.distractors, descriptor_dim))
            tgt_pts = np.concatenate([tgt_pts, extra_pts], axis=0)
            tgt_desc = np.concatenate([tgt_desc, extra_desc], axis=0)

        ks = KeypointSet(src_f32, base_desc.astype(np.float32), width, height)
        kt = KeypointSet(_clip_to_frame(tgt_pts, width, height),
                         tgt_desc.astype(np.float32), width, height)
        gt = label_correspondences(h, ks, kt)
        if min_matches is None or len(gt.pairs) >= min_matches:
            return ks, kt, gt, h
    raise RuntimeError(f"could not reach {min_matches} ground-truth matches in 64 attempts")


def write_kpds(path, ks: KeypointSet) -> None:
    with open(path, "wb") as f:
        f.write(_KPDS_MAGIC)
        n, d = ks.descriptors.shape
        f.write(struct.pack("<5I", _KPDS_VERSION, n, d, ks.width, ks.height))
        f.write(ks.keypoints.astype("<f4").tobytes())
        f.write(ks.descriptors.astype("<f4").tobytes())


def read_exact(f, count, what):
    """Read `count` bytes; a count past the end of the file is refused unread."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise ValueError(f"truncated file: {what} needs {count} bytes, {left} left")
    return f.read(count)


def read_kpds(path) -> KeypointSet:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _KPDS_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_KPDS_MAGIC!r}")
        version, n, d, width, height = struct.unpack("<5I", read_exact(f, 20, "header"))
        if version != _KPDS_VERSION:
            raise ValueError(f"unsupported version {version}")
        kpts = np.frombuffer(read_exact(f, n * 2 * 4, "keypoints"), dtype="<f4").reshape(n, 2)
        desc = np.frombuffer(read_exact(f, n * d * 4, "descriptors"), dtype="<f4").reshape(n, d)
        if f.read(1):
            raise ValueError("trailing bytes after descriptor block")
    return KeypointSet(kpts.copy(), desc.copy(), int(width), int(height))


def write_ground_truth(path, gt: GroundTruth) -> None:
    with open(path, "w") as f:
        for i, j in gt.pairs.tolist():
            f.write(f"{i},{j}\n")


def read_ground_truth(path) -> GroundTruth:
    pairs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            i, j = line.split(",")
            pairs.append((int(i), int(j)))
    return GroundTruth(pairs)


def write_homography(path, h: Homography) -> None:
    with open(path, "w") as f:
        f.write(" ".join(repr(float(v)) for v in h.matrix.ravel()) + "\n")


def read_homography(path) -> Homography:
    with open(path) as f:
        vals = [float(tok) for tok in f.read().split()]
    if len(vals) != 9:
        raise ValueError(f"expected 9 values, got {len(vals)}")
    return Homography(np.array(vals).reshape(3, 3))
