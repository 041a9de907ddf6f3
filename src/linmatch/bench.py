"""Scaling benchmarks and operation-count audits.

Measures median forward time of the attention kernels (and of the full
matching pipeline) across problem sizes, fits a log-log slope per method,
and audits the debug counters: the streaming kernel must multiply within
2x of (M+N)C'^2 plus lower-order terms and never allocate an NxM buffer,
while the quadratic reference visibly does.

Times are the calling thread's CPU time (`time.thread_time`), not wall
time, so time spent waiting for a busy CPU does not count.  Work that BLAS
hands to other threads does not count either: pin BLAS to one thread
before NumPy loads (as tests/conftest.py does), or the times leave work out.
Medians are taken over >= 3 repetitions after 2 discarded warm-up runs,
at exactly the sizes asked for.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .attention import (
    Membership,
    ProjectedTriplet,
    Segments,
    linear_attention,
    pairwise_attention,
    softmax_attention_reference,
)
from .autodiff import count_ops
from .encoder import NetworkConfig, forward, init_weights
from .geometry import GenNoiseConfig, generate_pair
from .matcher import _candidates, match_pipeline
from .neighborhood import NeighborhoodConfig

# constant keypoint density: frame area grows with n so neighborhood
# sizes stay bounded and the largest one remains far below n
_PX_PER_KEYPOINT = 96.0

_KERNELS = {"linear": linear_attention, "softmax": softmax_attention_reference}


@dataclass
class BenchRow:
    method: str
    n: int
    median_ms: float
    multiplies: int = 0


@dataclass
class BenchReport:
    rows: list  # BenchRow, sizes strictly increasing within each method
    slopes: dict  # method -> fitted log-log exponent
    reps: int
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.reps < 3:
            raise ValueError("need at least 3 repetitions")
        last = {}
        for row in self.rows:
            prev = last.get(row.method)
            if prev is not None and row.n <= prev:
                raise ValueError(f"{row.method}: sizes must be strictly increasing")
            last[row.method] = row.n
        for method in self.slopes:
            if method not in last:
                raise ValueError(f"{method}: slope without measurements")


def _measure(fn, reps: int) -> float:
    fn()
    fn()
    times = []
    for _ in range(reps):
        t0 = time.thread_time()
        fn()
        times.append(time.thread_time() - t0)
    return float(np.median(times))


def _scaling(make_fn, sizes, reps: int):
    """Median seconds of `make_fn(n)()` per size: ([(n, median)], their log-log slope)."""
    sizes = [int(n) for n in sizes]
    if len(sizes) < 2:
        raise ValueError("need at least 2 size points; slope is undefined for one")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if sizes[0] < 1:
        raise ValueError("sizes must be at least 1")
    if sizes[-1] < 4 * sizes[0]:
        raise ValueError("sizes must span at least a 4x range")
    if reps < 3:
        raise ValueError("need at least 3 repetitions")
    points = [(n, _measure(make_fn(n), reps)) for n in sizes]
    return points, loglog_slope(points)


def loglog_slope(points) -> float:
    """Least-squares exponent of time vs size on log axes."""
    if len(points) < 2:
        raise ValueError("slope is undefined for fewer than 2 points")
    ns = np.log([float(n) for n, _ in points])
    ts = np.log([float(t) for _, t in points])
    return float(np.polyfit(ns, ts, 1)[0])


def _random_triplet(n: int, c_prime: int, seed: int) -> ProjectedTriplet:
    rng = np.random.default_rng([seed, n])
    q, k, v = (rng.normal(size=(n, c_prime)).astype(np.float32) for _ in range(3))
    return ProjectedTriplet(q, k, v)


def bench_attention(methods=("linear", "softmax"), sizes=(1024, 2048, 4096, 8192),
                    c_prime: int = 64, reps: int = 5, seed: int = 0) -> BenchReport:
    """Time each attention kernel on random N x C' inputs (M = N)."""
    unknown = sorted(set(methods) - set(_KERNELS))
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    if c_prime < 1:
        raise ValueError("c_prime must be at least 1")

    rows = []
    slopes = {}
    for method in methods:
        kernel = _KERNELS[method]

        def make_fn(n):
            t = _random_triplet(n, c_prime, seed)
            return lambda: kernel(t)

        points, slopes[method] = _scaling(make_fn, sizes, reps)
        for n, median in points:
            with count_ops() as ops:
                kernel(_random_triplet(n, c_prime, seed))
            rows.append(BenchRow(method, n, median * 1e3, ops.multiplies))
    return BenchReport(rows, slopes, reps)


def _pipeline_scene(n: int, descriptor_dim: int, seed: int):
    side = int(np.ceil(np.sqrt(_PX_PER_KEYPOINT * n)))
    noise = GenNoiseConfig(desc_sigma=0.02, jitter_sigma=0.5)
    return generate_pair(seed + n, n, (side, side), descriptor_dim, noise)


def bench_pipeline(sizes, cfg: NetworkConfig | None = None, reps: int = 5,
                   seed: int = 0, neigh_cfg: NeighborhoodConfig | None = None) -> BenchReport:
    """Time encode + match + filter end-to-end on synthetic scenes.

    With BLAS threads pinned, the slope reflects algorithmic cost.  Also records
    the largest neighborhood encountered at each size (the `n_max` note) so
    the restricted-attention cost term stays observable.
    """
    cfg = cfg or NetworkConfig()
    weights = init_weights(cfg, seed)

    scenes = {}

    def make_fn(n):
        if n not in scenes:
            scenes[n] = _pipeline_scene(n, cfg.input_dim, seed)
        ks, kt = scenes[n][0], scenes[n][1]
        return lambda: match_pipeline(ks, kt, weights, cfg, neigh_cfg)

    points, slope = _scaling(make_fn, sizes, reps)
    n_max_note = {}
    for n, _ in points:
        ks, kt = scenes[n][0], scenes[n][1]
        enc = forward(ks, kt, weights, cfg, neigh_cfg)
        _, neighborhoods = _candidates(enc, ks, kt, neigh_cfg or NeighborhoodConfig())
        n_max_note[n] = int(neighborhoods.source.sizes.max(initial=0))
    notes = {"n_max": n_max_note, "n_max_ratio": {n: v / n for n, v in n_max_note.items()}}
    rows = [BenchRow("pipeline", n, median * 1e3) for n, median in points]
    return BenchReport(rows, {"pipeline": slope}, reps, notes)


def _disjoint_blocks(count: int, block: int) -> Membership:
    side = Segments(np.arange(count * block), np.full(count, block))
    return Membership(np.repeat(side.starts[:, None], 2, axis=1), side, side)


def op_counter_audit(n: int = 256, m: int = 256, c_prime: int = 16,
                     seed: int = 0) -> dict:
    """Assert the counted costs of each kernel match its scaling contract.

    The streaming kernel must stay within 2x of (m+n)*c'^2 + (m+n)*c'
    multiplies and never allocate an n x m (or m x n) buffer; the
    quadratic reference must allocate exactly such a buffer; restricted
    attention must report a non-zero cost that scales with total
    neighborhood membership.  Raises AssertionError on any violation and
    returns the raw counts.
    """
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, c_prime)).astype(np.float32)
    k = rng.normal(size=(m, c_prime)).astype(np.float32)
    v = rng.normal(size=(m, c_prime)).astype(np.float32)
    t = ProjectedTriplet(q, k, v)

    with count_ops() as lin:
        linear_attention(t)
    bound = 2 * ((m + n) * c_prime ** 2 + (m + n) * c_prime)
    if lin.multiplies > bound:
        raise AssertionError(
            f"streaming kernel multiplies {lin.multiplies} exceed bound {bound}")
    if lin.has_allocation((n, m)) or lin.has_allocation((m, n)):
        raise AssertionError("streaming kernel allocated a query x key table")

    with count_ops() as soft:
        softmax_attention_reference(t)
    if not soft.has_allocation((n, m)):
        raise AssertionError("quadratic reference did not allocate its score table")

    block = max(2, min(8, min(n, m) // 8))
    blocks = min(4, min(n, m) // (2 * block))
    with count_ops() as pw1:
        pairwise_attention(t, _disjoint_blocks(blocks, block))
    with count_ops() as pw2:
        pairwise_attention(t, _disjoint_blocks(2 * blocks, block))
    if pw1.multiplies <= 0:
        raise AssertionError("restricted attention reported no multiplies")
    if pw2.multiplies != 2 * pw1.multiplies:
        raise AssertionError("restricted attention cost is not proportional to "
                             "total neighborhood membership")
    if pw1.multiplies >= n * m * c_prime:
        raise AssertionError("restricted attention cost reached the dense bound")

    return {
        "linear_multiplies": lin.multiplies,
        "linear_bound": bound,
        "linear_max_allocation": lin.max_allocation(),
        "softmax_multiplies": soft.multiplies,
        "softmax_score_table": (n, m),
        "pairwise_multiplies": pw1.multiplies,
        "pairwise_multiplies_doubled": pw2.multiplies,
    }


def write_bench_csv(path, report: BenchReport) -> None:
    with open(path, "w") as f:
        f.write("method,n,median_ms,slope\n")
        for row in report.rows:
            slope = report.slopes[row.method]
            f.write(f"{row.method},{row.n},{repr(float(row.median_ms))},"
                    f"{repr(float(slope))}\n")


def write_bench_json(path, report: BenchReport) -> None:
    methods = {}
    for row in report.rows:
        entry = methods.setdefault(row.method, {
            "slope": float(report.slopes[row.method]), "points": []})
        entry["points"].append({"n": row.n, "median_ms": float(row.median_ms),
                                "multiplies": int(row.multiplies)})
    payload = {"reps": report.reps, "methods": methods,
               "notes": {k: {str(n): v for n, v in d.items()} if isinstance(d, dict) else d
                         for k, d in report.notes.items()}}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
