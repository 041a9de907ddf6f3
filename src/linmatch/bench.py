"""Scaling benchmarks and operation-count audits.

Measures median forward time of the attention kernels across problem
sizes and fits a log-log slope per method, in the record that `linmatch
bench` writes as `bench.json`; and audits the debug counters: the
streaming kernel must multiply within 2x of (M+N)C'^2 plus lower-order
terms and never allocate an NxM buffer, while the quadratic reference
visibly does.

Times are the calling thread's CPU time (`time.thread_time`), not wall
time, so time spent waiting for a busy CPU does not count.  Work that BLAS
hands to other threads does not count either: pin BLAS to one thread
before NumPy loads (as tests/conftest.py does), or the times leave work out.
Medians are taken over >= 3 repetitions after 2 discarded warm-up runs,
at exactly the sizes asked for.
"""

from __future__ import annotations

import time

import numpy as np

from .attention import Membership, Segments, attention, softmax_attention_reference
from .autodiff import count_ops
from .geometry import require_int

_KERNELS = {"linear": attention, "softmax": softmax_attention_reference}


def _measure(kernel, q, k, v, reps: int) -> float:
    kernel(q, k, v)
    kernel(q, k, v)
    times = []
    for _ in range(reps):
        t0 = time.thread_time()
        kernel(q, k, v)
        times.append(time.thread_time() - t0)
    return float(np.median(times))


def loglog_slope(points) -> float:
    """Least-squares exponent of time vs size on log axes."""
    if len(points) < 2:
        raise ValueError("slope is undefined for fewer than 2 points")
    ns = np.log([float(n) for n, _ in points])
    ts = np.log([float(t) for _, t in points])
    return float(np.polyfit(ns, ts, 1)[0])


def _random_triplet(n: int, c_prime: int, seed: int) -> tuple:
    rng = np.random.default_rng([seed, n])
    return tuple(rng.normal(size=(n, c_prime)).astype(np.float32) for _ in range(3))


def bench_attention(methods=("linear", "softmax"), sizes=(1024, 2048, 4096, 8192),
                    c_prime: int = 64, reps: int = 5, seed: int = 0) -> dict:
    """Time each attention kernel on random N x C' inputs (M = N), as the `bench.json`
    record `{"reps", "methods": {method: {"slope", "points": [{"n", "median_ms",
    "multiplies"}]}}}`; each slope is fitted to its medians in seconds."""
    if not methods:
        raise ValueError("no methods given")
    unknown = sorted(set(methods) - set(_KERNELS))
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"repeated methods: {list(methods)}")
    require_int("c_prime", c_prime, 1)
    sizes = list(sizes)
    for n in sizes:
        require_int("each size", n, 1)
    require_int("reps", reps, 3)
    if len(sizes) < 2:
        raise ValueError("need at least 2 size points; slope is undefined for one")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if sizes[-1] < 4 * sizes[0]:
        raise ValueError("sizes must span at least a 4x range")

    record = {"reps": reps, "methods": {}}
    for method in methods:
        kernel = _KERNELS[method]
        times = [(n, _measure(kernel, *_random_triplet(n, c_prime, seed), reps)) for n in sizes]
        points = []
        for n, median in times:
            with count_ops() as ops:
                kernel(*_random_triplet(n, c_prime, seed))
            points.append({"n": n, "median_ms": median * 1e3, "multiplies": ops.multiplies})
        record["methods"][method] = {"slope": loglog_slope(times), "points": points}
    return record


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

    with count_ops() as lin:
        attention(q, k, v)
    bound = 2 * ((m + n) * c_prime ** 2 + (m + n) * c_prime)
    if lin.multiplies > bound:
        raise AssertionError(
            f"streaming kernel multiplies {lin.multiplies} exceed bound {bound}")
    if lin.has_allocation((n, m)) or lin.has_allocation((m, n)):
        raise AssertionError("streaming kernel allocated a query x key table")

    with count_ops() as soft:
        softmax_attention_reference(q, k, v)
    if not soft.has_allocation((n, m)):
        raise AssertionError("quadratic reference did not allocate its score table")

    block = max(2, min(8, min(n, m) // 8))
    blocks = min(4, min(n, m) // (2 * block))
    with count_ops() as pw1:
        attention(q, k, v, pairs=_disjoint_blocks(blocks, block))
    with count_ops() as pw2:
        attention(q, k, v, pairs=_disjoint_blocks(2 * blocks, block))
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
