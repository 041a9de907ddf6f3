"""What the benchmark measures: workloads, metrics and regression bounds.

`BENCHMARK.json` at the repository root is generated from this module by
`python3 perfbench/run.py --all`; edit the tables here, not the JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

# Thread pools pinned to one thread in every worker's environment.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = [
    ("match-1k-outliers",
     "1024 keypoints plus 512 distractors: the RANSAC filter dominates a call and rejects "
     "matches; neighborhoods are small, so pairwise cost is per-pair overhead"),
    ("match-4k-clean",
     "4096 clean keypoints: two O(N*M) ratio passes and brute-force seed selection over "
     "~2.8k matches dominate; the filter keeps every candidate"),
    ("train-step",
     "Adam steps of the criterion-5 network (32->16, 2 heads, l2=1) on 128-keypoint pairs: "
     "reverse-mode autodiff and per-pair pairwise subgraphs dominate; no filter runs"),
]

# (name, unit, better, bound).  The quality and memory bounds are at least
# three times the quartile spread over ten seeds measured when the benchmark
# was defined; peak RSS of match-4k-clean is bimodal (about 272 or 325 MB,
# as the allocator happens to reuse freed tables or not).  Times get the
# largest share allowed: on the shared 2-vCPU VM used then, the same call's
# median drifted by up to 40 % within half an hour, and the scaling of
# `speed.py` removes only part of that.  The 90th
# percentile of call time is printed but is no metric here: a 30 s run
# holds only 13 to 45 pipeline calls, and its quartile spread over ten seeds
# reached 0.22 on match-1k-outliers.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("call_s_p50", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("precision", "fraction", "higher", 0.1),
    ("recall", "fraction", "higher", 0.2),
    ("final_loss", "loss", "lower", 0.2),
]

# (name, unit, better)
PER_LAYER = [
    ("matcher.filter_s", "s", "lower"),
    ("matcher.keep_ratio", "fraction", "higher"),
    ("matcher.verified", "count", "higher"),
    ("matcher.candidates_s", "s", "lower"),
    ("matcher.candidates", "count", "higher"),
    ("neighborhood.ratio_s", "s", "lower"),
    ("neighborhood.seeds_s", "s", "lower"),
    ("neighborhood.build_s", "s", "lower"),
    ("neighborhood.ratio_matches", "count", "higher"),
    ("neighborhood.seeds", "count", "lower"),
    ("neighborhood.size_max", "count", "lower"),
    ("encoder.pairwise_s", "s", "lower"),
    ("encoder.pairs", "count", "lower"),
    ("encoder.pair_members", "count", "lower"),
    ("encoder.self_cross_s", "s", "lower"),
    ("training.forward_s", "s", "lower"),
    ("training.loss_s", "s", "lower"),
    ("autodiff.backward_s", "s", "lower"),
    ("training.adam_s", "s", "lower"),
    ("autodiff.multiplies", "count", "lower"),
    ("autodiff.allocations", "count", "lower"),
    ("autodiff.max_alloc_elems", "count", "lower"),
    ("geometry.generate_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> None:
    with open(root / "BENCHMARK.json", "w") as f:
        json.dump(benchmark_json(), f, indent=2)
        f.write("\n")
