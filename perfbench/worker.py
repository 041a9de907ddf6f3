"""One workload in one process: set up, warm up, time calls, trace, check.

Started by `run.py`, which pins the BLAS and OpenMP pools to one thread in
this process's environment; the worker refuses to run without that.  The
last line of its standard output is a JSON record for `run.py`.

Order of a run: setup (imports, inputs, weights); one warm-up call whose
output becomes the reference.  Untraced, a closed loop of timed calls for
`--seconds`, then one extra call under `autodiff.count_ops()`.  Traced, that
extra call first, then alternating untraced and traced blocks of calls for
`--seconds`.  Last, the quality checks.  Between calls, outside their
timing, the calibration kernel of `speed.py` is timed about twice a second;
every time metric is reported scaled by it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

from spec import THREAD_ENV

if any(os.environ.get(var) != "1" for var in THREAD_ENV):
    raise SystemExit("start the worker through perfbench/run.py, which pins "
                     + ", ".join(THREAD_ENV) + " to 1 before NumPy loads")

import resource  # noqa: E402

import numpy as np  # noqa: E402

import linmatch  # noqa: E402
import linmatch.autodiff as autodiff  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metric -> (span, "total" or "self" time), summed over the call.
# Only candidate assembly and training.forward have child spans: candidate
# assembly reports its own work, as the neighborhood stages inside it have
# metrics of their own, and training.forward the whole forward pass.
LAYER_TIMES = {
    "matcher.filter_s": ("matcher.filter", "total"),
    "matcher.candidates_s": ("matcher.candidates", "self"),
    "neighborhood.ratio_s": ("neighborhood.ratio", "total"),
    "neighborhood.seeds_s": ("neighborhood.seeds", "total"),
    "neighborhood.build_s": ("neighborhood.build", "total"),
    "encoder.pairwise_s": ("encoder.pairwise", "total"),
    "encoder.self_cross_s": ("encoder.self_cross", "total"),
    "training.forward_s": ("training.forward", "total"),
    "training.loss_s": ("training.loss", "total"),
    "autodiff.backward_s": ("autodiff.backward", "total"),
    "training.adam_s": ("training.adam", "total"),
}

# Per-layer metric -> (span, count key), read from the call's last such span.
LAYER_COUNTS = {
    "matcher.keep_ratio": ("matcher.filter", "keep_ratio"),
    "matcher.verified": ("matcher.filter", "verified"),
    "matcher.candidates": ("matcher.candidates", "candidates"),
    "neighborhood.ratio_matches": ("neighborhood.ratio", "ratio_matches"),
    "neighborhood.seeds": ("neighborhood.seeds", "seeds"),
    "neighborhood.size_max": ("neighborhood.build", "size_max"),
    "encoder.pairs": ("encoder.pairwise", "pairs"),
    "encoder.pair_members": ("encoder.pairwise", "pair_members"),
}

MIN_COVERAGE = 0.9


class Run:
    """Calls made, failures seen, the workload they were made on, machine speed."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures = []
        self.speed = speed.Speedometer()

    def one(self, i, tracer=None):
        """Make call i; returns its wall time, or None when it failed."""
        self.wl.prepare(i)
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.wl.call(i)
                elapsed = time.perf_counter() - t0
            else:
                tracer.call += 1
                with tracer.span(spans.ROOT) as root:
                    out = self.wl.call(i)
                elapsed = root.end - root.start
        except Exception:  # a failing call is counted, and the loop goes on
            traceback.print_exc()
            self.failures.append(f"call {i} raised")
            return None
        problem = self.wl.check(i, out)
        if problem is not None:
            self.failures.append(problem)
            return None
        return elapsed

    def loop(self, seconds, tracer=None):
        """Closed loop until `seconds` have passed and the workload is complete.

        Returns the call times and the loop's wall time without the kernel samples.
        """
        times = []
        i = 0
        spent = self.speed.spent
        start = time.perf_counter()
        while True:
            elapsed = self.one(i, tracer)
            if elapsed is not None:
                times.append(elapsed)
            self.speed.tick()
            i += 1
            if time.perf_counter() - start >= seconds and self.wl.complete(i):
                return times, time.perf_counter() - start - (self.speed.spent - spent)


def _median(values):
    return float(np.median(values)) if values else float("nan")


def _counted_call(run):
    """One more call under count_ops; it must allocate no query x key table."""
    n, m = run.wl.sizes(0)
    run.attempted += 1
    with autodiff.count_ops() as ops:
        problem = run.wl.counted()
    if problem is not None:
        run.failures.append(problem)
    if ops.has_allocation((n, m)) or ops.has_allocation((m, n)):
        run.failures.append(f"counted call allocated a {n}x{m} table")
    return {"autodiff.multiplies": ops.multiplies,
            "autodiff.allocations": len(ops.allocations),
            "autodiff.max_alloc_elems": ops.max_allocation()}


def _untraced(run, seconds):
    times, wall = run.loop(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _counted_call(run)
    scale = run.speed.scale()
    wall_s = {"call_s_p50": _median(times), "throughput_per_s": len(times) / wall}
    return {"calls": len(times),
            "call_s_p90": float(np.percentile(times, 90)) * scale if times else float("nan"),
            "wall": wall_s,
            "end_to_end": {"call_s_p50": wall_s["call_s_p50"] * scale,
                           "throughput_per_s": wall_s["throughput_per_s"] / scale,
                           "peak_rss_mb": peak_rss_mb}}


def _traced(run, seconds, tracer, generate_s):
    counts = _counted_call(run)
    # untraced and traced blocks alternate, so drift in machine speed hits
    # both alike; a block is one call per scene, or one episode of training steps
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        untraced += run.loop(0)[0]
        with tracer.installed(run.wl.patches):
            traced += run.loop(0, tracer)[0]
    calls = spans.per_call(tracer.spans)
    scale = run.speed.scale()
    layer = {}
    for metric, (span, kind) in LAYER_TIMES.items():
        layer[metric] = scale * spans.median_of(calls, lambda c: c[kind].get(span, 0.0))
    for metric, (span, key) in LAYER_COUNTS.items():
        layer[metric] = spans.median_of(calls, lambda c: c["counts"].get(span, {}).get(key, 0))
    layer.update(counts)
    layer["geometry.generate_s"] = generate_s * scale
    layer["trace.coverage"] = spans.coverage(calls)
    layer["trace.overhead_s"] = \
        scale * (spans.median_of(calls, lambda c: c["call_s"]) - _median(untraced))
    if layer["trace.coverage"] < MIN_COVERAGE:
        run.failures.append(f"trace coverage {layer['trace.coverage']:.3f} < {MIN_COVERAGE}")
    return {"calls": len(untraced), "traced_calls": len(traced), "per_layer": layer}


def _env():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_ENV}}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.time() at which the process was started")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if not Path(linmatch.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"linmatch imported from {linmatch.__file__}, not from {ROOT / 'src'}")

    setup_tracer = spans.Tracer()
    wl = workloads.make(args.workload)
    wl.setup(args.seed, setup_tracer)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    run = Run(wl)
    if run.one(0) is None:
        raise SystemExit("the warm-up call failed; there is no reference output")
    tracer = spans.Tracer()
    if args.trace:
        generate_s = sum(s.end - s.start for s in setup_tracer.spans)
        result = _traced(run, args.seconds, tracer, generate_s)
    else:
        result = _untraced(run, args.seconds)
    quality, problems = wl.quality()
    run.failures += problems
    if not args.trace:
        result["end_to_end"].update(quality)
    result.update(setup_s=setup_s, attempted=run.attempted, failed=len(run.failures),
                  failures=run.failures, env=_env(), kernel_s=run.speed.kernel_s(),
                  kernel_samples=len(run.speed.samples), scale=run.speed.scale())

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    spans.dump(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"workload": args.workload, "seed": args.seed, **result},
               setup_spans=setup_tracer.spans, call_spans=tracer.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
