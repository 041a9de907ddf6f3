"""Run a benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload match-4k-clean --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --all

A run starts worker processes (`worker.py`) with the BLAS and OpenMP pools
pinned to one thread.  Untraced (`--trace 0`) it reports the end-to-end
metrics; `setup_s` is the median over several fresh processes of the time
from process start to the first timed call.  Traced (`--trace 1`) it
reports the per-layer metrics.  Every time is scaled to the reference
machine speed of `speed.py` by the measuring worker's calibration kernel.
The last line of standard output is one JSON record; the exit code is 1
when any check failed.

`--all` rewrites BENCHMARK.json from `spec.py`, then runs every workload
untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import speed

# Pinned here, before any process of the benchmark loads NumPy; workers inherit it.
os.environ.update({var: "1" for var in spec.THREAD_ENV})

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPS = 4  # setup-only processes; the measuring worker adds one more sample
BUDGET_S = 170.0  # one run, every worker included, must end within 180 s


def _worker(args, deadline):
    """Start a worker, wait for it, and return its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(WORKER), *args]
    t0 = time.time()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{' '.join(args)}: worker ran past the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload, seed, seconds, trace):
    """One run; returns the printed result record and the worker's full record."""
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [] if trace else [_worker(base + ["--setup-only"], deadline)["setup_s"]
                               for _ in range(SETUP_REPS)]
    res = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    if trace:
        names = [name for name, *_ in spec.PER_LAYER]
        values = res["per_layer"]
    else:
        names = [name for name, *_ in spec.END_TO_END]
        # the setup-only workers ran just before the measuring one, which samples
        # the machine's speed far more often than a short setup process could
        res["wall"]["setup_s"] = statistics.median(setups + [res["setup_s"]])
        values = {**res["end_to_end"], "setup_s": res["wall"]["setup_s"] * res["scale"]}
    record = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": spec.UNITS[n]} for n in names},
    }
    return record, res


def report(workload, seed, trace, record, res):
    env = res["env"]
    timed = f"{res['traced_calls']} traced" if trace else f"{res['calls']} timed"
    print(f"# {workload} seed {seed} trace {trace}: {timed} calls, "
          f"{record['attempted']} attempted, {record['failed']} failed "
          f"(error_rate {record['failed'] / record['attempted']:.4g})")
    print(f"# python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']} (affinity {env['affinity']}), "
          + ", ".join(f"{k}={v}" for k, v in env["threads"].items()))
    print(f"# times scaled by {res['scale']:.4g}: calibration kernel "
          f"{res['kernel_s'] * 1e3:.4g} ms (median of {res['kernel_samples']}) "
          f"against {speed.REFERENCE_S * 1e3:.4g} ms")
    if not trace:
        print("# unscaled wall: " + ", ".join(f"{k} {v:.6g}" for k, v in res["wall"].items()))
        print(f"# call_s_p90 {res['call_s_p90']:.6g} s over {res['calls']} calls "
              "(printed only; too few pipeline calls for a steady 90th percentile)")
    for name, m in record["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for failure in res["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)


def main(argv=None):
    names = [name for name, _ in spec.WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "linmatch").is_dir():
        raise SystemExit(f"no linmatch sources under {ROOT / 'src'}")

    if args.all:
        spec.write_benchmark_json(ROOT)
        ok = True
        for workload in names:
            for trace in (0, 1):
                record, res = run(workload, args.seed, args.seconds, trace)
                report(workload, args.seed, trace, record, res)
                ok = ok and record["correct"]
        return 0 if ok else 1

    record, res = run(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, args.seed, args.trace, record, res)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
