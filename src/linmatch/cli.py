"""Command-line entry point: synthesis, matching, evaluation, training, benchmarks.

Subcommands: `synth`, `match`, `eval`, `bench`, `train-toy`, `gradcheck`.
Every subcommand accepts `--seed`, `--config <json>` and `-o <dir>`;
configuration precedence is dataclass defaults, then config-file
sections, then explicit flags.  Unknown config sections or keys are rejected
up front.  `match` takes its network from the weight file, which states it
whole: a `network` section may only repeat it.  All randomness derives from
the single seed through stable per-module streams, so any subcommand rerun
with the same seed and the same BLAS thread count reproduces its outputs
byte for byte.

Exit codes: 0 success, 1 failed numeric check, 2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bench import bench_attention, op_counter_audit
from .encoder import NetworkConfig, load_weights, save_weights
from .geometry import (
    GenNoiseConfig,
    generate_pair,
    read_ground_truth,
    read_homography,
    read_kpds,
    write_ground_truth,
    write_homography,
    write_kpds,
)
from .matcher import (
    FilterConfig,
    evaluate,
    match_pipeline,
    read_matches,
    write_matches,
)
from .neighborhood import NeighborhoodConfig
from .training import (
    LossConfig,
    gradient_check,
    train_toy,
    write_loss_trace,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


class DataError(Exception):
    """Missing or malformed input data; maps to exit code 3."""


@dataclass
class BenchConfig:
    sizes: tuple = (1024, 2048, 4096, 8192)
    reps: int = 5
    c_prime: int = 64
    methods: tuple = ("linear", "softmax")

    def __post_init__(self):  # bench_attention checks the values
        self.sizes = tuple(self.sizes)
        self.methods = tuple(map(str, self.methods))


_CONFIG_SECTIONS = {
    "network": NetworkConfig,
    "neighborhood": NeighborhoodConfig,
    "filter": FilterConfig,
    "loss": LossConfig,
    "noise": GenNoiseConfig,
    "bench": BenchConfig,
}

# the network flags' defaults of train-toy and gradcheck, below the config file
_TOY_NETWORK = {"input_dim": 32, "hidden_dim": 16, "heads": 2, "l1": 2, "l2": 1}
_GRADCHECK_NETWORK = {"input_dim": 8, "hidden_dim": 4, "heads": 1, "l1": 1, "l2": 0}

# fixed stream tags so each module draws from its own child of --seed
_STREAMS = {"synth": 1, "filter": 2, "train": 3, "scene": 4}


def _child_seed(seed: int, stream: str, index: int = 0) -> int:
    ss = np.random.SeedSequence([seed, _STREAMS[stream], index])
    return int(ss.generate_state(1)[0])


def _load_file_sections(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except ValueError as e:  # not JSON, or not UTF-8 text
        raise UsageError(f"config file is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object of sections")
    unknown = sorted(set(raw) - set(_CONFIG_SECTIONS))
    if unknown:
        raise UsageError(f"unknown config sections: {unknown}")
    for name, body in raw.items():
        if not isinstance(body, dict):
            raise UsageError(f"config section {name!r} must be an object")
        bad = sorted(set(body) - {f.name for f in dataclasses.fields(_CONFIG_SECTIONS[name])})
        if bad:
            raise UsageError(f"unknown keys in config section {name!r}: {bad}")
    return raw


def _section(sections: dict, name: str, cls, defaults=None, **flag_values):
    """Instantiate a config dataclass: defaults < config file < flags.

    `defaults` supplies values that sit below the config file, such as a
    subcommand's own defaults or values derived from --seed, so an explicit
    file entry still wins over them.
    """
    body = dict(defaults or {})
    body.update(sections.get(name, {}))
    body.update({k: v for k, v in flag_values.items() if v is not None})
    try:
        return cls(**body)
    except (TypeError, ValueError) as e:
        raise UsageError(f"invalid {name} config: {e}")


def _out_dir(output: Path | None) -> Path:
    out = output or Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as e:
        raise UsageError(f"output directory not writable: {e}")
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")  # tuples as lists


def _read_input(reader, path, what):
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} file not found: {p}")
    try:
        return reader(p)
    except (ValueError, OverflowError) as e:  # OverflowError: an index beyond intp
        raise DataError(f"{p}: {e}")


# ---------------------------------------------------------------- synth

def cmd_synth(args, sections) -> int:
    if not 0 <= (args.min_matches or 0) <= args.kpts:
        raise UsageError("--min-matches must lie between 0 and --kpts")
    out = _out_dir(args.output)
    noise = _section(sections, "noise", GenNoiseConfig, desc_sigma=args.desc_sigma,
                     jitter_sigma=args.jitter_sigma, distractors=args.distractors)
    entries = []
    for k in range(args.pairs):
        child = _child_seed(args.seed, "synth", k)
        try:
            ks, kt, gt, h = generate_pair(child, args.kpts, args.dims, args.desc_dim,
                                          noise, min_matches=args.min_matches)
        except RuntimeError as e:  # reachable, but not reached by these seeds
            print(f"synth failed: {e}", file=sys.stderr)
            return EXIT_FAILED_CHECK
        name = f"pair{k:04d}"
        pdir = out / name
        pdir.mkdir(exist_ok=True)
        write_kpds(pdir / "source.kpds", ks)
        write_kpds(pdir / "target.kpds", kt)
        write_ground_truth(pdir / "gt.csv", gt)
        write_homography(pdir / "homography.txt", h)
        entries.append({
            "name": name, "seed": child,
            "source": f"{name}/source.kpds", "target": f"{name}/target.kpds",
            "gt": f"{name}/gt.csv", "homography": f"{name}/homography.txt",
            "n_source": len(ks), "n_target": len(kt),
            "n_correspondences": len(gt.pairs),
        })
    manifest = {"seed": args.seed, "keypoints": args.kpts,
                "descriptor_dim": args.desc_dim, "dims": list(args.dims),
                "pairs": entries}
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {args.pairs} pairs ({args.kpts} keypoints each) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------- match

def cmd_match(args, sections) -> int:
    ks = _read_input(read_kpds, args.source, "source keypoint")
    kt = _read_input(read_kpds, args.target, "target keypoint")
    weights = _read_input(load_weights, args.weights, "weight")
    recorded = weights.config()
    for key, value in sections.get("network", {}).items():
        if value != getattr(recorded, key):
            raise UsageError(f"config network {key} is {value!r}, "
                             f"{args.weights} records {getattr(recorded, key)!r}")
    if args.skip_pairwise:
        weights = dataclasses.replace(weights, pair_layers=[])
    net = weights.config()

    for side, kset in (("source", ks), ("target", kt)):
        d = kset.descriptors.shape[1]
        if d != net.input_dim:
            raise DataError(f"{side} descriptor dim {d} does not match "
                            f"weight input dim {net.input_dim}")

    neigh = _section(sections, "neighborhood", NeighborhoodConfig, theta=args.theta)
    fcfg = _section(sections, "filter", FilterConfig,
                    defaults={"rng_seed": _child_seed(args.seed, "filter")})

    try:
        result = match_pipeline(ks, kt, weights, net, neigh, fcfg, skip_filter=args.no_filter)
    except ValueError as e:  # encodings overflowed
        raise DataError(str(e))
    out = _out_dir(args.output)
    write_matches(out / "matches.csv", result)
    print(f"{len(result)} matches ({result.stage.count('verified')} verified) written to "
          f"{out / 'matches.csv'}")
    return EXIT_OK


# ----------------------------------------------------------------- eval

def cmd_eval(args, sections) -> int:
    m = _read_input(read_matches, args.matches, "match")
    ks = _read_input(read_kpds, args.source, "source keypoint")
    kt = _read_input(read_kpds, args.target, "target keypoint")
    gt = _read_input(read_ground_truth, args.gt, "ground-truth")
    h = _read_input(read_homography, args.homography, "homography")
    try:
        metrics = evaluate(m, gt, h, ks, kt)
    except ValueError as e:
        raise DataError(str(e))
    out = _out_dir(args.output)
    mma = {str(t): v for t, v in metrics.mma.items()}  # keys sort as text: "10" after "1"
    _write_json(out / "metrics.json", {**vars(metrics), "mma": mma})
    print(f"precision {metrics.precision:.4f}  recall {metrics.recall:.4f}  "
          f"matches {metrics.num_matches}  -> {out / 'metrics.json'}")
    return EXIT_OK


# ---------------------------------------------------------------- bench

def cmd_bench(args, sections) -> int:
    out = _out_dir(args.output)
    if args.mode == "audit":  # a failed audit raises AssertionError, which exits 1
        counts = op_counter_audit(seed=args.seed)
        _write_json(out / "audit.json", counts)
        print(f"audit ok: {counts['linear_multiplies']} multiplies "
              f"(bound {counts['linear_bound']}) -> {out / 'audit.json'}")
        return EXIT_OK

    cfg = _section(sections, "bench", BenchConfig, sizes=args.sizes, reps=args.reps,
                   c_prime=args.c_prime, methods=args.methods)
    try:
        record = bench_attention(**vars(cfg), seed=args.seed)
    except ValueError as e:
        raise UsageError(f"invalid bench config: {e}")
    _write_json(out / "bench.json", record)
    for method, entry in sorted(record["methods"].items()):
        print(f"{method}: slope {entry['slope']:.3f}")
    print(f"report -> {out / 'bench.json'}")
    return EXIT_OK


# ------------------------------------------------------------ train-toy

def cmd_train_toy(args, sections) -> int:
    net = _section(sections, "network", NetworkConfig, _TOY_NETWORK,
                   input_dim=args.desc_dim, hidden_dim=args.hidden, heads=args.heads,
                   l1=args.l1, l2=args.l2)
    loss = _section(sections, "loss", LossConfig, learning_rate=args.lr,
                    decay=args.decay)
    noise = _section(sections, "noise", GenNoiseConfig, desc_sigma=args.desc_sigma,
                     jitter_sigma=args.jitter_sigma, distractors=args.distractors)
    neigh = _section(sections, "neighborhood", NeighborhoodConfig)
    dataset = []
    for k in range(args.pairs):
        ks, kt, gt, _ = generate_pair(_child_seed(args.seed, "scene", k), args.kpts,
                                      args.dims, net.input_dim, noise)
        if min(len(ks), len(kt)) >= 2 and len(gt.pairs):  # what the loss can train on
            dataset.append((ks, kt, gt))
    if len(dataset) < args.pairs:  # with none left, train_toy refuses the empty dataset
        print(f"skipped {args.pairs - len(dataset)} of {args.pairs} generated scenes: the loss "
              "needs at least 2 keypoints per side and a correspondence", file=sys.stderr)
    try:
        weights, trace = train_toy(dataset, net, loss, args.steps,
                                   seed=_child_seed(args.seed, "train"), neigh_cfg=neigh)
        out = _out_dir(args.output)
        save_weights(out / "weights.lawt", weights)
    except (RuntimeError, ValueError) as e:  # non-finite loss, a scene it cannot train on,
        print(f"training aborted: {e}", file=sys.stderr)  # or a weight float32 cannot hold
        return EXIT_FAILED_CHECK
    write_loss_trace(out / "trace.csv", trace)
    print(f"loss {trace[0][1]:.6f} -> {trace[-1][1]:.6f} over {args.steps} steps; "
          f"weights -> {out / 'weights.lawt'}")
    return EXIT_OK


# ------------------------------------------------------------ gradcheck

def cmd_gradcheck(args, sections) -> int:
    if not 0 < args.step < 1:
        raise UsageError("--step must lie in (0, 1)")
    if not 0 < args.tol < np.inf:  # written so that NaN fails too
        raise UsageError("--tol must be a positive finite number")
    net = _section(sections, "network", NetworkConfig, _GRADCHECK_NETWORK,
                   input_dim=args.input_dim, hidden_dim=args.hidden, heads=args.heads,
                   l1=args.l1, l2=args.l2)
    loss = _section(sections, "loss", LossConfig)
    dtype = np.float64 if args.precision == "double" else np.float32
    errors = gradient_check(net, loss, seed=args.seed, samples=args.samples,
                            step=args.step, dtype=dtype)
    print(f"max relative error {errors.max():.3e} over {len(errors)} entries "
          f"({(errors < args.tol).mean() * 100:.1f}% within {args.tol:g})")
    return EXIT_OK if errors.max() < args.tol else EXIT_FAILED_CHECK


# --------------------------------------------------------------- parser

def _parse_dims(text: str):
    try:
        w, h = text.lower().split("x")
        dims = (int(w), int(h))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must look like 640x480, got {text!r}")
    if not all(0 < side <= 0xFFFFFFFF for side in dims):  # a .kpds header holds u32 sides
        raise argparse.ArgumentTypeError(f"dims must be positive and at most {0xFFFFFFFF}")
    return dims


def _at_least(low: int):
    """An argparse type for counts: an int of at least `low`, else a usage error."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def _parse_sizes(text: str):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated ints, got {text!r}")


def _parse_methods(text: str):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linmatch",
        description="Sparse keypoint matching with linear-time attention.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_at_least(0), default=0,
                        help="global random seed (default 0)")
    common.add_argument("--config", type=Path, default=None,
                        help="JSON config file with per-module sections")
    common.add_argument("-o", "--output", type=Path, default=None,
                        help="output directory (default current directory)")
    sub = parser.add_subparsers(dest="command", required=True)

    sy = sub.add_parser("synth", parents=[common],
                        help="generate labelled synthetic pairs")
    sy.add_argument("--pairs", type=_at_least(1), default=10)
    sy.add_argument("--kpts", type=_at_least(1), default=512)
    sy.add_argument("--dims", type=_parse_dims, default=(640, 480))
    sy.add_argument("--desc-dim", type=_at_least(1), default=256)
    sy.add_argument("--desc-sigma", type=float, default=None)
    sy.add_argument("--jitter-sigma", type=float, default=None)
    sy.add_argument("--distractors", type=int, default=None)
    sy.add_argument("--min-matches", type=int, default=None)
    sy.set_defaults(func=cmd_synth)

    ma = sub.add_parser("match", parents=[common],
                        help="match two keypoint files with trained weights")
    ma.add_argument("source", help="source .kpds file")
    ma.add_argument("target", help="target .kpds file")
    ma.add_argument("--weights", required=True, help="weight .lawt file")
    ma.add_argument("--theta", type=float, default=None,
                    help="distance-ratio acceptance threshold")
    ma.add_argument("--no-filter", action="store_true",
                    help="emit unfiltered candidates (distance matching only)")
    ma.add_argument("--skip-pairwise", action="store_true",
                    help="drop the neighborhood attention layers")
    ma.set_defaults(func=cmd_match)

    ev = sub.add_parser("eval", parents=[common],
                        help="score a match file against ground truth")
    ev.add_argument("--matches", required=True)
    ev.add_argument("--source", required=True)
    ev.add_argument("--target", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--homography", required=True)
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", parents=[common],
                        help="measure runtime scaling or audit op counts")
    be.add_argument("--mode", choices=("attention", "audit"),
                    default="attention")
    be.add_argument("--sizes", type=_parse_sizes, default=None)
    be.add_argument("--methods", type=_parse_methods, default=None)
    be.add_argument("--reps", type=int, default=None)
    be.add_argument("--c-prime", dest="c_prime", type=int, default=None)
    be.set_defaults(func=cmd_bench)

    tr = sub.add_parser("train-toy", parents=[common],
                        help="train a small network on synthetic pairs")
    tr.add_argument("--pairs", type=_at_least(1), default=200)
    tr.add_argument("--kpts", type=_at_least(2), default=128,
                    help="keypoints per scene, at least 2: the loss mines a negative per side")
    tr.add_argument("--dims", type=_parse_dims, default=(256, 256))
    tr.add_argument("--desc-dim", type=int)
    tr.add_argument("--hidden", type=int)
    tr.add_argument("--heads", type=int)
    tr.add_argument("--l1", type=int)
    tr.add_argument("--l2", type=int)
    tr.add_argument("--steps", type=_at_least(1), default=300)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--decay", type=float, default=None)
    tr.add_argument("--desc-sigma", type=float, default=None)
    tr.add_argument("--jitter-sigma", type=float, default=None)
    tr.add_argument("--distractors", type=int, default=None)
    tr.set_defaults(func=cmd_train_toy)

    gc = sub.add_parser("gradcheck", parents=[common],
                        help="compare analytic gradients with finite differences")
    gc.add_argument("--precision", choices=("single", "double"), default="double")
    gc.add_argument("--samples", type=_at_least(1), default=256)
    gc.add_argument("--step", type=float, default=1e-5)
    gc.add_argument("--tol", type=float, default=1e-4)
    gc.add_argument("--input-dim", type=int)
    gc.add_argument("--hidden", type=int)
    gc.add_argument("--heads", type=int)
    gc.add_argument("--l1", type=int)
    gc.add_argument("--l2", type=int)
    gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # every subcommand refuses a bad config file before it reads any input
        return args.func(args, _load_file_sections(args.config))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except AssertionError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_FAILED_CHECK


if __name__ == "__main__":
    sys.exit(main())
