"""End-to-end command-line tests: exit codes, file outputs, determinism."""

import dataclasses
import hashlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from linmatch import cli
from linmatch.cli import main
from linmatch.encoder import (
    NetworkConfig,
    init_weights,
    load_weights,
    save_weights,
    write_tensor_table,
)
from linmatch.geometry import KeypointSet, read_ground_truth, read_kpds, write_kpds
from linmatch.matcher import MatchSet, read_matches, write_matches
from linmatch.training import LossConfig, gradient_check


def run_cli(argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as e:  # argparse's own usage failures
        return e.code


SYNTH_ARGS = ["--pairs", 2, "--kpts", 40, "--dims", "160x120", "--desc-dim", 8]


def synth_dataset(out_dir, seed=7):
    code = run_cli(["synth", *SYNTH_ARGS, "--seed", seed, "-o", out_dir])
    assert code == 0
    return out_dir


def small_weights_file(path, l2=1, input_dim=8, seed=3):
    cfg = NetworkConfig(input_dim=input_dim, hidden_dim=8, heads=2, l1=1, l2=l2)
    save_weights(path, init_weights(cfg, seed=seed))
    return path


def test_synth_layout_and_manifest(tmp_path):
    out = synth_dataset(tmp_path / "data")
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["pairs"]) == 2
    for entry in manifest["pairs"]:
        pdir = out / entry["name"]
        for key in ("source", "target", "gt", "homography"):
            assert (out / entry[key]).is_file()
        ks = read_kpds(pdir / "source.kpds")
        assert len(ks) == 40
        assert entry["n_correspondences"] > 0


def test_synth_same_seed_byte_identical(tmp_path):
    a = synth_dataset(tmp_path / "a", seed=11)
    b = synth_dataset(tmp_path / "b", seed=11)
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_synth_gt_csv_bytes_are_pinned(tmp_path):
    # SHA-256 of the gt.csv written when ground truth was still a list of tuples;
    # 35 of the 64 keypoints pair up under this jitter and these distractors
    run_cli(["synth", "--pairs", 1, "--kpts", 64, "--dims", "320x240", "--desc-dim", 8,
             "--jitter-sigma", 2, "--distractors", 10, "--seed", 0, "-o", tmp_path])
    raw = (tmp_path / "pair0000" / "gt.csv").read_bytes()
    assert raw.count(b"\n") == 35
    assert hashlib.sha256(raw).hexdigest() == \
        "ba1841548c6e53f7f8a8217dab9f87919d3f4e944cb8f817619e5da05c22be6a"


def test_synth_usage_errors(tmp_path):
    assert run_cli(["synth", "--pairs", 1, "--kpts", 0, "-o", tmp_path / "x"]) == 2
    assert run_cli(["synth", "--pairs", 0, "--kpts", 4, "-o", tmp_path / "x"]) == 2
    # the flag is gone: results depend on the BLAS thread count, which the environment sets
    assert run_cli(["synth", *SYNTH_ARGS, "--threads", 1, "-o", tmp_path / "x"]) == 2
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli(["synth", *SYNTH_ARGS, "-o", blocker]) == 2


def test_match_end_to_end(tmp_path, capsys):
    data = synth_dataset(tmp_path / "data")
    weights = small_weights_file(tmp_path / "w.lawt")
    out = tmp_path / "run"
    code = run_cli(["match", data / "pair0000" / "source.kpds",
                    data / "pair0000" / "target.kpds", "--weights", weights,
                    "--seed", 5, "-o", out])
    assert code == 0
    m = read_matches(out / "matches.csv")
    assert "matches" in capsys.readouterr().out
    assert all(s in ("seed", "candidate", "verified") for s in m.stage)


def test_match_dim_mismatch_names_both_dims(tmp_path, capsys):
    data = synth_dataset(tmp_path / "data")
    weights = small_weights_file(tmp_path / "w.lawt", input_dim=16)
    code = run_cli(["match", data / "pair0000" / "source.kpds",
                    data / "pair0000" / "target.kpds", "--weights", weights,
                    "-o", tmp_path / "run"])
    assert code == 3
    err = capsys.readouterr().err
    assert "8" in err and "16" in err


@pytest.mark.parametrize("empty", ["source", "target", "both"])
def test_match_with_an_empty_side_writes_only_the_header(tmp_path, empty):
    data = synth_dataset(tmp_path / "data")
    none = tmp_path / "none.kpds"
    write_kpds(none, KeypointSet(np.zeros((0, 2)), np.zeros((0, 8)), 160, 120))
    src = none if empty != "target" else data / "pair0000" / "source.kpds"
    tgt = none if empty != "source" else data / "pair0000" / "target.kpds"
    assert run_cli(["match", src, tgt, "--weights", small_weights_file(tmp_path / "w.lawt"),
                    "-o", tmp_path / "run"]) == 0
    assert (tmp_path / "run" / "matches.csv").read_text() == "i,j,score,stage\n"


def test_match_missing_inputs_exit_3(tmp_path):
    data = synth_dataset(tmp_path / "data")
    src = data / "pair0000" / "source.kpds"
    tgt = data / "pair0000" / "target.kpds"
    assert run_cli(["match", src, tgt, "--weights", tmp_path / "absent.lawt",
                    "-o", tmp_path / "r"]) == 3
    weights = small_weights_file(tmp_path / "w.lawt")
    assert run_cli(["match", tmp_path / "absent.kpds", tgt,
                    "--weights", weights, "-o", tmp_path / "r"]) == 3


def test_match_no_filter_is_superset(tmp_path):
    data = synth_dataset(tmp_path / "data")
    weights = small_weights_file(tmp_path / "w.lawt")
    src = data / "pair0000" / "source.kpds"
    tgt = data / "pair0000" / "target.kpds"
    a, b = tmp_path / "filtered", tmp_path / "unfiltered"
    assert run_cli(["match", src, tgt, "--weights", weights, "--seed", 5,
                    "-o", a]) == 0
    assert run_cli(["match", src, tgt, "--weights", weights, "--seed", 5,
                    "--no-filter", "-o", b]) == 0
    filtered = set(map(tuple, read_matches(a / "matches.csv").pairs.tolist()))
    unfiltered = set(map(tuple, read_matches(b / "matches.csv").pairs.tolist()))
    assert filtered <= unfiltered


def test_match_self_pair_is_diagonal(tmp_path):
    data = synth_dataset(tmp_path / "data")
    weights = small_weights_file(tmp_path / "w.lawt")
    src = data / "pair0000" / "source.kpds"
    out = tmp_path / "self"
    assert run_cli(["match", src, src, "--weights", weights, "--no-filter",
                    "-o", out]) == 0
    m = read_matches(out / "matches.csv")
    assert len(m) > 0
    assert (m.pairs[:, 0] == m.pairs[:, 1]).all()


def test_match_skip_pairwise(tmp_path):
    data = synth_dataset(tmp_path / "data")
    weights = small_weights_file(tmp_path / "w.lawt", l2=2)
    out = tmp_path / "run"
    assert run_cli(["match", data / "pair0000" / "source.kpds",
                    data / "pair0000" / "target.kpds", "--weights", weights,
                    "--skip-pairwise", "-o", out]) == 0
    assert (out / "matches.csv").is_file()


def test_eval_perfect_matches(tmp_path):
    data = synth_dataset(tmp_path / "data")
    pdir = data / "pair0000"
    ks = read_kpds(pdir / "source.kpds")
    kt = read_kpds(pdir / "target.kpds")
    gt = read_ground_truth(pdir / "gt.csv")
    assert gt.pairs.max(axis=0).tolist() < [len(ks), len(kt)]
    perfect = MatchSet(gt.pairs, np.ones(len(gt.pairs)), ["verified"] * len(gt.pairs))
    write_matches(tmp_path / "matches.csv", perfect)
    out = tmp_path / "metrics"
    code = run_cli(["eval", "--matches", tmp_path / "matches.csv",
                    "--source", pdir / "source.kpds",
                    "--target", pdir / "target.kpds",
                    "--gt", pdir / "gt.csv",
                    "--homography", pdir / "homography.txt", "-o", out])
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == 1.0
    assert all(v == 1.0 for v in metrics["mma"].values())


def test_truncated_kpds_is_data_error_at_every_offset(tmp_path, capsys):
    good = tmp_path / "good.kpds"
    write_kpds(good, KeypointSet(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                 np.arange(6.0).reshape(2, 3), 8, 8))
    raw = good.read_bytes()
    weights = small_weights_file(tmp_path / "w.lawt", input_dim=3)
    cut = tmp_path / "cut.kpds"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError):
            read_kpds(cut)
        assert run_cli(["match", cut, good, "--weights", weights,
                        "-o", tmp_path / "r"]) == 3, size
    assert "Traceback" not in capsys.readouterr().err


# byte offsets of the first keypoint and of the first descriptor (SYNTH_ARGS: 40 keypoints);
# a finite 3e38 descriptor overflows the encodings, because linear attention sums all rows
@pytest.mark.parametrize("offset", [24, 24 + 2 * 4 * 40])
@pytest.mark.parametrize("value", [np.nan, np.inf, 3e38])
def test_match_non_finite_input_exit_3(tmp_path, capsys, offset, value):
    data = synth_dataset(tmp_path / "data")
    src = data / "pair0000" / "source.kpds"
    raw = bytearray(src.read_bytes())
    raw[offset:offset + 4] = np.float32(value).tobytes()
    bad = tmp_path / "bad.kpds"
    bad.write_bytes(bytes(raw))
    weights = small_weights_file(tmp_path / "w.lawt")
    capsys.readouterr()  # drop synth's output
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy RuntimeWarning on the way fails the run
        assert run_cli(["match", bad, data / "pair0000" / "target.kpds",
                        "--weights", weights, "-o", tmp_path / "r"]) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1  # the error line alone


def test_match_overflowing_weight_exit_3(tmp_path, capsys):
    data = synth_dataset(tmp_path / "data")
    weights = init_weights(NetworkConfig(input_dim=8, hidden_dim=8, heads=2, l1=1, l2=1), seed=3)
    weights.self_layers[0].wq[0, 0] = 3e38  # finite, and valid at load
    save_weights(tmp_path / "w.lawt", weights)
    with np.errstate(all="ignore"):
        code = run_cli(["match", data / "pair0000" / "source.kpds",
                        data / "pair0000" / "target.kpds",
                        "--weights", tmp_path / "w.lawt", "-o", tmp_path / "r"])
    assert code == 3
    assert "non-finite encodings" in capsys.readouterr().err
    assert not (tmp_path / "r" / "matches.csv").exists()


# each turns the entries of a small_weights_file (l1=1, l2=1) into names off its layout
OFF_LAYOUT = {
    "extra tensor": lambda e: e + [("layer2.cross.wq", e[-1][1])],
    "unknown kind": lambda e: e + [("layer0.bogus.wq", e[0][1])],
    "stray layer index": lambda e: [(n.replace("layer0.cross.", "layer5.cross."), v)
                                    for n, v in e],
    "pair layer at wrong index": lambda e: [(n.replace("layer1.pair.", "layer0.pair."), v)
                                            for n, v in e],
    "missing tensor": lambda e: [(n, v) for n, v in e if n != "layer0.cross.wk"],
    "repeated name": lambda e: e + [e[0]],
}


@pytest.mark.parametrize("case", sorted(OFF_LAYOUT))
def test_match_weights_off_the_layout_exit_3(tmp_path, capsys, case):
    data = synth_dataset(tmp_path / "data")
    entries = load_weights(small_weights_file(tmp_path / "w.lawt")).all_params()
    write_tensor_table(tmp_path / "bad.lawt", OFF_LAYOUT[case](entries), {"heads": 2})
    with pytest.raises(ValueError):
        load_weights(tmp_path / "bad.lawt")
    capsys.readouterr()  # drop synth's output
    assert run_cli(["match", data / "pair0000" / "source.kpds",
                    data / "pair0000" / "target.kpds",
                    "--weights", tmp_path / "bad.lawt", "-o", tmp_path / "r"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "r" / "matches.csv").exists()


@pytest.mark.parametrize("shape", [(64,), (8, 4, 2)])
def test_match_first_projection_not_2d_exit_3(tmp_path, capsys, shape):
    """The widths are read from layer0.self.wq, so its rank is checked before anything else."""
    data = synth_dataset(tmp_path / "data")
    entries = load_weights(small_weights_file(tmp_path / "w.lawt")).all_params()
    entries = [(n, np.zeros(shape) if n == "layer0.self.wq" else v) for n, v in entries]
    write_tensor_table(tmp_path / "bad.lawt", entries, {"heads": 2})
    capsys.readouterr()  # drop synth's output
    assert run_cli(["match", data / "pair0000" / "source.kpds",
                    data / "pair0000" / "target.kpds",
                    "--weights", tmp_path / "bad.lawt", "-o", tmp_path / "r"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "layer0.self.wq" in err and str(shape) in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_eval_non_finite_homography_exit_3(tmp_path, capsys, value):
    data = synth_dataset(tmp_path / "data")
    pdir = data / "pair0000"
    gt = read_ground_truth(pdir / "gt.csv")
    write_matches(tmp_path / "matches.csv", MatchSet(
        gt.pairs, np.ones(len(gt.pairs)), ["verified"] * len(gt.pairs)))
    (tmp_path / "h.txt").write_text(f"1 0 {value}\n0 1 0\n0 0 1\n")
    capsys.readouterr()  # drop synth's output
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy RuntimeWarning on the way fails the run
        assert run_cli(["eval", "--matches", tmp_path / "matches.csv",
                        "--source", pdir / "source.kpds",
                        "--target", pdir / "target.kpds",
                        "--gt", pdir / "gt.csv",
                        "--homography", tmp_path / "h.txt", "-o", tmp_path / "m"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "finite" in err
    assert not (tmp_path / "m" / "metrics.json").exists()


@pytest.mark.parametrize("row", ["9999,0", "0,9999", "-1,0", "0,99999999999999999999"])
def test_eval_out_of_range_index_exit_3(tmp_path, row):
    data = synth_dataset(tmp_path / "data")
    pdir = data / "pair0000"
    (tmp_path / "matches.csv").write_text(f"i,j,score,stage\n{row},1.0,verified\n")
    assert run_cli(["eval", "--matches", tmp_path / "matches.csv",
                    "--source", pdir / "source.kpds",
                    "--target", pdir / "target.kpds",
                    "--gt", pdir / "gt.csv",
                    "--homography", pdir / "homography.txt",
                    "-o", tmp_path / "m"]) == 3


# SYNTH_ARGS scenes have 40 keypoints per side, so 40 is one past the last index;
# no row shares an index with the file's own pairs, which would fail another check
@pytest.mark.parametrize("row", ["-1,-2", "40,41", "99999999999999999999,-1"])
def test_eval_ground_truth_out_of_range_exit_3(tmp_path, capsys, row):
    data = synth_dataset(tmp_path / "data")
    pdir = data / "pair0000"
    gt = read_ground_truth(pdir / "gt.csv")
    write_matches(tmp_path / "matches.csv", MatchSet(
        gt.pairs, np.ones(len(gt.pairs)), ["verified"] * len(gt.pairs)))
    (tmp_path / "gt.csv").write_text((pdir / "gt.csv").read_text() + row + "\n")
    capsys.readouterr()  # drop synth's output
    assert run_cli(["eval", "--matches", tmp_path / "matches.csv",
                    "--source", pdir / "source.kpds",
                    "--target", pdir / "target.kpds",
                    "--gt", tmp_path / "gt.csv",
                    "--homography", pdir / "homography.txt",
                    "-o", tmp_path / "m"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "m" / "metrics.json").exists()


def test_eval_missing_file_exit_3(tmp_path):
    data = synth_dataset(tmp_path / "data")
    pdir = data / "pair0000"
    assert run_cli(["eval", "--matches", tmp_path / "none.csv",
                    "--source", pdir / "source.kpds",
                    "--target", pdir / "target.kpds",
                    "--gt", pdir / "gt.csv",
                    "--homography", pdir / "homography.txt",
                    "-o", tmp_path / "m"]) == 3


def test_bench_attention_cli(tmp_path, capsys):
    out = tmp_path / "bench"
    code = run_cli(["bench", "--sizes", "64,256", "--methods", "linear",
                    "--reps", 3, "--c-prime", 8, "-o", out])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["bench.json"]
    payload = json.loads((out / "bench.json").read_text())
    assert list(payload["methods"]) == ["linear"]
    assert [p["n"] for p in payload["methods"]["linear"]["points"]] == [64, 256]
    printed = capsys.readouterr().out
    assert "linear: slope" in printed and printed.endswith(f"{out / 'bench.json'}\n")


def test_bench_single_size_is_usage_error(tmp_path):
    assert run_cli(["bench", "--sizes", "64", "-o", tmp_path / "b"]) == 2


def test_bench_audit_cli(tmp_path):
    out = tmp_path / "audit"
    assert run_cli(["bench", "--mode", "audit", "-o", out]) == 0
    payload = json.loads((out / "audit.json").read_text())
    assert payload["linear_multiplies"] <= payload["linear_bound"]


def test_bench_pipeline_mode_is_gone(tmp_path, capsys):
    """End-to-end and per-stage timing lives in perfbench/, not in `bench`."""
    assert run_cli(["bench", "--mode", "pipeline", "-o", tmp_path / "b"]) == 2
    assert "invalid choice: 'pipeline'" in capsys.readouterr().err


def test_config_file_validation(tmp_path):
    bad_section = tmp_path / "a.json"
    bad_section.write_text(json.dumps({"warp": {}}))
    assert run_cli(["synth", *SYNTH_ARGS, "--config", bad_section,
                    "-o", tmp_path / "o1"]) == 2
    bad_key = tmp_path / "b.json"
    bad_key.write_text(json.dumps({"noise": {"desc_sigma": 0.1, "wobble": 2}}))
    assert run_cli(["synth", *SYNTH_ARGS, "--config", bad_key,
                    "-o", tmp_path / "o2"]) == 2
    dropped_key = tmp_path / "d.json"  # once accepted, then ignored
    for body in ({"bench": {"px_per_keypoint": 50}}, {"filter": {"keep_subminimal": True}}):
        dropped_key.write_text(json.dumps(body))
        assert run_cli(["synth", *SYNTH_ARGS, "--config", dropped_key,
                        "-o", tmp_path / "o5"]) == 2
    not_json = tmp_path / "c.json"
    for raw in (b"{nope", b"\xff\xfe{}"):  # the second is not UTF-8 text
        not_json.write_bytes(raw)
        assert run_cli(["synth", *SYNTH_ARGS, "--config", not_json,
                        "-o", tmp_path / "o3"]) == 2
    assert run_cli(["synth", *SYNTH_ARGS, "--config", tmp_path / "ghost.json",
                    "-o", tmp_path / "o4"]) == 2


TRAIN_ARGS = ["--pairs", 2, "--kpts", 12, "--dims", "96x96", "--desc-dim", 8,
              "--hidden", 8, "--heads", 2, "--l1", 1, "--l2", 0, "--steps", 3]


@pytest.mark.parametrize("body", [{"reps": "x"}, {"sizes": 5}, {"c_prime": [1]}, {"methods": 3}],
                         ids=lambda body: next(iter(body)))
def test_malformed_bench_section_is_usage_error(tmp_path, capsys, body):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"bench": body}))
    assert run_cli(["bench", "--config", cfg, "-o", tmp_path / "o"]) == 2
    assert "invalid bench config" in capsys.readouterr().err


@pytest.mark.parametrize("body", [{"reps": 3.7}, {"reps": float("inf")}, {"c_prime": 8.5},
                                  {"sizes": [64.9, 256]}, {"sizes": [64, float("inf")]}],
                         ids=["reps-3.7", "reps-inf", "c_prime-8.5", "sizes-64.9", "sizes-inf"])
def test_non_integer_bench_value_is_usage_error(tmp_path, capsys, body):
    cfg = tmp_path / "bench.json"  # a fraction was once truncated, and Infinity a traceback
    cfg.write_text(json.dumps({"bench": {"sizes": [64, 256], "reps": 3, "c_prime": 8,
                                         "methods": ["linear"], **body}}))
    assert run_cli(["bench", "--config", cfg, "-o", tmp_path / "o"]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_bench_section_sits_below_flags(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"bench": {"sizes": [64, 256], "reps": 4, "c_prime": 8,
                                         "methods": ["linear"]}}))
    for flags, reps in (([], 4), (["--reps", 3], 3)):
        out = tmp_path / f"o{reps}"
        assert run_cli(["bench", "--config", cfg, *flags, "-o", out]) == 0
        payload = json.loads((out / "bench.json").read_text())
        assert payload["reps"] == reps and list(payload["methods"]) == ["linear"]


@pytest.fixture(scope="module")
def match_argv(tmp_path_factory):
    data = synth_dataset(tmp_path_factory.mktemp("match"))
    return ["match", data / "pair0000" / "source.kpds", data / "pair0000" / "target.kpds",
            "--weights", small_weights_file(data / "w.lawt")]


class SectionsBuilt(Exception):
    """Raised in place of a subcommand's work, after it has built its config sections."""


# one case per flag that sets a config field: (command, flag, value, section, field, built
# value), each value off the dataclass default and the subcommand's own default
FLAG_FIELDS = [(command, flag, value, "noise", field, value)
               for command in ("synth", "train-toy")
               for flag, value, field in (("--desc-sigma", 0.07, "desc_sigma"),
                                          ("--jitter-sigma", 0.3, "jitter_sigma"),
                                          ("--distractors", 3, "distractors"))] + [
    (command, flag, value, "network", field, value)
    for command, dim_flag in (("train-toy", "--desc-dim"), ("gradcheck", "--input-dim"))
    for flag, value, field in ((dim_flag, 6, "input_dim"), ("--hidden", 8, "hidden_dim"),
                               ("--heads", 4, "heads"), ("--l1", 3, "l1"), ("--l2", 2, "l2"))] + [
    ("train-toy", "--lr", 0.002, "loss", "learning_rate", 0.002),
    ("train-toy", "--decay", 0.5, "loss", "decay", 0.5),
    ("match", "--theta", 0.7, "neighborhood", "theta", 0.7),
    ("bench", "--sizes", "64,256", "bench", "sizes", (64, 256)),
    ("bench", "--reps", 4, "bench", "reps", 4),
    ("bench", "--c-prime", 8, "bench", "c_prime", 8),
    ("bench", "--methods", "linear", "bench", "methods", ("linear",)),
]


@pytest.mark.parametrize("command, flag, value, section, field, expected", FLAG_FIELDS,
                         ids=[f"{command} {flag}" for command, flag, *_ in FLAG_FIELDS])
def test_each_flag_sets_its_config_field(monkeypatch, match_argv, command, flag, value, section,
                                         field, expected):
    """A flag reaches its field through its argparse dest, so a misspelled dest would be
    ignored without an error; this catches it."""
    built, section_of = {}, cli._section

    def recording(sections, name, *rest):
        built[name] = section_of(sections, name, *rest)
        return built[name]

    def stop(*args, **kwargs):
        raise SectionsBuilt

    monkeypatch.setattr(cli, "_section", recording)
    for work in ("generate_pair", "match_pipeline", "bench_attention", "gradient_check"):
        monkeypatch.setattr(cli, work, stop)
    argv = (match_argv if command == "match" else [command]) + [flag, value]
    with pytest.raises(SectionsBuilt):
        main([str(a) for a in argv])
    assert getattr(built[section], field) == expected


# every numeric key of the sections whose checks a NaN once slipped through, with the
# command that reads the section
NAN_KEYS = [("match", "neighborhood", k) for k in ("theta", "lam", "r", "r_t")] + [
    ("match", "filter", k) for k in ("ransac_iterations", "inlier_threshold_factor",
                                     "min_inliers")] + [
    ("synth", "noise", k) for k in ("desc_sigma", "jitter_sigma", "distractors")] + [
    ("train-toy", "loss", k) for k in ("m_p", "m_n", "learning_rate", "decay")]


@pytest.mark.parametrize("command, section, key", NAN_KEYS, ids=lambda v: v)
def test_nan_config_value_is_usage_error(tmp_path, capsys, match_argv, command, section, key):
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({section: {key: float("nan")}}))  # written as NaN
    argv = {"match": match_argv, "synth": ["synth", *SYNTH_ARGS],
            "train-toy": ["train-toy", *TRAIN_ARGS]}[command]
    assert run_cli([*argv, "--config", cfg, "-o", tmp_path / "o"]) == 2
    assert f"invalid {section} config" in capsys.readouterr().err


# a finite neighborhood factor whose square overflows once ended in an OverflowError traceback
@pytest.mark.parametrize("command", ["match", "train-toy"])
def test_huge_neighborhood_factor_runs(tmp_path, match_argv, command):
    cfg = tmp_path / "lam.json"
    cfg.write_text(json.dumps({"neighborhood": {"lam": 1e300}}))
    argv = match_argv if command == "match" else ["train-toy", *TRAIN_ARGS, "--l2", 1]
    assert run_cli([*argv, "--config", cfg, "-o", tmp_path / "o"]) == 0


# an infinite noise magnitude once ended in a traceback (desc_sigma) or wrote a target
# frame with no keypoint (jitter_sigma); as a flag or as a config key it is a usage error
@pytest.mark.parametrize("command", ["synth", "train-toy"])
@pytest.mark.parametrize("key", ["desc_sigma", "jitter_sigma"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_infinite_noise_magnitude_is_usage_error(tmp_path, capsys, command, key, source):
    argv = [command, *{"synth": SYNTH_ARGS, "train-toy": TRAIN_ARGS}[command]]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", "inf"]
    else:
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps({"noise": {key: float("inf")}}))  # written as Infinity
        argv += ["--config", cfg]
    assert run_cli([*argv, "-o", tmp_path / "o"]) == 2
    assert "invalid noise config" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/*"))  # nothing written


# a finite descriptor noise so large that the float32 target descriptors overflow once
# ended in a `descriptors must be finite` traceback; as a flag or a config key it is a
# usage error of one line
@pytest.mark.parametrize("command", ["synth", "train-toy"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_overflowing_descriptor_noise_is_usage_error(tmp_path, capsys, command, source):
    argv = [command, *{"synth": SYNTH_ARGS, "train-toy": TRAIN_ARGS}[command]]
    if source == "flag":
        argv += ["--desc-sigma", "1e308"]
    else:
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"noise": {"desc_sigma": 1e308}}))
        argv += ["--config", cfg]
    assert run_cli([*argv, "-o", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid noise config: desc_sigma")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("o/*"))


def test_source_radius_has_one_key(tmp_path, capsys, match_argv):
    cfg = tmp_path / "r_s.json"
    cfg.write_text(json.dumps({"neighborhood": {"r_s": 5.0}}))
    assert run_cli([*match_argv, "--config", cfg, "-o", tmp_path / "o"]) == 2
    assert "unknown keys in config section 'neighborhood': ['r_s']" in capsys.readouterr().err


# every integer key of the sections whose checks once let a non-integer through (a negative
# rng_seed ended in exit 3), with the command that reads the section
INT_KEYS = [("match", "filter", k) for k in ("ransac_iterations", "min_inliers", "rng_seed")] + [
    ("train-toy", "network", k) for k in ("input_dim", "hidden_dim", "heads", "l1", "l2")] + [
    ("synth", "noise", "distractors")]


@pytest.mark.parametrize("command, section, key", INT_KEYS, ids=lambda v: v)
def test_non_integer_config_value_is_usage_error(tmp_path, capsys, match_argv, command, section,
                                                 key):
    # train-toy without the network flags, which sit above the config file
    argv = {"match": match_argv, "synth": ["synth", *SYNTH_ARGS],
            "train-toy": ["train-toy", "--pairs", 1, "--kpts", 12, "--steps", 1]}[command]
    for value in (6.5, float("nan"), True, "6", -1):
        cfg = tmp_path / "int.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        assert run_cli([*argv, "--config", cfg, "-o", tmp_path / "o"]) == 2, value
        assert f"{key} must be an integer" in capsys.readouterr().err


def test_rng_seed_beyond_64_bits_runs(tmp_path, match_argv):
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"filter": {"rng_seed": 2**70}}))
    assert run_cli([*match_argv, "--config", cfg, "-o", tmp_path / "o"]) == 0
    assert (tmp_path / "o" / "matches.csv").is_file()


# each once reached NumPy with the negative seed and ended in a ValueError traceback (exit 1)
# or, for `bench --mode attention`, in "invalid bench config"
@pytest.mark.parametrize("argv", [["synth", *SYNTH_ARGS], ["match"], ["train-toy", *TRAIN_ARGS],
                                  ["gradcheck"], ["bench", "--mode", "audit"],
                                  ["bench", "--sizes", "64,256", "--reps", 3, "--c-prime", 8]],
                         ids=lambda argv: " ".join(map(str, argv[:3])))
def test_negative_seed_is_usage_error(tmp_path, capsys, match_argv, argv):
    argv = match_argv if argv == ["match"] else argv
    assert run_cli([*argv, "--seed", -1, "-o", tmp_path / "o"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [f"linmatch {argv[0]}: error: argument --seed: must be at least 0, got -1"]
    assert not (tmp_path / "o").exists()


def test_train_toy_weights_beyond_float32_abort(tmp_path, capsys):
    # a learning rate of 1e39 steps every weight past float32's range; the weight file was
    # once written (with a cast warning) and then refused by `match` with exit 3
    out = tmp_path / "o"
    argv = ["train-toy", "--steps", 1, "--pairs", 1, "--kpts", 8, "--lr", 1e39, "-o", out]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("training aborted: layer0.self.wq: non-finite values in float32")
    assert list(out.iterdir()) == []


def test_train_toy_non_finite_adam_update_aborts(tmp_path, capsys):
    # a learning rate of 1e308 overflows the first update itself: once a multi-line overflow
    # warning (an uncaught RuntimeWarning under -W error), then the float32 refusal above
    out = tmp_path / "o"
    argv = ["train-toy", "--steps", 1, "--pairs", 1, "--kpts", 8, "--lr", 1e308, "-o", out]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "training aborted: non-finite Adam update at step 0\n"
    assert not (out / "weights.lawt").exists()


def first_lr(trace_path):
    return float(trace_path.read_text().splitlines()[1].split(",")[2])


# each flag or config value (a dict, written as the config file) at a value that, left
# unchecked, hangs, times empty problems or no kernel (bench), ends in a traceback, fails a
# check as if the gradients were wrong (--tol), aborts training (an infinite margin or learning
# rate) or runs silently (an infinite radius, factor or negative --min-matches); a "match"
# argv is completed with the match inputs
@pytest.mark.parametrize("argv", [
    ["bench", "--methods", "linear", "--reps", 3, "--c-prime", 8, "--sizes", "0,64"],
    ["bench", "--methods", "linear", "--reps", 3, "--sizes", "64,256", "--c-prime", 0],
    ["bench", "--reps", 3, "--sizes", "64,256", "--methods", ","],
    # ran linear twice and listed its points [64, 256, 64, 256] under one slope
    ["bench", "--reps", 3, "--sizes", "64,256", "--c-prime", 8, "--methods", "linear,linear"],
    ["train-toy", *TRAIN_ARGS, "--heads", 0],
    ["train-toy", *TRAIN_ARGS, "--hidden", 0],
    ["train-toy", *TRAIN_ARGS, "--desc-dim", 0],
    ["train-toy", *TRAIN_ARGS, "--kpts", 1],
    ["gradcheck", "--heads", 0],
    ["gradcheck", "--samples", 0],
    ["gradcheck", "--samples", -3],
    ["gradcheck", "--step", 0],
    ["gradcheck", "--tol", 0],
    ["gradcheck", "--tol", -1],
    ["gradcheck", "--tol", "nan"],
    ["gradcheck", "--tol", "inf"],
    ["synth", *SYNTH_ARGS, "--desc-dim", 0],
    ["synth", *SYNTH_ARGS, "--min-matches", 41],  # more than the 40 keypoints
    ["synth", *SYNTH_ARGS, "--min-matches", -1],
    ["synth", *SYNTH_ARGS, "--dims", "5000000000x10"],  # more than the .kpds header holds
    ["synth", *SYNTH_ARGS, "--dims", "10x4294967296"],
    ["train-toy", *TRAIN_ARGS, "--lr", "inf"],
    ["train-toy", *TRAIN_ARGS, "--config", {"loss": {"m_n": float("inf")}}],
    ["train-toy", *TRAIN_ARGS, "--config", {"loss": {"learning_rate": float("inf")}}],
    ["train-toy", *TRAIN_ARGS, "--config", {"neighborhood": {"lam": float("inf")}}],
    ["train-toy", *TRAIN_ARGS, "--config", {"neighborhood": {"r": float("inf")}}],
    ["train-toy", *TRAIN_ARGS, "--config", {"neighborhood": {"r_t": float("inf")}}],
    ["match", "--config", {"filter": {"inlier_threshold_factor": float("inf")}}],
], ids=lambda argv: " ".join(str(a) for a in argv[:1] + argv[-2:]))
def test_out_of_range_flag_is_usage_error(tmp_path, match_argv, argv):
    argv = (match_argv if argv[0] == "match" else argv[:1]) + argv[1:]
    for i, body in enumerate(argv):
        if isinstance(body, dict):
            argv[i] = tmp_path / "config.json"
            argv[i].write_text(json.dumps(body))  # infinity written as Infinity
    assert run_cli([*argv, "-o", tmp_path / "o"]) == 2


# sizes asking for tebibytes once ended in a MemoryError traceback; numpy refuses each
# request before it touches any memory
@pytest.mark.parametrize("argv", [
    ["match", "--config", {"filter": {"ransac_iterations": 2 ** 40}}],  # 24 TiB of samples
    ["synth", "--pairs", 1, "--kpts", 2 ** 40],  # 8 TiB of x coordinates
    ["bench", "--methods", "linear", "--reps", 3, "--c-prime", 8, "--sizes", f"64,{2 ** 40}"],
], ids=["match", "synth", "bench"])
def test_out_of_memory_is_usage_error(tmp_path, capsys, match_argv, argv):
    argv = (match_argv if argv[0] == "match" else argv[:1]) + argv[1:]
    for i, body in enumerate(argv):
        if isinstance(body, dict):
            argv[i] = tmp_path / "config.json"
            argv[i].write_text(json.dumps(body))
    assert run_cli([*argv, "-o", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory for the requested sizes: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    # 10 px jitter leaves few projections within the 3 px label cutoff
    (["synth", *SYNTH_ARGS, "--jitter-sigma", 10, "--min-matches", 40], "could not reach 40"),
    # with seed 8, both scenes of two keypoints keep fewer than two on some side
    (["train-toy", *TRAIN_ARGS, "--kpts", 2, "--seed", 8], "at least 2 keypoints per side"),
], ids=["synth", "train-toy"])
def test_unlucky_generated_scene_fails_the_check(tmp_path, capsys, argv, message):
    assert run_cli([*argv, "-o", tmp_path / "o"]) == 1
    assert message in capsys.readouterr().err


def test_train_toy_skips_scenes_the_loss_cannot_use(tmp_path, capsys):
    # seed 0 draws three two-keypoint scenes, and only one of them keeps a pair
    out = tmp_path / "o"
    assert run_cli(["train-toy", *TRAIN_ARGS, "--kpts", 2, "--pairs", 3, "--seed", 0,
                    "-o", out]) == 0
    assert "skipped 2 of 3 generated scenes" in capsys.readouterr().err
    assert len((out / "trace.csv").read_text().splitlines()) == 4


def test_train_toy_outputs_and_config_precedence(tmp_path):
    out = tmp_path / "run1"
    assert run_cli(["train-toy", *TRAIN_ARGS, "-o", out]) == 0
    assert load_weights(out / "weights.lawt") is not None
    assert sorted(p.name for p in out.iterdir()) == ["trace.csv", "weights.lawt"]
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,loss,lr"
    assert len(trace) == 4
    assert np.isclose(first_lr(out / "trace.csv"), 1e-3)  # built-in default

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss": {"learning_rate": 5e-3}}))
    out2 = tmp_path / "run2"
    assert run_cli(["train-toy", *TRAIN_ARGS, "--config", cfg, "-o", out2]) == 0
    assert np.isclose(first_lr(out2 / "trace.csv"), 5e-3)  # file beats default

    out3 = tmp_path / "run3"
    assert run_cli(["train-toy", *TRAIN_ARGS, "--config", cfg, "--lr", "2e-3",
                    "-o", out3]) == 0
    assert np.isclose(first_lr(out3 / "trace.csv"), 2e-3)  # flag beats file


def test_network_section_sits_between_built_in_defaults_and_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"heads": 4, "hidden_dim": 8}}))
    train = ["train-toy", "--pairs", 2, "--kpts", 12, "--dims", "96x96", "--steps", 1,
             "--config", cfg]
    assert run_cli([*train, "-o", tmp_path / "file"]) == 0  # file beats built-in 2 and 16
    w = load_weights(tmp_path / "file" / "weights.lawt")
    assert (w.heads, w.self_layers[0].wq.shape, len(w.pair_layers)) == (4, (32, 8), 1)
    assert run_cli([*train, "--heads", 2, "-o", tmp_path / "flag"]) == 0  # flag beats file
    assert load_weights(tmp_path / "flag" / "weights.lawt").heads == 2
    # gradcheck's built-in hidden 4 cannot split into the file's 3 heads; --heads 2 can
    cfg.write_text(json.dumps({"network": {"heads": 3}}))
    gradcheck = ["gradcheck", "--samples", 4, "--config", cfg, "-o", tmp_path / "g"]
    assert run_cli(gradcheck) == 2
    assert run_cli([*gradcheck, "--heads", 2]) == 0


def test_gradcheck_passes_in_double_precision(tmp_path, capsys):
    code = run_cli(["gradcheck", "--seed", 1, "--samples", 50,
                    "-o", tmp_path / "g"])
    assert code == 0
    assert "max relative error" in capsys.readouterr().out


def test_gradcheck_prints_the_fraction_within_its_tolerance(tmp_path, capsys):
    argv = ["gradcheck", "--seed", 1, "--samples", 20, "-o", tmp_path / "g"]
    errors = gradient_check(NetworkConfig(8, 4, 1, 1, 0), LossConfig(), seed=1, samples=20)
    # a tolerance between the sampled errors: some lie within it, the rest and the max do not
    tol = float(np.sort(errors)[5])
    assert run_cli([*argv, "--tol", repr(tol)]) == 1
    want = (errors < tol).mean() * 100
    assert 0 < want < 100
    assert f"({want:.1f}% within {tol:g})" in capsys.readouterr().out


def test_gradcheck_fails_with_absurd_tolerance(tmp_path, capsys):
    assert run_cli(["gradcheck", "--seed", 1, "--samples", 20,
                    "--tol", "1e-18", "-o", tmp_path / "g"]) == 1
    assert "(0.0% within 1e-18)" in capsys.readouterr().out  # no error is that small


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "linmatch.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "gradcheck" in proc.stdout


def write_v1_weights(path, weights):
    """The version 1 layout: header, then tensors, no config record."""
    save_weights(path, weights)
    raw = path.read_bytes()
    record_len = int.from_bytes(raw[12:14], "little")
    path.write_bytes(b"LAWT" + (1).to_bytes(4, "little") + raw[8:12] + raw[14 + record_len:])


def with_record(path, record, dst):
    """A copy of the weight file at `path` whose config record is the bytes `record`."""
    raw = path.read_bytes()
    record_len = int.from_bytes(raw[12:14], "little")
    dst.write_bytes(raw[:12] + len(record).to_bytes(2, "little") + record
                    + raw[14 + record_len:])
    return dst


def test_train_toy_then_match_uses_recorded_heads(tmp_path):
    train = tmp_path / "train"
    assert run_cli(["train-toy", *TRAIN_ARGS[:-2], "--l2", 1, "--steps", 2, "-o", train]) == 0
    weights = train / "weights.lawt"
    assert load_weights(weights).heads == 2
    data = tmp_path / "data"
    assert run_cli(["synth", *SYNTH_ARGS, "--desc-sigma", 0.3, "--distractors", 8,
                    "-o", data]) == 0
    # unfiltered, so the 40-point scene keeps candidates whose scores show the head count
    pair = [data / "pair0000" / "source.kpds", data / "pair0000" / "target.kpds", "--no-filter"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"heads": 2}}))
    outputs = {}
    for name, extra in (("recorded", []), ("explicit", ["--config", cfg])):
        assert run_cli(["match", *pair, "--weights", weights, *extra, "-o", tmp_path / name]) == 0
        outputs[name] = (tmp_path / name / "matches.csv").read_bytes()
    assert outputs["recorded"] == outputs["explicit"]
    # the same tensors recorded for another head count give another result
    four = with_record(weights, b'{"heads": 4}', tmp_path / "four.lawt")
    assert load_weights(four).heads == 4
    assert run_cli(["match", *pair, "--weights", four, "-o", tmp_path / "four"]) == 0
    assert (tmp_path / "four" / "matches.csv").read_bytes() != outputs["recorded"]


def test_match_heads_conflicting_with_weight_file_exit_2(tmp_path, capsys):
    data = synth_dataset(tmp_path / "data")
    weights = small_weights_file(tmp_path / "w.lawt")  # records 2 heads
    pair = [data / "pair0000" / "source.kpds", data / "pair0000" / "target.kpds"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"heads": 8}}))
    capsys.readouterr()  # drop synth's output
    assert run_cli(["match", *pair, "--weights", weights, "--config", cfg,
                    "-o", tmp_path / "b"]) == 2
    assert "heads is 8" in capsys.readouterr().err
    assert not (tmp_path / "b" / "matches.csv").exists()
    with pytest.raises(SystemExit):  # the file alone sets the count: no flag for it
        main(["match", "--help"])
    assert "--heads" not in capsys.readouterr().out


def test_match_network_section_must_repeat_the_weight_file(tmp_path, capsys):
    data = synth_dataset(tmp_path / "data")
    weights = small_weights_file(tmp_path / "w.lawt")  # 8 -> 8, 2 heads, l1=1, l2=1
    pair = [data / "pair0000" / "source.kpds", data / "pair0000" / "target.kpds"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": {"hidden_dim": 3, "l1": 7}}))
    capsys.readouterr()  # drop synth's output
    assert run_cli(["match", *pair, "--weights", weights, "--config", cfg,
                    "-o", tmp_path / "a"]) == 2
    assert "hidden_dim is 3" in capsys.readouterr().err
    assert not (tmp_path / "a" / "matches.csv").exists()
    # the whole recorded network, l2 included, passes with the pair layers skipped
    cfg.write_text(json.dumps({"network": dataclasses.asdict(load_weights(weights).config())}))
    assert run_cli(["match", *pair, "--weights", weights, "--config", cfg, "--skip-pairwise",
                    "-o", tmp_path / "b"]) == 0


def test_version_1_weight_file_exit_3(tmp_path, capsys):
    data = synth_dataset(tmp_path / "data")
    v1 = tmp_path / "v1.lawt"
    write_v1_weights(v1, load_weights(small_weights_file(tmp_path / "w.lawt")))
    capsys.readouterr()  # drop synth's output
    assert run_cli(["match", data / "pair0000" / "source.kpds", data / "pair0000" / "target.kpds",
                    "--weights", v1, "-o", tmp_path / "o"]) == 3
    assert "unsupported version 1" in capsys.readouterr().err


def test_bad_weight_config_record_exit_3(tmp_path):
    data = synth_dataset(tmp_path / "data")
    pair = [data / "pair0000" / "source.kpds", data / "pair0000" / "target.kpds"]
    good = small_weights_file(tmp_path / "w.lawt")
    for record in (b'{"heads": 3}', b'{"heads": "2"}', b'{"heads": 0}', b'{"heads": -2}',
                   b'{"heads": true}', b'{"heads": 2.0}', b'[2]', b'{nope', b'\xff\xfe',
                   b'{}', b'{"heads": null}'):
        bad = with_record(good, record, tmp_path / "bad.lawt")
        assert run_cli(["match", *pair, "--weights", bad, "-o", tmp_path / "o"]) == 3, record
