"""Malformed containers: sizes declared past the end of the file, and flipped bytes.

Every reader either returns or raises `ValueError`, and the CLI turns a
`ValueError` into exit code 3 with a one-line message, never a traceback.
A flipped exponent bit can also leave a file readable but hold a value so
large that the encodings overflow; `match` exits 3 on those too.
"""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linmatch.autodiff import Tensor
from linmatch.cli import main
from linmatch.encoder import NetworkConfig, forward, init_weights, load_weights, save_weights
from linmatch.geometry import read_ground_truth, read_kpds
from linmatch.matcher import MatchSet, read_matches, write_matches

FLIPS = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)), min_size=1, max_size=4)
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run_cli(argv):
    """Exit code and stderr of one in-process CLI run; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Small valid inputs for `match` and `eval`."""
    root = tmp_path_factory.mktemp("containers")
    code, _ = run_cli(["synth", "--pairs", 1, "--kpts", 24, "--dims", "96x72",
                       "--desc-dim", 8, "--seed", 7, "-o", root / "data"])
    assert code == 0
    for name in ("source.kpds", "target.kpds", "gt.csv", "homography.txt"):
        (root / name).write_bytes((root / "data" / "pair0000" / name).read_bytes())
    cfg = NetworkConfig(input_dim=8, hidden_dim=8, heads=2, l1=1, l2=1)
    save_weights(root / "w.lawt", init_weights(cfg, seed=3))
    pairs = read_ground_truth(root / "gt.csv").pairs.tolist()
    write_matches(root / "matches.csv", MatchSet([(i, j, 1.5 + i) for i, j in pairs],
                                                 ["verified"] * len(pairs)))
    assert pairs and run_cli(match_args(root))[0] == 0
    return root


def flipped(src, flips, dst):
    raw = bytearray(src.read_bytes())
    for offset, mask in flips:
        raw[offset % len(raw)] ^= mask
    dst.write_bytes(bytes(raw))
    return dst


def reader_raises(reader, path):
    try:
        reader(path)
    except ValueError:
        return True
    return False


def match_args(files, source=None, weights=None):
    return ["match", source or files / "source.kpds", files / "target.kpds",
            "--weights", weights or files / "w.lawt", "-o", files / "out"]


def expected_match_code(files, source=None, weights=None):
    """3 when a reader raises or the encodings are not finite, else 0.

    The encodings come from `forward` on its training path (a Tensor weight),
    which returns them unchecked.
    """
    try:
        ks, kt = read_kpds(source or files / "source.kpds"), read_kpds(files / "target.kpds")
        w = load_weights(weights or files / "w.lawt")
        cfg = w.config()
        w.self_layers[0].wq = Tensor(w.self_layers[0].wq)
        with np.errstate(all="ignore"):
            enc = forward(ks, kt, w, cfg)
    except ValueError:
        return 3
    return 0 if all(np.isfinite(x.data).all() for x in vars(enc).values()) else 3


@FUZZ
@given(flips=FLIPS)
def test_flipped_kpds(files, flips):
    path = flipped(files / "source.kpds", flips, files / "fuzz.kpds")
    with np.errstate(all="ignore"):
        code, _ = run_cli(match_args(files, source=path))
    assert code == expected_match_code(files, source=path)


@FUZZ
@given(flips=FLIPS)
def test_flipped_weights(files, flips):
    path = flipped(files / "w.lawt", flips, files / "fuzz.lawt")
    with np.errstate(all="ignore"):
        code, _ = run_cli(match_args(files, weights=path))
    assert code == expected_match_code(files, weights=path)


def eval_code(files, matches):
    code, _ = run_cli(["eval", "--matches", matches, "--source", files / "source.kpds",
                       "--target", files / "target.kpds", "--gt", files / "gt.csv",
                       "--homography", files / "homography.txt", "-o", files / "eval"])
    return code


@FUZZ
@given(flips=FLIPS)
def test_flipped_matches_csv(files, flips):
    path = flipped(files / "matches.csv", flips, files / "fuzz.csv")
    code = eval_code(files, path)
    # a readable file may still name keypoints that do not exist: exit 3 from eval
    assert code == 3 if reader_raises(read_matches, path) else code in (0, 3)


def test_matches_csv_cut_anywhere(files):
    raw = (files / "matches.csv").read_bytes()
    path = files / "cut.csv"
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        code = eval_code(files, path)
        assert code == 3 if reader_raises(read_matches, path) else code == 0, size


@pytest.mark.parametrize("n, d", [(2**32 - 1, 8), (12, 2**32 - 1), (2**32 - 1, 2**32 - 1)])
def test_kpds_sizes_past_the_end_are_refused_unread(files, n, d):
    raw = bytearray((files / "source.kpds").read_bytes())
    raw[8:16] = struct.pack("<2I", n, d)  # after magic and version
    path = files / "inflated.kpds"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="truncated"):
        read_kpds(path)
    code, err = run_cli(match_args(files, source=path))
    assert code == 3 and "truncated" in err


@pytest.mark.parametrize("dims", [(2**32 - 1,) * 3, (2**16,) * 4])
def test_lawt_dims_past_the_end_are_refused_unread(tmp_path, dims):
    # (2**16,) * 4 holds 2**64 entries, which a product in int64 wraps to 0
    path = tmp_path / "inflated.lawt"
    with open(path, "wb") as f:
        f.write(b"LAWT" + struct.pack("<IIH", 2, 1, 2) + b"{}")
        f.write(struct.pack("<H", 14) + b"layer0.self.wq")
        f.write(struct.pack(f"<B{len(dims)}I", len(dims), *dims) + bytes(64))
    with pytest.raises(ValueError, match="truncated"):
        load_weights(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_weight_is_refused_at_load(files, value):
    raw = bytearray((files / "w.lawt").read_bytes())
    raw[-4:] = struct.pack("<f", value)  # the last entry of the last tensor
    path = files / "nonfinite.lawt"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="non-finite"):
        load_weights(path)
    code, err = run_cli(match_args(files, weights=path))
    assert code == 3 and "non-finite" in err


def test_inconsistent_layer_shapes_are_refused_at_load(tmp_path):
    cfg = NetworkConfig(input_dim=8, hidden_dim=8, heads=2, l1=1, l2=1)
    w = init_weights(cfg, seed=3)
    w.pair_layers[0].mlp1 = w.pair_layers[0].mlp1[:, :4]
    save_weights(tmp_path / "w.lawt", w)
    with pytest.raises(ValueError, match="mlp1"):
        load_weights(tmp_path / "w.lawt")
