"""Pinned outputs: the benchmark's pipeline matches and the first training losses.

The scenes are built exactly as `perfbench/workloads.py` builds them (seeds
101-103 of `match-1k-outliers` and `match-4k-clean`: 27 scenes), and the
training steps are the first 64 of the `train-step` workload at seed 101.
For every scene, a SHA-256 over the match index pairs and stage tags pins
the match set exactly, and the scores are pinned to a relative tolerance of
1e-6 (they are stored as float32).  The losses are pinned to 1e-12 relative,
and a SHA-256 over the bytes of every step's gradients, in `all_params` order,
pins those exactly.  A refactor that claims bit-identical outputs must pass
this file unchanged.

Regenerate the data only when an output change is intended, and then set
`_TRAIN_GRADIENTS_SHA256` to the digest it prints:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py

Before it overwrites the file, it prints the drift against it: whether each
scene's match digest changed, the largest relative loss difference, and the
pinned and new gradient SHA-256.  When only the gradient digest moved, set it
and keep the committed file.
"""

import contextlib
import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DATA = _ROOT / "tests" / "data" / "golden.npz"
_PIPELINES = [(name, seed) for name in ("match-1k-outliers", "match-4k-clean")
              for seed in (101, 102, 103)]
_TRAIN_SEED, _TRAIN_STEPS = 101, 64
_TRAIN_GRADIENTS_SHA256 = "3772e9f3c34b90d4f2342913c93f8d0b78735d586d3a32469994011844004f8d"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _NoTrace:
    @staticmethod
    def span(name):
        return contextlib.nullcontext()


def _match_digest(out):
    h = hashlib.sha256(out.pairs.astype(np.int64).tobytes())
    h.update("\n".join(out.stage).encode())
    return h.hexdigest()


def _pipeline_outputs():
    """(digest, scores) of every scene, in workload, seed and scene order."""
    workloads, got = _workloads(), []
    for name, seed in _PIPELINES:
        work = workloads.make(name)
        work.setup(seed, _NoTrace())
        for i in range(work.count):
            out = work.call(i)
            got.append((_match_digest(out), out.score))
    return got


def _train_steps():
    """The losses of the first training steps, and the SHA-256 of their gradients."""
    work = _workloads().make("train-step")
    work.setup(_TRAIN_SEED, _NoTrace())
    losses, digest = [], hashlib.sha256()
    for i in range(_TRAIN_STEPS):
        work.prepare(i)
        loss, grads = work.call(i)
        losses.append(loss)
        digest.update(b"".join(np.asarray(g).tobytes() for _, g in grads.all_params()))
    return np.array(losses), digest.hexdigest()


@pytest.fixture(scope="module")
def golden():
    with np.load(_DATA) as data:
        return dict(data)


def test_pipeline_matches_stages_and_scores_are_pinned(golden):
    got = _pipeline_outputs()
    assert len(got) == len(golden["digests"]) == 27
    scores = np.split(golden["scores"], np.cumsum(golden["counts"])[:-1])
    for k, ((digest, s), want_digest, want) in enumerate(zip(got, golden["digests"], scores)):
        assert digest == want_digest, f"scene {k}: match pairs or stages changed"
        np.testing.assert_allclose(s, want.astype(np.float64), rtol=1e-6,
                                   err_msg=f"scene {k}")


@pytest.fixture(scope="module")
def train_steps():
    return _train_steps()


def test_first_training_losses_are_pinned(golden, train_steps):
    np.testing.assert_allclose(train_steps[0], golden["losses"], rtol=1e-12, atol=0)


def test_first_training_gradients_are_pinned(train_steps):
    assert train_steps[1] == _TRAIN_GRADIENTS_SHA256


def _print_drift(outputs, losses, gradients):
    """What regenerating changes against the committed file."""
    with np.load(_DATA) as old:
        for k, ((digest, _), was) in enumerate(zip(outputs, old["digests"])):
            print(f"scene {k}: match digest {'unchanged' if digest == was else 'CHANGED'}")
        rel = np.abs(losses - old["losses"]) / np.abs(old["losses"])
    print(f"largest relative loss difference {rel.max():.3e} over {len(rel)} steps")
    print(f"gradients SHA-256 pinned {_TRAIN_GRADIENTS_SHA256}")
    print(f"gradients SHA-256 now    {gradients}")


if __name__ == "__main__":
    outputs, (losses, gradients) = _pipeline_outputs(), _train_steps()
    if _DATA.exists():
        _print_drift(outputs, losses, gradients)
    _DATA.parent.mkdir(exist_ok=True)
    np.savez_compressed(_DATA, digests=np.array([d for d, _ in outputs]),
                        counts=np.array([len(s) for _, s in outputs]),
                        scores=np.concatenate([s for _, s in outputs]).astype(np.float32),
                        losses=losses)
    print(f"wrote {_DATA}; gradients SHA-256 {gradients}")
