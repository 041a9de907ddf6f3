"""The benchmark's hold on the library: every traced name exists and every count works.

`perfbench` wraps library functions by module attribute and counts from
their arguments and results (for instance `len()` of the neighborhoods and
`.source_set` of each one).  A change of a name or of a returned type breaks
the benchmark without breaking any library test, so one small call of each
workload kind runs here under the benchmark's own tracer.  The benchmark's
files are only imported, never changed.
"""

import importlib.util
from numbers import Real
from pathlib import Path

import pytest

from linmatch.geometry import GenNoiseConfig

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans, workloads = _load("spans"), _load("workloads")

CASES = {
    "pipeline": lambda: workloads.Pipeline(
        256, 157, GenNoiseConfig(desc_sigma=0.5, jitter_sigma=0.5, distractors=64),
        scenes=1, recall_floor=0.0),
    "train-step": lambda: workloads.TrainStep(),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_patched_span_records_with_numeric_counts(case):
    work, tracer = CASES[case](), spans.Tracer()
    work.setup(0, tracer)
    with tracer.installed(work.patches):
        for _ in range(2):  # the first check stores the output, the second compares with it
            work.prepare(0)
            assert work.check(0, work.call(0)) is None
    recorded = {s.name for s in tracer.spans}
    assert {name for _, _, name, _ in work.patches} <= recorded
    for _, _, name, count in work.patches:
        if count is None:
            continue
        got = [s.counts for s in tracer.spans if s.name == name]
        assert got and all(isinstance(c, dict) and c for c in got), name
        assert all(isinstance(v, Real) for c in got for v in c.values()), name


def test_pipeline_view_counts_equal_the_membership_arrays(monkeypatch):
    """The tracer counts neighborhoods through per-item views; they must agree
    with the CSR arrays of the `Membership` they view."""
    import linmatch.encoder as encoder
    import linmatch.matcher as matcher

    built, passed = [], []  # every Membership built, and the one each pairwise layer got
    for module in (encoder, matcher):
        real = module.build_neighborhoods
        monkeypatch.setattr(module, "build_neighborhoods",
                            lambda *a, real=real: built.append(real(*a)) or built[-1])
    real_layer = encoder.pairwise_layer_update
    monkeypatch.setattr(encoder, "pairwise_layer_update",
                        lambda *a: passed.append(a[2]) or real_layer(*a))
    work, tracer = CASES["pipeline"](), spans.Tracer()
    work.setup(0, tracer)
    with tracer.installed(work.patches):
        work.call(0)
    counts = {name: [s.counts for s in tracer.spans if s.name == name]
              for name in ("neighborhood.build", "encoder.pairwise")}
    assert len(built) == len(counts["neighborhood.build"]) == 2
    assert len(passed) == len(counts["encoder.pairwise"]) > 0
    for members, c in zip(built, counts["neighborhood.build"]):
        assert c["size_max"] == members.source.sizes.max() > 1
    for members, c in zip(passed, counts["encoder.pairwise"]):
        assert c["pair_members"] == members.source.sizes.sum() > 0
        assert c["pairs"] == len(members.seeds)
