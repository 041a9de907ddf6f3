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
    work.prepare(0)
    with tracer.installed(work.patches):
        out = work.call(0)
    assert work.check(0, out) is None
    recorded = {s.name for s in tracer.spans}
    assert {name for _, _, name, _ in work.patches} <= recorded
    for _, _, name, count in work.patches:
        if count is None:
            continue
        got = [s.counts for s in tracer.spans if s.name == name]
        assert got and all(isinstance(c, dict) and c for c in got), name
        assert all(isinstance(v, Real) for c in got for v in c.values()), name
