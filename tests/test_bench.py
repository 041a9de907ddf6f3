"""Benchmark harness tests: report shape, slope fits, counter audits."""

import json

import numpy as np
import pytest

from linmatch import bench, cli
from linmatch.bench import bench_attention, loglog_slope, op_counter_audit


def test_loglog_slope_recovers_exact_powers():
    lin = [(100, 1e-3), (200, 2e-3), (400, 4e-3)]
    quad = [(100, 1e-3), (200, 4e-3), (400, 16e-3)]
    assert np.isclose(loglog_slope(lin), 1.0)
    assert np.isclose(loglog_slope(quad), 2.0)
    with pytest.raises(ValueError):
        loglog_slope([(100, 1e-3)])


def test_size_preconditions():
    with pytest.raises(ValueError):
        bench_attention(("linear",), sizes=(1024,))
    with pytest.raises(ValueError):
        bench_attention(("linear",), sizes=(1024, 1024))
    with pytest.raises(ValueError):
        bench_attention(("linear",), sizes=(1024, 2048))  # spans only 2x
    with pytest.raises(ValueError):
        bench_attention(("warp",), sizes=(64, 256))
    with pytest.raises(ValueError, match="no methods"):  # would report no kernel at all
        bench_attention((), sizes=(64, 256), reps=3)
    with pytest.raises(ValueError):
        bench_attention(("linear",), sizes=(64, 256), reps=2)
    # a method's second run would replace its first in the record
    with pytest.raises(ValueError, match="repeated methods"):
        bench_attention(("linear", "softmax", "linear"), sizes=(64, 256), reps=3)


# each value was once truncated (a size of 64.9 timed n = 64) or ended in a TypeError
@pytest.mark.parametrize("bad", [{"sizes": (64.9, 256)}, {"sizes": (64, 256.0)},
                                 {"reps": 3.5}, {"reps": True}, {"c_prime": 8.5}],
                         ids=lambda v: repr(v))
def test_non_integer_size_reps_or_c_prime_is_refused(bad):
    args = {"sizes": (64, 256), "reps": 3, "c_prime": 8, **bad}
    name = "each size" if "sizes" in bad else next(iter(bad))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        bench_attention(("linear",), **args)


def test_bench_attention_smoke():
    record = bench_attention(("linear",), sizes=(64, 256), c_prime=16, reps=3, seed=1)
    points = record["methods"]["linear"]["points"]
    assert list(record["methods"]) == ["linear"]
    assert [p["n"] for p in points] == [64, 256]
    assert all(p["median_ms"] > 0 for p in points)
    assert all(p["multiplies"] > 0 for p in points)
    assert np.isfinite(record["methods"]["linear"]["slope"])
    assert record["reps"] == 3


def test_bench_attention_is_monotone_within_noise():
    record = bench_attention(("linear",), sizes=(1024, 2048, 4096), c_prime=64,
                             reps=3, seed=0)
    ms = [p["median_ms"] for p in record["methods"]["linear"]["points"]]
    for a, b in zip(ms, ms[1:]):
        assert b >= 0.9 * a


def test_doubling_reps_keeps_medians_stable():
    # each 10-rep run is compared with the 5-rep run just before it, so a drift in
    # machine speed between the pairs cancels out of their differences
    kw = dict(sizes=(2048, 8192), c_prime=64, seed=0)
    m5, diff = ({n: [] for n in kw["sizes"]} for _ in range(2))
    for _ in range(3):
        r5, r10 = (bench_attention(("linear",), reps=reps, **kw)["methods"]["linear"]["points"]
                   for reps in (5, 10))
        for a, b in zip(r5, r10, strict=True):
            m5[a["n"]].append(a["median_ms"])
            diff[a["n"]].append(b["median_ms"] - a["median_ms"])
    for n in kw["sizes"]:
        assert abs(np.median(diff[n])) <= 0.2 * np.median(m5[n])


def recording_kernel(monkeypatch, method="linear"):
    """Wrap one kernel in `bench._KERNELS`; the returned list gets the n of every call."""
    calls, kernel = [], bench._KERNELS[method]

    def recorded(q, k, v):
        calls.append(len(q))
        return kernel(q, k, v)

    monkeypatch.setitem(bench._KERNELS, method, recorded)
    return calls


def test_unallocatable_size_fails_before_any_kernel_runs(monkeypatch):
    # n = 2**40 asks for 256 TiB; n = 1024 was once timed in full before that request
    calls = recording_kernel(monkeypatch)
    with pytest.raises(MemoryError, match="float32"):  # drawn in float32, with no float64 copy
        bench_attention(("linear",), sizes=(1024, 2 ** 40), c_prime=64, reps=3)
    assert calls == []


def test_sizes_are_timed_round_robin(monkeypatch):
    # 2 warm-up rounds and 3 timed rounds call every size once each, then one counted call
    calls = recording_kernel(monkeypatch)
    bench_attention(("linear",), sizes=(16, 32, 64), c_prime=4, reps=3)
    assert calls == [16, 32, 64] * 5 + [16, 32, 64]


def test_op_counter_audit_counts_and_bounds():
    counts = op_counter_audit(n=256, m=256, c_prime=16, seed=0)
    assert counts["linear_bound"] == 2 * (512 * 256 + 512 * 16)
    assert 0 < counts["linear_multiplies"] <= counts["linear_bound"]
    assert counts["softmax_multiplies"] > counts["linear_multiplies"]
    assert counts["pairwise_multiplies"] > 0
    assert counts["pairwise_multiplies_doubled"] == 2 * counts["pairwise_multiplies"]
    assert counts["linear_max_allocation"] < 256 * 256


def test_op_counter_audit_rejects_an_uncounted_kernel(monkeypatch):
    # a fused kernel that reports nothing would pass the doubling check as 0 == 0
    import linmatch.autodiff as ad

    monkeypatch.setattr(ad, "note_mul", lambda size: None)
    with pytest.raises(AssertionError, match="no multiplies"):
        op_counter_audit()


def test_op_counter_audit_rectangular():
    counts = op_counter_audit(n=128, m=320, c_prime=8, seed=2)
    assert counts["linear_bound"] == 2 * ((128 + 320) * 64 + (128 + 320) * 8)
    assert counts["softmax_score_table"] == (128, 320)


def test_bench_json_output(tmp_path, monkeypatch):
    """`linmatch bench` writes the record that `bench_attention` returns, key for key."""
    returned = []

    def recording(**kw):
        returned.append(bench_attention(**kw))
        return returned[-1]

    monkeypatch.setattr(cli, "bench_attention", recording)
    assert cli.main(["bench", "--sizes", "64,256", "--methods", "linear", "--reps", "3",
                     "--c-prime", "8", "-o", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload == returned[0]
    assert set(payload) == {"reps", "methods"} and payload["reps"] == 3
    entry = payload["methods"]["linear"]
    assert set(entry) == {"slope", "points"}
    assert [set(p) for p in entry["points"]] == [{"n", "median_ms", "multiplies"}] * 2
    assert [p["n"] for p in entry["points"]] == [64, 256]
    # the slope is fitted to the medians in seconds, which the record holds in ms
    times = [(p["n"], p["median_ms"] / 1e3) for p in entry["points"]]
    assert np.isclose(entry["slope"], loglog_slope(times))
