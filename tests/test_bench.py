"""Benchmark harness tests: report shape, slope fits, counter audits."""

import numpy as np
import pytest

from linmatch.bench import (
    bench_attention,
    loglog_slope,
    op_counter_audit,
    write_bench_csv,
    write_bench_json,
)


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
    report = bench_attention(("linear",), sizes=(64, 256), c_prime=16, reps=3, seed=1)
    assert [r.n for r in report.rows] == [64, 256]
    assert all(r.method == "linear" for r in report.rows)
    assert all(r.median_ms > 0 for r in report.rows)
    assert all(r.multiplies > 0 for r in report.rows)
    assert np.isfinite(report.slopes["linear"])
    assert report.reps == 3


def test_bench_attention_is_monotone_within_noise():
    report = bench_attention(("linear",), sizes=(1024, 2048, 4096), c_prime=64,
                             reps=3, seed=0)
    ms = [r.median_ms for r in report.rows]
    for a, b in zip(ms, ms[1:]):
        assert b >= 0.9 * a


def test_doubling_reps_keeps_medians_stable():
    # each 10-rep run is compared with the 5-rep run just before it, so a drift in
    # machine speed between the pairs cancels out of their differences
    kw = dict(sizes=(2048, 8192), c_prime=64, seed=0)
    m5, diff = ({n: [] for n in kw["sizes"]} for _ in range(2))
    for _ in range(3):
        r5, r10 = (bench_attention(("linear",), reps=reps, **kw).rows for reps in (5, 10))
        for a, b in zip(r5, r10, strict=True):
            m5[a.n].append(a.median_ms)
            diff[a.n].append(b.median_ms - a.median_ms)
    for n in kw["sizes"]:
        assert abs(np.median(diff[n])) <= 0.2 * np.median(m5[n])


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


def test_bench_csv_and_json_outputs(tmp_path):
    report = bench_attention(("linear",), sizes=(64, 256), c_prime=8, reps=3, seed=0)
    csv_path = tmp_path / "bench.csv"
    write_bench_csv(csv_path, report)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "method,n,median_ms,slope"
    assert len(lines) == 1 + len(report.rows)
    for line, row in zip(lines[1:], report.rows):
        method, n, median_ms, slope = line.split(",")
        assert method == row.method
        assert int(n) == row.n
        assert float(median_ms) == row.median_ms
        assert float(slope) == report.slopes[row.method]

    json_path = tmp_path / "bench.json"
    write_bench_json(json_path, report)
    import json

    payload = json.loads(json_path.read_text())
    assert payload["reps"] == 3
    assert payload["methods"]["linear"]["points"][0]["n"] == 64
    assert np.isclose(payload["methods"]["linear"]["slope"],
                      report.slopes["linear"])
