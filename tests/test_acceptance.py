"""End-to-end acceptance gate: one test per release criterion.

Each test pins a verifiable property of the library with explicit tolerances
and (where the criterion includes a budget) a wall-clock bound.  The detail
numbers behind every verdict are printed so a failing run can be diagnosed
from the log alone.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from reference_ops import membership

from linmatch.attention import NeighborhoodPair, attention
from linmatch.bench import bench_attention, op_counter_audit
from linmatch.cli import main as cli_main
from linmatch.encoder import (
    NetworkConfig,
    init_weights,
    load_weights,
    save_weights,
)
from linmatch.geometry import (
    GenNoiseConfig,
    GroundTruth,
    Homography,
    KeypointSet,
    generate_pair,
    read_kpds,
    write_kpds,
)
from linmatch.matcher import (
    FilterConfig,
    MatchSet,
    evaluate,
    filter_matches,
    match_pipeline,
)
from linmatch.neighborhood import (
    NeighborhoodConfig,
    RatioMatchSet,
    build_neighborhoods,
    default_radius,
    ratio_match,
    select_seeds,
)
from linmatch.training import LossConfig, gradient_check, loss_gradient, train_toy

# Criterion 1: streamed kernel vs dense reference
C1_INSTANCES = 100
C1_TOL_F32 = 1e-5
C1_TOL_F64 = 1e-12
C1_BUDGET_S = 10.0

# Criterion 2: restricted attention blockwise behaviour
C2_INSTANCES = 100
C2_OVERLAP_INSTANCES = 20
C2_SUPERPOSITION_TOL = 1e-6

# Criterion 3: empirical complexity
C3_SIZES = (1024, 2048, 4096, 8192)
C3_LINEAR_SLOPE = (0.8, 1.4)
C3_SOFTMAX_SLOPE = (1.7, 2.3)
C3_BUDGET_S = 300.0

# Criterion 4: analytic gradients vs finite differences
C4_SAMPLES = 256
C4_MIN_SAMPLES = 200
C4_STEP = 1e-5
C4_REL_TOL = 1e-4
C4_MIN_FRACTION = 0.99
C4_BUDGET_S = 60.0

# Criterion 5: toy training improves the loss and held-out precision
C5_TRAIN_PAIRS = 200
C5_HELD_PAIRS = 12
C5_KEYPOINTS = 128
C5_STEPS = 300
C5_LOSS_RATIO = 0.5
C5_PRECISION_GAIN = 0.20
C5_BUDGET_S = 600.0

# Criterion 7: local-affine outlier filtering
C7_SEEDS = 20
C7_POINTS = 300
C7_OUTLIER_FRACTION = 0.20
C7_MIN_REMOVED = 0.90
C7_MIN_RETAINED = 0.95

# Criterion 8: seed local-maximality
C8_INSTANCES = 1000

# Criterion 10: container round-trips
C10_INSTANCES = 50


def _phi(x):
    # positive feature map used by the streamed kernel, recomputed here
    # independently: elu(x) + 1
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def _dense_attention_f64(q, k, v):
    """Textbook dense evaluation of the normalized feature-map attention."""
    fq = _phi(np.asarray(q, dtype=np.float64))
    fk = _phi(np.asarray(k, dtype=np.float64))
    w = fq @ fk.T  # N x M similarity table, fine for an oracle
    return (w @ np.asarray(v, dtype=np.float64)) / w.sum(axis=1, keepdims=True)


def _per_row_attention_f64(q, k, v):
    """Same quantity computed one query row at a time (no table)."""
    fk = _phi(np.asarray(k, dtype=np.float64))
    v64 = np.asarray(v, dtype=np.float64)
    rows = []
    for row in np.asarray(q, dtype=np.float64):
        w = fk @ _phi(row)
        rows.append((w @ v64) / w.sum())
    return np.stack(rows)


def _max_relative_error(actual, reference):
    ref = np.asarray(reference, dtype=np.float64)
    act = np.asarray(actual, dtype=np.float64)
    scale = max(float(np.abs(ref).max()), 1e-30)
    return float(np.abs(act - ref).max()) / scale


def test_criterion_01_streamed_kernel_matches_dense_reference():
    t0 = time.perf_counter()
    worst = {"f32": 0.0, "f64": 0.0}
    for i in range(C1_INSTANCES):
        rng = np.random.default_rng([701, i])
        n = int(rng.integers(1, 257))
        m = int(rng.integers(1, 257))
        c = int(rng.integers(1, 65))
        q64 = rng.standard_normal((n, c))
        k64 = rng.standard_normal((m, c))
        v64 = rng.standard_normal((m, c))

        oracle = _dense_attention_f64(q64, k64, v64)
        out64 = attention(q64, k64, v64)[0]
        worst["f64"] = max(worst["f64"], _max_relative_error(out64, oracle))

        q32, k32, v32 = (a.astype(np.float32) for a in (q64, k64, v64))
        oracle32 = _dense_attention_f64(q32, k32, v32)
        out32 = attention(q32, k32, v32)[0]
        assert out32.dtype == np.float32
        worst["f32"] = max(worst["f32"], _max_relative_error(out32, oracle32))

        if i < 5:  # spot-check the table-free per-row form as well
            strict = _per_row_attention_f64(q64, k64, v64)
            assert _max_relative_error(out64, strict) <= C1_TOL_F64

    elapsed = time.perf_counter() - t0
    print(f"criterion 1: max rel err f32={worst['f32']:.3e} "
          f"f64={worst['f64']:.3e} over {C1_INSTANCES} instances "
          f"in {elapsed:.2f}s")
    assert worst["f32"] <= C1_TOL_F32
    assert worst["f64"] <= C1_TOL_F64
    assert elapsed < C1_BUDGET_S


def _random_disjoint_pairs(rng, n, m, blocks):
    """1..8 neighborhoods whose source sets and target sets never overlap."""
    src_pool = rng.permutation(n)
    tgt_pool = rng.permutation(m)
    pairs = []
    s_at = t_at = 0
    for _ in range(blocks):
        s_take = int(rng.integers(1, max(2, (n - s_at) // max(1, blocks))))
        t_take = int(rng.integers(1, max(2, (m - t_at) // max(1, blocks))))
        s_set = np.sort(src_pool[s_at:s_at + s_take])
        t_set = np.sort(tgt_pool[t_at:t_at + t_take])
        if s_set.size == 0 or t_set.size == 0:
            break
        s_at += s_take
        t_at += t_take
        pairs.append(NeighborhoodPair(seed=(int(s_set[0]), int(t_set[0])),
                                      source_set=s_set, target_set=t_set))
    return pairs


def _scattered_blocks_f64(q, k, v, pairs):
    """Oracle: run the dense reference per block and scatter-add the rows."""
    out = np.zeros((q.shape[0], q.shape[1]), dtype=np.float64)
    for p in pairs:
        block = _dense_attention_f64(q[p.source_set], k[p.target_set],
                                     v[p.target_set])
        out[p.source_set] += block
    return out


def test_criterion_02_restricted_attention_blockwise_equivalence():
    worst = 0.0
    for i in range(C2_INSTANCES):
        rng = np.random.default_rng([702, i])
        n = int(rng.integers(8, 129))
        m = int(rng.integers(8, 129))
        c = int(rng.integers(2, 33))
        q = rng.standard_normal((n, c))
        k = rng.standard_normal((m, c))
        v = rng.standard_normal((m, c))
        pairs = _random_disjoint_pairs(rng, n, m, int(rng.integers(1, 9)))
        if not pairs:
            continue
        out = attention(q, k, v, pairs=membership(pairs))[0]
        worst = max(worst, _max_relative_error(out, _scattered_blocks_f64(q, k, v, pairs)))
        covered = np.zeros(n, dtype=bool)
        for p in pairs:
            covered[p.source_set] = True
        assert np.all(out[~covered] == 0.0), "rows outside every set must be exactly zero"

    additive_worst = 0.0
    for i in range(C2_OVERLAP_INSTANCES):
        rng = np.random.default_rng([712, i])
        n, c = 48, 8
        q = rng.standard_normal((n, c))
        k = rng.standard_normal((n, c))
        v = rng.standard_normal((n, c))
        a = NeighborhoodPair((0, 0), np.arange(0, 30), np.arange(0, 25))
        b = NeighborhoodPair((20, 15), np.arange(20, 48), np.arange(15, 40))
        both = attention(q, k, v, pairs=membership([a, b]))[0]
        summed = (attention(q, k, v, pairs=membership([a]))[0]
                  + attention(q, k, v, pairs=membership([b]))[0])
        additive_worst = max(additive_worst, float(np.abs(both - summed).max()))

    print(f"criterion 2: blockwise max rel err {worst:.3e}, overlap "
          f"additivity max abs err {additive_worst:.3e}")
    assert worst <= 1e-12
    assert additive_worst <= C2_SUPERPOSITION_TOL


def test_criterion_03_empirical_complexity_and_op_audit():
    t0 = time.perf_counter()
    record = bench_attention(methods=("linear", "softmax"), sizes=C3_SIZES,
                             c_prime=64, reps=5, seed=0)
    audit = op_counter_audit()
    elapsed = time.perf_counter() - t0

    for entry in record["methods"].values():
        assert tuple(p["n"] for p in entry["points"]) == C3_SIZES
    lin, soft = (record["methods"][m]["slope"] for m in ("linear", "softmax"))
    print(f"criterion 3: slope linear={lin:.3f} softmax={soft:.3f}, "
          f"streamed multiply count {audit['linear_multiplies']} <= "
          f"bound {audit['linear_bound']}, elapsed {elapsed:.1f}s")
    assert C3_LINEAR_SLOPE[0] <= lin <= C3_LINEAR_SLOPE[1]
    assert C3_SOFTMAX_SLOPE[0] <= soft <= C3_SOFTMAX_SLOPE[1]
    # the audit raises internally on any violation; re-assert the headline
    # facts from the returned counts for a visible record
    assert audit["linear_multiplies"] <= audit["linear_bound"]
    assert audit["softmax_score_table"] == (256, 256)
    assert audit["pairwise_multiplies_doubled"] == 2 * audit["pairwise_multiplies"]
    assert elapsed < C3_BUDGET_S


def test_criterion_04_gradients_match_finite_differences():
    t0 = time.perf_counter()
    cfg = NetworkConfig(input_dim=8, hidden_dim=4, heads=1, l1=1, l2=0)
    errors = gradient_check(cfg, LossConfig(detach_confidence=False), seed=0,
                            samples=C4_SAMPLES, step=C4_STEP, dtype=np.float64)
    max_err, frac_ok, count = errors.max(), (errors < C4_REL_TOL).mean(), len(errors)
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: max rel err {max_err:.3e}, {frac_ok * 100:.1f}% of "
          f"{count} entries within {C4_REL_TOL:g}, elapsed {elapsed:.1f}s")
    assert count >= C4_MIN_SAMPLES
    assert frac_ok >= C4_MIN_FRACTION
    assert elapsed < C4_BUDGET_S


def _c5_scenes(noise, seed0, count):
    return [generate_pair(seed0 + k, C5_KEYPOINTS, (256, 256), 32, noise)
            for k in range(count)]


def _c5_precision(weights, net_cfg, neigh_cfg, heldout):
    vals = []
    for ks, kt, gt, h in heldout:
        m = match_pipeline(ks, kt, weights, net_cfg, neigh_cfg, skip_filter=True)
        vals.append(evaluate(m, gt, h, ks, kt).inlier_ratio)
    return float(np.mean(vals))


def _c5_dataset_loss(weights, dataset, net_cfg, loss_cfg):
    total = 0.0
    for batch in dataset:
        loss, _ = loss_gradient(weights, batch, net_cfg, loss_cfg)
        total += loss
    return total / len(dataset)


def test_criterion_05_toy_training_halves_loss_and_lifts_precision():
    t0 = time.perf_counter()
    net_cfg = NetworkConfig(input_dim=32, hidden_dim=16, heads=2, l1=2, l2=1)
    loss_cfg = LossConfig(m_p=0.5, m_n=0.8, detach_confidence=True)
    neigh_cfg = NeighborhoodConfig()
    noise = GenNoiseConfig(desc_sigma=0.75, jitter_sigma=0.5, distractors=20)

    train = [s[:3] for s in _c5_scenes(noise, 1000, C5_TRAIN_PAIRS)]
    held = _c5_scenes(noise, 90000, C5_HELD_PAIRS)

    w0 = init_weights(net_cfg, seed=0, dtype=np.float64)
    p0 = _c5_precision(w0, net_cfg, neigh_cfg, held)
    l0 = _c5_dataset_loss(w0, train, net_cfg, loss_cfg)

    weights, trace = train_toy(train, net_cfg, loss_cfg, C5_STEPS, seed=0)
    assert len(trace) == C5_STEPS

    p1 = _c5_precision(weights, net_cfg, neigh_cfg, held)
    l1 = _c5_dataset_loss(weights, train, net_cfg, loss_cfg)
    step_ratio = trace[-1][1] / trace[0][1]
    elapsed = time.perf_counter() - t0

    print(f"criterion 5: training-set loss {l0:.2f} -> {l1:.2f} "
          f"(ratio {l1 / l0:.3f}), per-step trace ratio {step_ratio:.3f}, "
          f"held-out precision@3px {p0:.3f} -> {p1:.3f} "
          f"(+{(p1 - p0) * 100:.1f}pp), elapsed {elapsed:.0f}s")
    assert l1 <= C5_LOSS_RATIO * l0
    assert step_ratio <= C5_LOSS_RATIO
    assert p1 - p0 >= C5_PRECISION_GAIN
    assert elapsed < C5_BUDGET_S


def test_criterion_06_clean_scene_perfect_and_deterministic():
    side, radius = 7, 10.0
    spacing = 1.3 * radius
    pts = np.array([[5 + spacing * (k % side), 5 + spacing * (k // side)]
                    for k in range(side * side)], dtype=np.float32)
    dim = side * side
    frame = int(spacing * side + 10)
    desc = np.eye(dim, dtype=np.float32)
    ks = KeypointSet(pts, desc, frame, frame)
    kt = KeypointSet(pts.copy(), desc.copy(), frame, frame)
    gt = GroundTruth([(i, i) for i in range(dim)])

    cfg = NetworkConfig(input_dim=dim, hidden_dim=8, heads=2, l1=1, l2=1)
    weights = init_weights(cfg, seed=0, dtype=np.float64)
    ncfg = NeighborhoodConfig(r=radius, r_t=radius)
    fcfg = FilterConfig(min_inliers=3)

    runs = [match_pipeline(ks, kt, weights, cfg, ncfg, fcfg=fcfg)
            for _ in range(2)]
    res = evaluate(runs[0], gt, Homography(np.eye(3)), ks, kt)
    identical = (np.array_equal(runs[0].pairs, runs[1].pairs)
                 and np.array_equal(runs[0].score, runs[1].score))
    print(f"criterion 6: recall={res.recall:.3f} precision={res.precision:.3f} "
          f"({res.num_matches} matches, repeated run identical={identical})")
    assert res.recall == 1.0
    assert res.precision == 1.0
    assert identical
    assert runs[0].stage == runs[1].stage


def _c7_instance(seed):
    """Planar scene under a near-identity affine map with displaced outliers.

    Returns (removed_fraction, retained_fraction) for matches that entered at
    least one verification neighborhood.
    """
    rng = np.random.default_rng([77, seed])
    w, h = 640, 480
    cfg = NeighborhoodConfig().resolved_pair((w, h), (w, h))
    displacement = 10.0 * (FilterConfig().inlier_threshold_factor * cfg.r_t)

    src = np.column_stack([rng.uniform(110, 530, C7_POINTS),
                           rng.uniform(110, 370, C7_POINTS)])
    affine = np.eye(2) + rng.uniform(-0.05, 0.05, (2, 2))
    shift = rng.uniform(-10, 10, 2)
    tgt = src @ affine.T + shift

    n_out = int(C7_OUTLIER_FRACTION * C7_POINTS)
    outliers = set(rng.permutation(C7_POINTS)[:n_out].tolist())
    for i in outliers:
        for _ in range(64):
            angle = rng.uniform(0, 2 * np.pi)
            moved = tgt[i] + displacement * np.array([np.cos(angle), np.sin(angle)])
            if 0 <= moved[0] < w and 0 <= moved[1] < h:
                tgt[i] = moved
                break
        else:  # pragma: no cover - geometry guarantees an in-frame direction
            raise AssertionError("could not keep displaced point in frame")

    desc = np.eye(C7_POINTS, dtype=np.float32)
    ks = KeypointSet(src.astype(np.float32), desc, w, h)
    kt = KeypointSet(tgt.astype(np.float32), desc.copy(), w, h)

    m = ratio_match(ks.descriptors, kt.descriptors, theta=1.0)
    seeds = select_seeds(m, ks.keypoints, cfg.r)
    neigh = build_neighborhoods(seeds, m, ks.keypoints, kt.keypoints, cfg)
    cand = MatchSet(m.matches, np.ones(len(m)), ["candidate"] * len(m))
    kept = filter_matches(cand, ks, kt, neigh, FilterConfig(rng_seed=1000 + seed), r_t=cfg.r_t)
    kept_src = set(kept.pairs[:, 0].tolist())

    member = {int(i) for p in neigh for i in p.source_set}
    out_member = outliers & member
    in_member = member - outliers
    removed = 1.0 - len(kept_src & out_member) / len(out_member)
    retained = len(kept_src & in_member) / len(in_member)
    return removed, retained


def test_criterion_07_filter_rejects_displaced_outliers():
    removed, retained = zip(*(_c7_instance(s) for s in range(C7_SEEDS)))
    mean_removed = float(np.mean(removed))
    mean_retained = float(np.mean(retained))
    print(f"criterion 7: outliers removed {mean_removed * 100:.1f}% "
          f"(worst {min(removed) * 100:.1f}%), inliers retained "
          f"{mean_retained * 100:.1f}% (worst {min(retained) * 100:.1f}%) "
          f"over {C7_SEEDS} seeds")
    assert mean_removed >= C7_MIN_REMOVED
    assert mean_retained >= C7_MIN_RETAINED


def test_criterion_08_selected_seeds_are_local_score_maxima():
    for t in range(C8_INSTANCES):
        rng = np.random.default_rng([88, t])
        n = int(rng.integers(1, 61))
        pts = rng.uniform(0, 200, (n, 2))
        perm = rng.permutation(n)
        scores = rng.exponential(1.0, n)
        scores[rng.random(n) < 0.08] = np.inf
        m = RatioMatchSet([(i, int(perm[i])) for i in range(n)], scores)
        radius = float(rng.uniform(3, 60))

        got = set(select_seeds(m, pts, radius).tolist())

        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        r2 = radius * radius
        expected = set()
        for a in range(n):
            dominated = False
            for b in range(n):
                if b == a or d2[a, b] > r2:
                    continue
                if scores[b] > scores[a] or (scores[b] == scores[a] and b < a):
                    dominated = True
                    break
            if not dominated:
                expected.add(a)
        assert got == expected, f"instance {t}: {sorted(got)} != {sorted(expected)}"
        for a in got:  # the promised invariant, asserted directly
            near = (d2[a] <= r2) & (np.arange(n) != a)
            assert not np.any(scores[near] > scores[a])
    print(f"criterion 8: seed sets equal the quadratic reference on "
          f"{C8_INSTANCES} instances")


def test_criterion_09_thread_count_does_not_change_output(tmp_path):
    synth_dir = tmp_path / "scene"
    assert cli_main(["synth", "--pairs", "1", "--kpts", "256",
                     "--dims", "320x240", "--desc-dim", "16",
                     "--seed", "5", "-o", str(synth_dir)]) == 0
    weights_path = tmp_path / "weights.lawt"
    cfg = NetworkConfig(input_dim=16, hidden_dim=16, heads=2, l1=1, l2=1)
    save_weights(weights_path, init_weights(cfg, seed=2))

    # the BLAS and OpenMP pools are sized when NumPy loads, so each size needs its own process
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "linmatch.cli", "match",
                               str(synth_dir / "pair0000" / "source.kpds"),
                               str(synth_dir / "pair0000" / "target.kpds"),
                               "--weights", str(weights_path), "--seed", "5",
                               "-o", str(out_dir)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "matches.csv").read_bytes())
    n_lines = outputs[0].count(b"\n") - 1
    print(f"criterion 9: 1-thread and 2-thread BLAS runs produced identical "
          f"{len(outputs[0])}-byte output ({n_lines} matches)")
    assert outputs[0] == outputs[1]


def test_criterion_10_containers_roundtrip_byte_identically(tmp_path):
    for i in range(C10_INSTANCES):
        rng = np.random.default_rng([100, i])
        n = int(rng.integers(0, 101))
        d = int(rng.integers(1, 65))
        w = int(rng.integers(10, 501))
        h = int(rng.integers(10, 501))
        ks = KeypointSet(rng.random((n, 2)) * [w - 1e-3, h - 1e-3],
                         rng.standard_normal((n, d)), w, h)
        first = tmp_path / f"kp{i}a.kpds"
        second = tmp_path / f"kp{i}b.kpds"
        write_kpds(first, ks)
        write_kpds(second, read_kpds(first))
        assert first.read_bytes() == second.read_bytes()

    for i in range(C10_INSTANCES):
        rng = np.random.default_rng([110, i])
        cfg = NetworkConfig(input_dim=int(rng.choice([4, 8, 16])),
                            hidden_dim=int(rng.choice([4, 8])),
                            heads=int(rng.choice([1, 2])),
                            l1=int(rng.integers(1, 3)),
                            l2=int(rng.integers(0, 2)))
        first = tmp_path / f"w{i}a.lawt"
        second = tmp_path / f"w{i}b.lawt"
        save_weights(first, init_weights(cfg, seed=i))
        save_weights(second, load_weights(first))
        assert first.read_bytes() == second.read_bytes()
    print(f"criterion 10: {C10_INSTANCES} keypoint files and "
          f"{C10_INSTANCES} weight files round-tripped byte-identically")
