"""Acceptance gate: one test per shipped criterion, at the pinned tolerances.

Each test appends an explicit "criterion N ... PASS/FAIL" line to the
terminal summary (see conftest.py), so a full run always ends with the
checklist even when capture is on. The benchmark-level criteria (5, 6, 7)
share one module-scoped set of ten default-recipe adaptation runs; this
module deliberately takes several minutes.
"""

import dataclasses
import json
import math
import pathlib
import time

import numpy as np
import pytest

import ssam.numerics as num
from conftest import ACCEPTANCE_LINES
from oracles import naive_association, naive_prototypes, naive_reconstruction
from ssam.adaptation import AdaptConfig, classify_batch, nearest_category, run_stream
from ssam.association import association_map, estimate_prototypes
from ssam.bench import (
    DEFAULT_FAMILY,
    class_average_heatmap,
    default_encoder,
    generate_dataset,
    gradcheck_command,
    load_dataset,
    run_ablation,
    save_dataset,
    summarize_ablation,
)
from ssam.bench.cli import main as cli_main
from ssam.bench.reports import DEFAULT_GRID
from ssam.bench.synthetic import SyntheticShiftSpec
from ssam.errors import FormatError
from ssam.objectives import loss_ca, loss_entropy, reconstruct

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "benchmark_golden.json").read_text()
)

TINY_SPEC = dict(
    num_classes=2, images_per_class=4, image_shape=(3, 4, 4), sample_noise=0.05, seed=3
)


def _criterion(n: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {n} ({label}): {status} - {detail}")
    assert ok, f"criterion {n} ({label}): {detail}"


def _sign_test_p(margins) -> float:
    """One-sided exact sign test against the null median(post - pre) <= 0.

    Ties are dropped: P(#positives >= w) under Binomial(n, 1/2).
    """
    nonzero = [m for m in margins if m != 0.0]
    n = len(nonzero)
    w = sum(1 for m in nonzero if m > 0.0)
    return sum(math.comb(n, k) for k in range(w, n + 1)) / 2.0**n


# ---------------------------------------------------------------------------
# shared benchmark runs (criteria 5, 6, 7)


@pytest.fixture(scope="module")
def default_runs():
    """Ten seeded default-benchmark adaptation runs under the frozen recipe."""
    t0 = time.perf_counter()
    runs = []
    for s in range(10):
        bench = generate_dataset(SyntheticShiftSpec(seed=s))
        ds = bench.dataset
        enc = default_encoder(DEFAULT_FAMILY, ds.image_shape)
        rep = run_stream(enc, ds, bench.embeddings[DEFAULT_FAMILY], AdaptConfig(seed=s))
        runs.append({"seed": s, "bench": bench, "encoder": enc, "report": rep})
    return {"runs": runs, "seconds": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_fidelity():
    rep = gradcheck_command(seed=0)
    ok = rep.passed and rep.max_rel_err <= 1e-4 and rep.seconds < 30.0
    _criterion(
        1,
        "gradient fidelity",
        ok,
        f"max rel err {rep.max_rel_err:.3e} (tol 1e-4) over {len(rep.rows)} "
        f"component/encoder cells in {rep.seconds:.1f}s (budget 30s)",
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(50):
        b = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        v = rng.normal(size=(b, d))
        t = rng.normal(size=(m, d))
        a = association_map(v, t)
        p = estimate_prototypes(a, v)

        raw_o, norm_o = naive_association(v, t)
        p_o, mass_o = naive_prototypes(norm_o, v)
        vhat_o = naive_reconstruction(norm_o, p_o)
        for got, want in (
            (num.cosine_similarity_matrix(v, t), raw_o),
            (a, norm_o),
            (p, p_o),
            (num.sum_axis(a, axis=0), mass_o),
            (reconstruct(a, p), vhat_o),
        ):
            worst = max(worst, float(np.abs(num.value_of(got) - want).max()))
    _criterion(
        2,
        "oracle equivalence",
        worst <= 1e-12,
        f"max elementwise deviation {worst:.3e} from naive loops over 50 "
        f"instances (tol 1e-12)",
    )


def test_criterion_3_invariant_suite():
    rng = np.random.default_rng(7)
    checks = []

    # row-stochastic association, convex prototype weights, entropy bounds
    for _ in range(20):
        b, m, d = int(rng.integers(1, 33)), int(rng.integers(2, 7)), int(rng.integers(2, 17))
        v = rng.normal(size=(b, d))
        t = rng.normal(size=(m, d))
        a = association_map(v, t)
        norm = num.value_of(a)
        checks.append(np.abs(norm.sum(axis=1) - 1.0).max() <= 1e-9)
        weights = norm / norm.sum(axis=0)
        checks.append(weights.min() >= -1e-9)
        checks.append(np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-9)
        p = num.value_of(estimate_prototypes(a, v))
        checks.append(np.abs(p - weights.T @ v).max() <= 1e-9)
        ent = float(num.value_of(loss_entropy(a)))
        checks.append(-1e-12 <= ent <= math.log(m) + 1e-12)

    # classification is invariant under positive feature scaling
    t = rng.normal(size=(5, 8))
    v = rng.normal(size=(12, 8))
    base = nearest_category(v, t)
    for scale in (1e-3, 2.5, 1e3):
        checks.append(bool(np.array_equal(nearest_category(scale * v, t), base)))

    # a full stream never touches frozen weights; a zero-step run keeps the
    # adapter at zero and reproduces frozen predictions label-for-label
    bench = generate_dataset(SyntheticShiftSpec(**TINY_SPEC))
    ds = bench.dataset
    enc = default_encoder(DEFAULT_FAMILY, ds.image_shape)
    emb = bench.embeddings[DEFAULT_FAMILY]
    before = enc.weights_checksum()
    cfg = AdaptConfig(seed=0, batch_size=4, steps_per_batch=3)
    run_stream(enc, ds, emb, cfg)
    checks.append(enc.weights_checksum() == before)

    zero_cfg = dataclasses.replace(cfg, steps_per_batch=0)
    rep = run_stream(enc, ds, emb, zero_cfg)
    images = np.asarray(ds.images, dtype=np.float64)
    checks.append(not np.any(rep.adapter))
    frozen_preds = classify_batch(enc, images, enc.new_adapter(), emb)
    adapted_preds = classify_batch(enc, images, rep.adapter, emb)
    checks.append(bool(np.array_equal(frozen_preds, adapted_preds)))
    checks.append(rep.post_accuracy == rep.pre_accuracy)

    _criterion(
        3,
        "invariant suite",
        all(checks),
        f"{sum(bool(c) for c in checks)}/{len(checks)} invariant checks hold "
        f"(row-stochastic 1e-9, convex weights 1e-9, prototypes = weights^T V 1e-9, "
        f"entropy in [0, ln M], scale-invariant classify, frozen checksums, "
        f"zero-adapter identity)",
    )


def test_criterion_4_hand_values():
    eye = np.eye(2)
    norm = num.value_of(association_map(eye, eye))
    softmax_err = max(
        float(np.abs(norm[0] - np.array([0.7311, 0.2689])).max()),
        float(np.abs(norm[1] - np.array([0.2689, 0.7311])).max()),
    )

    ca = float(num.value_of(loss_ca(eye, eye)))
    ca_err = abs(ca - 0.31326)

    ent = float(num.value_of(loss_entropy(np.array([[0.75, 0.25]]))))
    ent_err = abs(ent - 0.56234)

    ok = softmax_err <= 1e-4 and ca_err <= 1e-5 and ent_err <= 1e-5
    _criterion(
        4,
        "hand-computed values",
        ok,
        f"softmax([1,0]) err {softmax_err:.2e} (tol 1e-4), orthonormal L_ca err "
        f"{ca_err:.2e} (tol 1e-5), entropy([0.75,0.25]) err {ent_err:.2e} (tol 1e-5)",
    )


def test_criterion_5_adaptation_efficacy(default_runs):
    margins = [
        r["report"].post_accuracy - r["report"].pre_accuracy for r in default_runs["runs"]
    ]
    mean_margin = float(np.mean(margins))
    p = _sign_test_p(margins)
    positives = sum(1 for m in margins if m > 0)
    drift = max(
        abs(mean_margin - GOLDEN["mean_margin"]),
        max(abs(a - b) for a, b in zip(margins, GOLDEN["margins"])),
    )
    seconds = default_runs["seconds"]
    ok = mean_margin > 0.0 and p < 0.05 and seconds < 300.0 and drift <= 1e-9
    _criterion(
        5,
        "adaptation efficacy",
        ok,
        f"mean(post - pre) = {mean_margin:+.4f} over 10 seeds ({positives}/10 "
        f"positive, sign-test p = {p:.4f} < 0.05), drift from recorded baseline "
        f"{drift:.1e}, {seconds:.0f}s (budget 300s)",
    )


def test_criterion_6_ablation_trend(default_runs):
    # the program's own ablation path, on its pool: the loss masks on every
    # seed, and the (alpha, beta) grid on seed 0 only
    rows = []
    for r in default_runs["runs"]:
        grid = DEFAULT_GRID if r["seed"] == 0 else ()
        emb = r["bench"].embeddings[DEFAULT_FAMILY]
        cfg = AdaptConfig(seed=r["seed"])
        rows += run_ablation(r["encoder"], r["bench"].dataset, emb, cfg, grid, grid, seeds=1)
    means = summarize_ablation(rows)
    # the pool's `full` streams are the fixture's serial runs, bit for bit
    full = [row["post_accuracy"] for row in rows if row["mask"] == "full"]
    pool_is_serial = full == [r["report"].post_accuracy for r in default_runs["runs"]]

    # 0.5 accuracy points of slack, ties allowed
    tol = 0.005
    trend_ok = (
        means["full"] >= means["ent-only"] - tol
        and means["ent+pir"] >= means["ent-only"] - tol
        and means["ent+ca"] >= means["ent-only"] - tol
    )

    # report-only: is the pinned (1.0, 1.0) within 1 point of the best grid cell?
    cells = {(row["alpha"], row["beta"]): row["post_accuracy"] for row in rows if row["mask"] == "grid"}
    best = max(cells, key=cells.get)
    within = cells[(1.0, 1.0)] >= cells[best] - 0.01
    grid_note = (
        f"grid seed 0: alpha=beta=1.0 {'is' if within else 'is NOT'} within 1 point "
        f"of best cell alpha={best[0]} beta={best[1]} "
        f"({cells[(1.0, 1.0)]:.4f} vs {cells[best]:.4f}; report only)"
    )

    _criterion(
        6,
        "ablation trend",
        pool_is_serial and trend_ok,
        f"mean post accuracy full {means['full']:.4f}, ent+pir {means['ent+pir']:.4f}, "
        f"ent+ca {means['ent+ca']:.4f}, ent-only {means['ent-only']:.4f} "
        f"(each >= ent-only - {tol}); pool full rows "
        f"{'equal' if pool_is_serial else 'DIFFER from'} the serial runs; {grid_note}",
    )


def test_criterion_7_diagnostics_trend(default_runs):
    diag_pre, diag_post = [], []
    for entry in default_runs["runs"]:
        ds = entry["bench"].dataset
        enc = entry["encoder"]
        emb = entry["bench"].embeddings[DEFAULT_FAMILY]
        images = np.asarray(ds.images, dtype=np.float64)
        labels = np.asarray(ds.labels, dtype=np.int64)
        feats0 = num.value_of(enc.encode_batch(images, enc.new_adapter()))
        feats1 = num.value_of(enc.encode_batch(images, entry["report"].adapter))
        for feats, diag in ((feats0, diag_pre), (feats1, diag_post)):
            assoc = num.value_of(association_map(feats, emb))
            grid = class_average_heatmap(assoc, labels, len(emb))
            diag.append(float(np.diag(grid).mean()))
    holds = sum(1 for a, b in zip(diag_pre, diag_post) if b >= a)
    _criterion(
        7,
        "diagnostics trend",
        holds == len(diag_pre),
        f"post-adaptation heatmap mean-diagonal >= pre on {holds}/10 seeds "
        f"(means {np.mean(diag_pre):.4f} -> {np.mean(diag_post):.4f})",
    )


def test_criterion_8_determinism_io(tmp_path):
    checks = []

    # identical invocations, byte-identical artifacts
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(TINY_SPEC))
    data_a, data_b = tmp_path / "a.ssamds", tmp_path / "b.ssamds"
    for out in (data_a, data_b):
        assert cli_main(["gen-data", "--spec", str(spec_file), "--out", str(out)]) == 0
    checks.append(data_a.read_bytes() == data_b.read_bytes())

    reports = []
    for name in ("r1", "r2"):
        rep_dir = tmp_path / name
        rc = cli_main(
            ["adapt", "--data", str(data_a), "--steps", "2", "--batch", "4",
             "--report", str(rep_dir)]
        )
        assert rc == 0
        reports.append({p.name: p.read_bytes() for p in sorted(rep_dir.iterdir())})
    checks.append(reports[0] == reports[1])

    # bit-exact dataset round-trip
    ds = load_dataset(data_a)
    resaved = tmp_path / "resaved.ssamds"
    save_dataset(ds, resaved)
    checks.append(resaved.read_bytes() == data_a.read_bytes())
    ds2 = load_dataset(resaved)
    checks.append(
        np.array_equal(ds.images, ds2.images) and np.array_equal(ds.labels, ds2.labels)
    )

    # corruption surfaces as a format error naming the byte offset
    blob = bytearray(data_a.read_bytes())
    bad_magic = tmp_path / "bad_magic.ssamds"
    bad_magic.write_bytes(b"XXAMDS01" + bytes(blob[8:]))
    with pytest.raises(FormatError, match="byte 0"):
        load_dataset(bad_magic)
    truncated = tmp_path / "truncated.ssamds"
    truncated.write_bytes(bytes(blob[: len(blob) - 3]))
    with pytest.raises(FormatError, match="byte"):
        load_dataset(truncated)
    bad_label = tmp_path / "bad_label.ssamds"
    corrupt = bytearray(blob)
    corrupt[-4:] = (99).to_bytes(4, "little")
    bad_label.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match=f"at byte {len(blob) - 4}"):
        load_dataset(bad_label)
    checks.append(cli_main(["adapt", "--data", str(bad_magic), "--report", str(tmp_path / "x")]) == 1)

    _criterion(
        8,
        "determinism and I/O",
        all(checks),
        f"{sum(bool(c) for c in checks)}/{len(checks)} checks hold (byte-identical "
        f"gen-data and adapt reports, bit-exact round-trip, offset-bearing format "
        f"errors, exit code 1 on corrupt input)",
    )
