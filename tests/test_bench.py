import dataclasses
import json
import os
import pathlib
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_golden, truncations_and_bit_flips
from ssam import numerics as num
from ssam.adaptation import AdaptConfig, evaluate
from ssam.association import association_map
from ssam.bench import gradcheck as gc
from ssam.bench import reports, synthetic as syn
from ssam.bench.reports import usable_cores
from ssam.encoders import embed_categories
from ssam.errors import ConfigError, FormatError, GenerationQualityError

# small spec so generation-heavy tests stay fast
TINY = dict(num_classes=2, images_per_class=4, image_shape=(3, 4, 4), sample_noise=0.05, seed=3)


def tiny_spec(**over):
    kw = dict(TINY)
    kw.update(over)
    return syn.SyntheticShiftSpec(**kw)


# ---------------------------------------------------------------------------
# spec validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(num_classes=1),
        dict(images_per_class=0),
        dict(image_shape=(3, 4)),
        dict(image_shape=(0, 4, 4)),
        dict(shift_kind="blur"),
        dict(shift_kind="channel-rotation", image_shape=(1, 4, 4)),
        dict(shift_magnitude=-0.1),
        dict(sample_noise=-1.0),
        dict(shift_magnitude=float("nan")),
        dict(shift_magnitude=float("inf")),
        dict(sample_noise=float("nan")),
        dict(sample_noise=float("inf")),
    ],
)
def test_spec_rejects_bad_fields(kw):
    with pytest.raises(ConfigError):
        tiny_spec(**kw)


def test_spec_json_round_trip(tmp_path):
    spec = tiny_spec(shift_kind="pixel-noise", shift_magnitude=0.7)
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(dataclasses.asdict(spec)))
    again = syn.SyntheticShiftSpec.from_json(p)
    assert dataclasses.asdict(again) == dataclasses.asdict(spec)


def test_spec_json_rejects_unknown_keys(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"num_classes": 2, "blur_radius": 3}))
    with pytest.raises(ConfigError, match="blur_radius"):
        syn.SyntheticShiftSpec.from_json(p)


def test_default_spec_matches_frozen_benchmark():
    spec = syn.SyntheticShiftSpec()
    assert spec.num_classes == 4
    assert spec.images_per_class == 40
    assert spec.image_shape == (3, 8, 8)
    assert spec.shift_kind == "additive-bias"
    assert spec.shift_magnitude == 0.25


def test_default_recipe_pins_frozen_settings():
    cfg = AdaptConfig(seed=5)
    assert cfg.alpha == 1.0 and cfg.beta == 1.0
    assert cfg.learning_rate == 1e-4
    assert cfg.batch_size == 64 and cfg.steps_per_batch == 50
    assert cfg.seed == 5


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic():
    a = syn.generate_dataset(tiny_spec())
    b = syn.generate_dataset(tiny_spec())
    assert np.array_equal(a.dataset.images, b.dataset.images)
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    for fam in ("vit", "conv"):
        assert np.array_equal(a.embeddings[fam], b.embeddings[fam])
        assert a.probe_accuracy[fam] == b.probe_accuracy[fam]


def test_generation_layout_and_labels():
    bench = syn.generate_dataset(tiny_spec())
    ds = bench.dataset
    assert ds.images.shape == (8, 3, 4, 4)
    assert ds.images.dtype == np.dtype("<f4")
    assert ds.labels.dtype == np.dtype("<u4")
    assert np.bincount(ds.labels, minlength=2).tolist() == [4, 4]


@pytest.mark.parametrize("kind", ["additive-bias", "pixel-noise", "channel-rotation"])
def test_zero_magnitude_shift_keeps_frozen_accuracy(kind):
    # magnitude 0 makes every shift a no-op, so frozen accuracy on the
    # emitted dataset equals the unshifted probe accuracy exactly
    bench = syn.generate_dataset(tiny_spec(shift_kind=kind, shift_magnitude=0.0))
    ds = bench.dataset
    for fam in ("vit", "conv"):
        enc = syn.default_encoder(fam, ds.image_shape)
        _, acc = evaluate(
            enc,
            ds.images.astype(np.float64),
            ds.labels.astype(np.int64),
            enc.new_adapter(),
            bench.embeddings[fam],
        )
        assert acc == bench.probe_accuracy[fam]


def test_additive_bias_adds_constant():
    base = syn.generate_dataset(tiny_spec(shift_magnitude=0.0)).dataset
    shifted = syn.generate_dataset(tiny_spec(shift_magnitude=0.5)).dataset
    np.testing.assert_allclose(shifted.images - base.images, 0.5, atol=1e-6)


def test_channel_rotation_mixes_first_two_channels_only():
    angle = 0.7
    base = syn.generate_dataset(tiny_spec(shift_kind="additive-bias", shift_magnitude=0.0)).dataset
    rot = syn.generate_dataset(tiny_spec(shift_kind="channel-rotation", shift_magnitude=angle)).dataset
    np.testing.assert_allclose(rot.images[:, 2], base.images[:, 2], atol=1e-6)
    c0 = np.cos(angle) * base.images[:, 0] - np.sin(angle) * base.images[:, 1]
    c1 = np.sin(angle) * base.images[:, 0] + np.cos(angle) * base.images[:, 1]
    np.testing.assert_allclose(rot.images[:, 0], c0, atol=1e-5)
    np.testing.assert_allclose(rot.images[:, 1], c1, atol=1e-5)
    # energy in the rotated plane is preserved
    np.testing.assert_allclose(
        rot.images[:, 0] ** 2 + rot.images[:, 1] ** 2,
        base.images[:, 0] ** 2 + base.images[:, 1] ** 2,
        atol=1e-4,
    )


def test_pixel_noise_shift_perturbs_images_deterministically():
    a = syn.generate_dataset(tiny_spec(shift_kind="pixel-noise", shift_magnitude=0.3)).dataset
    b = syn.generate_dataset(tiny_spec(shift_kind="pixel-noise", shift_magnitude=0.3)).dataset
    clean = syn.generate_dataset(tiny_spec(shift_kind="pixel-noise", shift_magnitude=0.0)).dataset
    assert np.array_equal(a.images, b.images)
    diff = a.images.astype(np.float64) - clean.images.astype(np.float64)
    assert np.abs(diff).max() > 0.05
    assert abs(diff.std() - 0.3) < 0.05


def test_probe_quality_gate_rejects_unlearnable_spec():
    spec = syn.SyntheticShiftSpec(num_classes=8, images_per_class=200, sample_noise=1e3, seed=0)
    with pytest.raises(GenerationQualityError, match="probe accuracy"):
        syn.generate_dataset(spec)


def test_seed0_default_benchmark_matches_golden():
    g = load_golden("benchmark_golden.json")["seed0_baselines"]
    bench = syn.generate_dataset(syn.SyntheticShiftSpec(seed=0))
    ds = bench.dataset
    for fam in ("vit", "conv"):
        enc = syn.default_encoder(fam, ds.image_shape)
        _, acc = evaluate(
            enc,
            ds.images.astype(np.float64),
            ds.labels.astype(np.int64),
            enc.new_adapter(),
            bench.embeddings[fam],
        )
        assert bench.probe_accuracy[fam] == pytest.approx(g[fam]["unshifted_probe_accuracy"], abs=1e-12)
        assert acc == pytest.approx(g[fam]["shifted_frozen_accuracy"], abs=1e-12)
        # the shift must actually cost accuracy, else adaptation has nothing to recover
        assert acc < bench.probe_accuracy[fam]


# ---------------------------------------------------------------------------
# dataset files


def test_dataset_round_trip_is_bit_exact(tmp_path):
    bench = syn.generate_dataset(tiny_spec())
    p = tmp_path / "d.ssamds"
    syn.save_dataset(bench.dataset, p)
    loaded = syn.load_dataset(p)
    assert np.array_equal(loaded.images, bench.dataset.images)
    assert np.array_equal(loaded.labels, bench.dataset.labels)
    q = tmp_path / "again.ssamds"
    syn.save_dataset(loaded, q)
    assert p.read_bytes() == q.read_bytes()


def _write_tiny(tmp_path):
    bench = syn.generate_dataset(tiny_spec())
    p = tmp_path / "d.ssamds"
    syn.save_dataset(bench.dataset, p)
    return p, bench.dataset


def test_load_rejects_truncated_header(tmp_path):
    p, _ = _write_tiny(tmp_path)
    p.write_bytes(p.read_bytes()[:10])
    with pytest.raises(FormatError, match="byte 10"):
        syn.load_dataset(p)


def test_load_rejects_bad_magic(tmp_path):
    p, _ = _write_tiny(tmp_path)
    blob = bytearray(p.read_bytes())
    blob[:8] = b"NOTADATA"
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="byte 0"):
        syn.load_dataset(p)


def test_load_rejects_bad_version(tmp_path):
    p, _ = _write_tiny(tmp_path)
    blob = bytearray(p.read_bytes())
    struct.pack_into("<I", blob, 8, 9)
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version 9 at byte 8"):
        syn.load_dataset(p)


def test_load_rejects_bad_class_count(tmp_path):
    p, _ = _write_tiny(tmp_path)
    blob = bytearray(p.read_bytes())
    struct.pack_into("<I", blob, 28, 1)
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="byte 28"):
        syn.load_dataset(p)


def test_load_rejects_size_mismatch(tmp_path):
    p, _ = _write_tiny(tmp_path)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="expected"):
        syn.load_dataset(p)


def test_load_names_offset_of_non_finite_pixel(tmp_path):
    p, ds = _write_tiny(tmp_path)
    blob = bytearray(p.read_bytes())
    flat = 7
    struct.pack_into("<f", blob, 32 + 4 * flat, float("inf"))
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"byte {32 + 4 * flat}"):
        syn.load_dataset(p)


def test_load_names_offset_of_bad_label(tmp_path):
    p, ds = _write_tiny(tmp_path)
    blob = bytearray(p.read_bytes())
    label_offset = 32 + ds.images.size * 4
    struct.pack_into("<I", blob, label_offset + 4 * 3, 99)
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"label 99 >= 2 at byte {label_offset + 12}"):
        syn.load_dataset(p)


@pytest.mark.parametrize("offset", [16, 20, 24])
def test_load_rejects_zero_image_dimension(tmp_path, offset):
    # count * (C*H*W + 1) still matches the file: only the zero check can catch it
    p = tmp_path / "zero.ssamds"
    dims = [3, 4, 4]
    dims[(offset - 16) // 4] = 0
    p.write_bytes(
        struct.pack("<8sIIIIII", syn.DS_MAGIC, syn.DS_VERSION, 2, *dims, 2)
        + struct.pack("<II", 0, 1)
    )
    with pytest.raises(FormatError, match=f" 0 at byte {offset}$"):
        syn.load_dataset(p)


def test_load_rejects_zero_image_count(tmp_path):
    # header and file agree on zero images: an empty stream is still corrupt
    p = tmp_path / "empty.ssamds"
    p.write_bytes(struct.pack("<8sIIIIII", syn.DS_MAGIC, syn.DS_VERSION, 0, 3, 4, 4, 2))
    with pytest.raises(FormatError, match="image count 0 at byte 12$"):
        syn.load_dataset(p)


def test_load_checks_the_header_in_byte_order(tmp_path):
    # version 9 at byte 8 and a zero count at byte 12: the lower offset wins
    p = tmp_path / "two_faults.ssamds"
    p.write_bytes(struct.pack("<8sIIIIII", syn.DS_MAGIC, 9, 0, 3, 4, 4, 2))
    with pytest.raises(FormatError, match="version 9 at byte 8$"):
        syn.load_dataset(p)


_HEADER_FIELDS = (  # (offset, struct format, values to try)
    (0, "<8s", st.binary(min_size=8, max_size=8)),
    *(
        (off, "<I", st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)))
        for off in range(8, 32, 4)
    ),
)


def _small_dataset_bytes() -> bytes:
    # two 1x1x1 zero images: many small header values still fit the file's
    # length, so the checks past the size test are reached too
    ds = syn.Dataset(np.zeros((2, 1, 1, 1)), np.array([1, 0]), num_classes=2)
    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "small.ssamds"
        syn.save_dataset(ds, p)
        return p.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_header_fuzz_fails_only_with_a_byte_offset(data):
    blob = bytearray(_small_dataset_bytes())
    for i, (offset, fmt, values) in enumerate(_HEADER_FIELDS):
        if data.draw(st.booleans(), label=f"change field {i}"):
            struct.pack_into(fmt, blob, offset, data.draw(values, label=f"field {i}"))
    _, _, count, c, h, w, m = struct.unpack_from("<8sIIIIII", blob)
    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "fuzzed.ssamds"
        p.write_bytes(bytes(blob))
        try:
            ds = syn.load_dataset(p)
        except FormatError as exc:
            assert "byte" in str(exc)
            return
    assert 0 not in (count, c, h, w)
    assert ds.count == count and ds.image_shape == (c, h, w) and ds.num_classes == m


def test_load_every_truncation_and_bit_flip_fails_with_a_byte_offset(tmp_path):
    p = tmp_path / "damaged.ssamds"
    loaded = 0
    for what, blob in truncations_and_bit_flips(_small_dataset_bytes()):
        p.write_bytes(blob)
        try:
            ds = syn.load_dataset(p)
        except FormatError as exc:
            assert re.search(r"\bbyte \d+", str(exc)), (what, str(exc))
            continue
        loaded += 1
        _, _, count, c, h, w, m = struct.unpack_from("<8sIIIIII", blob)
        assert (ds.count, ds.image_shape, ds.num_classes) == (count, (c, h, w), m), what
    # the valid damaged files: 31 class counts (all but 2 -> 0), any pixel
    # (one flip leaves a zero float32 finite), labels 1 -> 0 and 0 -> 1
    assert loaded == 31 + 64 + 2


def test_dataset_constructor_guards():
    imgs = np.zeros((2, 3, 4, 4), dtype="<f4")
    with pytest.raises(ConfigError, match="out of range"):
        syn.Dataset(imgs, np.array([0, 5], dtype="<u4"), num_classes=2)
    with pytest.raises(ConfigError, match="labels"):
        syn.Dataset(imgs, np.array([0], dtype="<u4"), num_classes=2)


def test_dataset_images_must_be_four_dimensional():
    with pytest.raises(ConfigError, match=re.escape("images must be (n, C, H, W)")):
        syn.Dataset(np.zeros((2, 3, 4)), np.array([0, 1]), num_classes=2)


def test_companion_embeddings_round_trip(tmp_path):
    bench = syn.generate_dataset(tiny_spec())
    p = tmp_path / "d.ssamds"
    syn.save_benchmark(bench, p)
    assert (tmp_path / "d.ssamds.vit.emb").exists()
    assert (tmp_path / "d.ssamds.conv.emb").exists()
    emb = syn.load_companion_embeddings(p, "vit")
    np.testing.assert_allclose(emb, bench.embeddings["vit"], atol=1e-6)


def test_missing_companion_embeddings_is_config_error(tmp_path):
    p, _ = _write_tiny(tmp_path)
    with pytest.raises(ConfigError, match="gen-data"):
        syn.load_companion_embeddings(p, "vit")


# ---------------------------------------------------------------------------
# default encoder construction


def test_default_encoder_families():
    vit = syn.default_encoder("vit", (3, 8, 8), insertion_layer=2)
    assert vit.family == "vit"
    assert vit.grid == (4, 4)
    assert vit.insertion_layer == 2
    conv = syn.default_encoder("conv", (3, 8, 8))
    assert conv.family == "conv"
    for layer in (7, -3):  # the conv adapter has one fixed entry point
        with pytest.raises(ConfigError):
            syn.default_encoder("conv", (3, 8, 8), insertion_layer=layer)
    with pytest.raises(ConfigError):
        syn.default_encoder("mlp", (3, 8, 8))
    with pytest.raises(ConfigError):
        syn.default_encoder("vit", (3, 7, 8))


# ---------------------------------------------------------------------------
# report pieces


def test_heatmap_rows_are_class_ordered_and_stochastic():
    t = embed_categories(3, 8, seed=2)
    feats = np.vstack([t, t[0]])  # one image per class plus an extra class-0 image
    labels = np.array([0, 1, 2, 0])
    assoc = num.value_of(association_map(feats, t))
    grid = reports.class_average_heatmap(assoc, labels)
    assert grid.shape == (3, 3)
    np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(np.argmax(grid, axis=1) == np.arange(3))


def test_pca_projection_shape_and_sign_convention():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(20, 6))
    p1 = reports.pca_projection(x)
    p2 = reports.pca_projection(x)
    assert p1.shape == (20, 2)
    assert np.array_equal(p1, p2)
    # the sign convention pins component orientation, so negating the
    # data negates the projection instead of scrambling signs
    np.testing.assert_allclose(reports.pca_projection(-x), -p1, atol=1e-9)


@pytest.mark.parametrize("n, d", [(1, 6), (5, 1), (1, 1)])
def test_pca_projection_pads_missing_components_with_zero(n, d):
    x = np.random.default_rng(3).normal(size=(n, d))
    p = reports.pca_projection(x)
    assert p.shape == (n, 2)
    assert not p[:, 1].any()
    assert p[:, 0].any() == (n > 1)


def test_class_dispersion_hand_value():
    feats = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
    labels = np.array([0, 0, 1, 1])
    assert reports.class_dispersion(feats, labels) == pytest.approx(5.0)
    # three centroids: pairwise mean of (1, 1, 2) on a line
    feats3 = np.array([[0.0], [1.0], [2.0]])
    assert reports.class_dispersion(feats3, np.array([0, 1, 2])) == pytest.approx(4.0 / 3.0)


def _tiny_run_inputs():
    bench = syn.generate_dataset(tiny_spec())
    ds = bench.dataset
    enc = syn.default_encoder("conv", ds.image_shape)
    return enc, ds, bench.embeddings["conv"]


def test_run_experiment_zero_steps_pre_equals_post():
    enc, ds, emb = _tiny_run_inputs()
    cfg = AdaptConfig(batch_size=4, steps_per_batch=0)
    bundle = reports.run_experiment(enc, ds, emb, cfg)
    s = bundle.summary
    assert s["pre_accuracy"] == s["post_accuracy"] == s["online_accuracy"]
    assert np.array_equal(bundle.heatmap_pre, bundle.heatmap_post)
    assert np.array_equal(bundle.projection_pre, bundle.projection_post)
    assert np.array_equal(bundle.association_pre, bundle.association_post)
    assert bundle.loss_curve == []
    assert s["dispersion_pre"] == s["dispersion_post"]


def test_summary_recipe_rows_are_the_adapt_config_fields_in_order():
    enc, ds, emb = _tiny_run_inputs()
    cfg = AdaptConfig(batch_size=4, steps_per_batch=1)
    summary = reports.run_experiment(enc, ds, emb, cfg).summary
    recipe = [f.name for f in dataclasses.fields(AdaptConfig)]
    results = ["pre_accuracy", "post_accuracy", "online_accuracy",
               "dispersion_pre", "dispersion_post", "adapter_checksum"]
    assert list(summary) == ["encoder_family", "num_images", "num_categories", *recipe, *results]
    assert {k: summary[k] for k in recipe} == dataclasses.asdict(cfg)


def test_write_report_is_byte_deterministic(tmp_path):
    enc, ds, emb = _tiny_run_inputs()
    cfg = AdaptConfig(batch_size=4, steps_per_batch=2, learning_rate=1e-3)
    bundle = reports.run_experiment(enc, ds, emb, cfg)
    p1 = reports.write_report(bundle, tmp_path / "r1", per_image=True)
    bundle2 = reports.run_experiment(enc, ds, emb, cfg)
    p2 = reports.write_report(bundle2, tmp_path / "r2", per_image=True)
    names = [pp.rsplit("/", 1)[-1] for pp in p1]
    assert "association_pre.csv" in names and "loss_curve.csv" in names
    for a, b in zip(p1, p2):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), a


def test_run_ablation_rows_and_identities():
    enc, ds, emb = _tiny_run_inputs()
    base = AdaptConfig(batch_size=4, steps_per_batch=2, learning_rate=1e-3, seed=4)
    rows = reports.run_ablation(enc, ds, emb, base, grid_alpha=[0.0, 1.0], grid_beta=[0.0], seeds=2)
    assert len(rows) == (4 + 2) * 2
    by = {(r["mask"], r["alpha"], r["beta"], r["seed"]): r for r in rows}
    # a grid cell at (0, 0) is the same run as the ent-only mask row
    for seed in (4, 5):
        assert (
            by[("grid", 0.0, 0.0, seed)]["post_accuracy"]
            == by[("ent-only", 0.0, 0.0, seed)]["post_accuracy"]
        )
    # grid of size 1 at the base weights reproduces run_experiment
    bundle = reports.run_experiment(enc, ds, emb, base)
    assert by[("grid", 1.0, 0.0, 4)]["post_accuracy"] == pytest.approx(
        reports.run_experiment(
            enc, ds, emb, dataclasses.replace(base, beta=0.0)
        ).summary["post_accuracy"]
    )
    assert by[("full", 1.0, 1.0, 4)]["post_accuracy"] == bundle.summary["post_accuracy"]
    assert by[("full", 1.0, 1.0, 4)]["pre_accuracy"] == bundle.summary["pre_accuracy"]


def test_run_ablation_is_thread_count_invariant(monkeypatch):
    enc, ds, emb = _tiny_run_inputs()
    base = AdaptConfig(batch_size=4, steps_per_batch=1, learning_rate=1e-3)
    rows = []
    for threads in (1, 3):
        monkeypatch.setattr(reports, "usable_cores", lambda n=threads: n)
        rows.append(reports.run_ablation(enc, ds, emb, base, grid_alpha=[1.0], grid_beta=[1.0], seeds=1))
    assert rows[0] == rows[1]


def test_run_ablation_runs_each_distinct_stream_once(monkeypatch):
    enc, ds, emb = _tiny_run_inputs()
    base = AdaptConfig(batch_size=4, steps_per_batch=1, learning_rate=1e-3, seed=4)
    ran = []

    def counted(encoder, dataset, emb, cfg):
        ran.append((cfg.alpha, cfg.beta, cfg.seed))
        return run_stream(encoder, dataset, emb, cfg)

    run_stream = reports.run_stream
    monkeypatch.setattr(reports, "run_stream", counted)
    rows = reports.run_ablation(enc, ds, emb, base, grid_alpha=[1.0, 0.5], grid_beta=[1.0], seeds=2)
    assert len(rows) == (4 + 2) * 2
    assert sorted(ran) == sorted(set(ran)) and len(ran) == 5 * 2  # grid (1, 1) is full
    by = {(r["mask"], r["alpha"], r["beta"], r["seed"]): r for r in rows}
    for seed in (4, 5):
        full, grid = by[("full", 1.0, 1.0, seed)], by[("grid", 1.0, 1.0, seed)]
        assert full is not grid and dict(full, mask="grid") == grid
    # the default sweep: 4 mask rows and a 5 x 5 grid, of which one is full
    cells = reports.ablation_cells(AdaptConfig())
    assert len(cells) == 29 and len({(a, b) for _, a, b in cells}) == 28


def test_pool_default_is_the_usable_core_count(monkeypatch):
    # an affinity mask narrower than the machine sizes the pool, not the
    # CPU count; without sched_getaffinity the CPU count is the fallback
    assert reports.usable_cores is usable_cores
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cores() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert usable_cores() == 8


def test_run_ablation_validation():
    enc, ds, emb = _tiny_run_inputs()
    base = AdaptConfig(batch_size=4)
    with pytest.raises(ConfigError):
        reports.run_ablation(enc, ds, emb, base, seeds=0)
    with pytest.raises(ConfigError):
        reports.run_ablation(enc, ds, emb, base, grid_alpha=[-1.0], grid_beta=[1.0], seeds=1)


def test_summarize_ablation_means():
    rows = [
        {"mask": "full", "post_accuracy": 0.5},
        {"mask": "full", "post_accuracy": 0.7},
        {"mask": "ent-only", "post_accuracy": 0.4},
    ]
    out = reports.summarize_ablation(rows)
    assert out == {"full": pytest.approx(0.6), "ent-only": pytest.approx(0.4)}


def test_write_ablation_deterministic(tmp_path):
    enc, ds, emb = _tiny_run_inputs()
    base = AdaptConfig(batch_size=4, steps_per_batch=1, learning_rate=1e-3)
    rows = reports.run_ablation(enc, ds, emb, base, grid_alpha=[1.0], grid_beta=[1.0], seeds=1)
    a = reports.write_ablation(rows, tmp_path / "a")
    b = reports.write_ablation(rows, tmp_path / "b")
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


# ---------------------------------------------------------------------------
# gradcheck harness


def test_gradcheck_small_sizes_pass(small_gradcheck):
    rep = gc.gradcheck_command(seed=0)
    assert rep.passed
    assert rep.max_rel_err <= gc.TOLERANCE
    assert len(rep.rows) == 16  # 4 components x (3 vit insertions + conv)
    fams = {(r.family, r.insertion_layer) for r in rep.rows}
    assert fams == {("vit", 0), ("vit", 1), ("vit", 3), ("conv", None)}


def test_gradcheck_is_deterministic(small_gradcheck):
    a = gc.gradcheck_command(seed=1)
    b = gc.gradcheck_command(seed=1)
    assert [r.max_rel_err for r in a.rows] == [r.max_rel_err for r in b.rows]


def test_gradcheck_corrupt_hook_names_component(small_gradcheck, broken_log_vjp):
    rep = gc.gradcheck_command(seed=0)
    assert not rep.passed
    assert {r.component for r in rep.rows if not r.passed} == {"ca", "total"}
    text = gc.format_report(rep)
    assert "FAIL" in text
    assert "offending component(s): ca, total" in text


def test_gradcheck_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        gc.gradcheck_command(seed=-1)


def test_rel_err_floor_when_both_routes_are_near_zero():
    # both routes essentially zero: central-difference noise of ~1e-11
    # is divided by the 1e-6 floor, not by itself
    assert gc._rel_err(np.zeros(3), np.full(3, 1e-11)) == pytest.approx(1e-5)
    assert gc._rel_err(np.full(3, 1e-11), np.zeros(3)) == pytest.approx(1e-5)
