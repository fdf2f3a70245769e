"""Regenerate the golden regression files in this directory.

Run from the repository root after an intentional behaviour change:

    python3 tests/golden/regen.py

Goldens pin reference-run outputs (seeded encoders, embeddings, and the
small adaptation regression); hand-derived expected values live directly
in the tests instead and are never regenerated.
"""

import json
import pathlib

import numpy as np

from ssam.encoders import ToyConvEncoder, ToyViTEncoder, embed_categories

HERE = pathlib.Path(__file__).parent


def _dump(name, payload):
    with open(HERE / name, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {name}")


def regen_encoders():
    img = np.random.default_rng(1234).normal(size=(3, 8, 8))
    tokens = np.random.default_rng(99).normal(0.0, 0.1, (16, 16))
    vit = ToyViTEncoder(seed=0)
    conv = ToyConvEncoder(seed=0)
    _dump(
        "encoders_golden.json",
        {
            "image": img.tolist(),
            "adapter_tokens": tokens.tolist(),
            "vit_patch_embeddings": vit.prefix(img[None])[0].tolist(),
            "vit_feature": vit.encode_batch(img[None], tokens)[0].tolist(),
            "conv_feature": conv.encode_batch(img[None], tokens)[0].tolist(),
        },
    )


def regen_categories():
    emb = embed_categories(4, 16, seed=0)
    _dump("categories_golden.json", {"matrix": emb.tolist()})


def regen_adaptation():
    from ssam.adaptation import AdaptConfig, adapt_batch

    enc = ToyViTEncoder(seed=0)
    emb = embed_categories(4, 16, seed=0)
    imgs = np.random.default_rng(123).normal(size=(16,) + enc.image_shape)
    cfg = AdaptConfig(learning_rate=1e-3, steps_per_batch=10)
    _, history = adapt_batch(enc, imgs, enc.new_adapter(), emb, cfg)
    _dump(
        "adaptation_golden.json",
        {
            "descent_first_total": history[0].total,
            "descent_last_total": history[-1].total,
        },
    )


def regen_benchmark():
    """Default-benchmark regression record: seed-0 baselines plus the
    ten-seed efficacy margins of the frozen recipe. The slowest part of
    this script (about 10 s on a 2-vCPU machine): every seed runs the
    full adaptation stream."""
    from ssam.adaptation import AdaptConfig, evaluate, run_stream
    from ssam.association import association_map
    from ssam.bench import DEFAULT_FAMILY, class_average_heatmap, default_encoder, generate_dataset
    from ssam.bench.synthetic import SyntheticShiftSpec
    import ssam.numerics as num

    def diag_mean(feats, labels, emb):
        assoc = num.value_of(association_map(feats, emb))
        return float(np.diag(class_average_heatmap(assoc, labels, len(emb))).mean())

    seeds = list(range(10))
    margins, pre, post, diag_pre, diag_post = [], [], [], [], []
    for s in seeds:
        bench = generate_dataset(SyntheticShiftSpec(seed=s))
        ds = bench.dataset
        enc = default_encoder(DEFAULT_FAMILY, ds.image_shape)
        emb = bench.embeddings[DEFAULT_FAMILY]
        rep = run_stream(enc, ds, emb, AdaptConfig(seed=s))
        images = np.asarray(ds.images, dtype=np.float64)
        labels = np.asarray(ds.labels, dtype=np.int64)
        feats0 = num.value_of(enc.encode_batch(images, enc.new_adapter()))
        feats1 = num.value_of(enc.encode_batch(images, rep.adapter))
        diag_pre.append(diag_mean(feats0, labels, emb))
        diag_post.append(diag_mean(feats1, labels, emb))
        pre.append(rep.pre_accuracy)
        post.append(rep.post_accuracy)
        margins.append(rep.post_accuracy - rep.pre_accuracy)

    seed0 = generate_dataset(SyntheticShiftSpec(seed=0))
    ds0 = seed0.dataset
    baselines = {}
    for family in ("vit", "conv"):
        enc = default_encoder(family, ds0.image_shape)
        _, acc = evaluate(
            enc,
            np.asarray(ds0.images, dtype=np.float64),
            np.asarray(ds0.labels, dtype=np.int64),
            enc.new_adapter(),
            seed0.embeddings[family],
        )
        baselines[family] = {
            "unshifted_probe_accuracy": seed0.probe_accuracy[family],
            "shifted_frozen_accuracy": acc,
        }

    _dump(
        "benchmark_golden.json",
        {
            "seeds": seeds,
            "pre_accuracy": pre,
            "post_accuracy": post,
            "margins": margins,
            "mean_margin": float(np.mean(margins)),
            "heatmap_diag_pre": diag_pre,
            "heatmap_diag_post": diag_post,
            "seed0_baselines": baselines,
        },
    )


if __name__ == "__main__":
    regen_encoders()
    regen_categories()
    regen_adaptation()
    regen_benchmark()
