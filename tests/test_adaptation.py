"""Tests for inference, the optimizers, and the adaptation loop."""

import dataclasses
import hashlib

import numpy as np
import pytest

import ssam.numerics as num
from conftest import load_golden
from ssam.adaptation import (
    AdamOptimizer,
    AdaptConfig,
    SgdOptimizer,
    adapt_batch,
    classify_batch,
    evaluate,
    nearest_category,
    run_stream,
)
from ssam.association import association_map
from ssam.encoders import ToyConvEncoder, ToyViTEncoder, embed_categories
from ssam.errors import ConfigError, DegenerateInputError, NumericError
from ssam.objectives import loss_entropy


class _DS:
    def __init__(self, images, labels):
        self.images = images
        self.labels = labels


def _small_vit():
    return ToyViTEncoder(image_shape=(3, 4, 4), dim=8, seed=2)


class TestClassify:
    def test_exact_match(self):
        emb = embed_categories(4, 8, seed=0)
        assert nearest_category(emb[2:3], emb)[0] == 2

    def test_antipodal_prefers_orthogonal(self):
        emb = embed_categories(2, 4, seed=0)
        assert nearest_category(-emb[:1], emb)[0] == 1

    def test_scale_invariance(self):
        emb = embed_categories(3, 8, seed=1)
        v = np.random.default_rng(0).normal(size=(5, 8))
        assert np.array_equal(nearest_category(10.0 * v, emb), nearest_category(v, emb))

    def test_tie_breaks_low(self):
        t = np.eye(2)
        assert nearest_category(np.array([[1.0, 1.0]]), t)[0] == 0

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            nearest_category(np.zeros((1, 4)), np.eye(4))

    def test_batch_agrees_with_single(self):
        enc = _small_vit()
        emb = embed_categories(3, 8, seed=1)
        imgs = np.random.default_rng(1).normal(size=(6,) + enc.image_shape)
        adapter = enc.new_adapter()
        batch = classify_batch(enc, imgs, adapter, emb)
        single = [
            nearest_category(num.value_of(enc.encode_batch(img[None], adapter)), emb)[0]
            for img in imgs
        ]
        assert np.array_equal(batch, single)


class TestAdaptConfig:
    def test_defaults(self):
        cfg = AdaptConfig()
        assert cfg.alpha == 1.0 and cfg.beta == 1.0
        assert cfg.learning_rate == 1e-4
        assert cfg.batch_size == 64 and cfg.steps_per_batch == 50
        assert cfg.seed == 0
        assert AdaptConfig(seed=5).seed == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -1.0},
            {"beta": -0.5},
            {"learning_rate": -1e-4},
            {"batch_size": 0},
            {"steps_per_batch": -1},
            {"batch_size": -3},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"beta": float("nan")},
            {"beta": float("inf")},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"alpha": float("-inf")},
            {"beta": float("-inf")},
            {"learning_rate": float("-inf")},
            {"steps_per_batch": -50},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            AdaptConfig(**kwargs)


class TestOptimizers:
    def test_sgd_step(self):
        opt = SgdOptimizer(0.5)
        out = opt.step(np.array([1.0, -2.0]), np.array([2.0, 2.0]))
        assert np.array_equal(out, [0.0, -3.0])

    def test_adam_first_step_hand_value(self):
        opt = AdamOptimizer(0.1)
        out = opt.step(np.array([1.0]), np.array([2.0]))
        # bias correction makes the first update lr * g / (|g| + eps)
        assert out[0] == pytest.approx(1.0 - 0.1 * 2.0 / (2.0 + 1e-8), abs=1e-12)

    def test_adam_state_snapshot_roundtrip(self):
        opt = AdamOptimizer(0.1)
        opt.step(np.zeros(3), np.ones(3))
        snap = opt.snapshot()
        opt.step(np.zeros(3), np.ones(3))
        opt.restore(snap)
        assert opt.t == 1
        assert np.array_equal(opt.m, np.full(3, (1.0 - 0.9) * 1.0))


def _batch_setup(seed=7, n=8):
    enc = _small_vit()
    emb = embed_categories(3, 8, seed=1)
    imgs = np.random.default_rng(seed).normal(size=(n,) + enc.image_shape)
    return enc, emb, imgs


class TestAdaptBatch:
    def test_zero_learning_rate_is_noop(self):
        enc, emb, imgs = _batch_setup()
        cfg = AdaptConfig(learning_rate=0.0, steps_per_batch=3)
        adapter = enc.new_adapter()
        out, history = adapt_batch(enc, imgs, adapter, emb, cfg, AdamOptimizer(cfg.learning_rate))
        assert np.array_equal(out, adapter)
        assert len(history) == 3
        assert all(bd.total > 0 for bd in history)

    def test_zero_weights_match_entropy_only_loop(self):
        enc, emb, imgs = _batch_setup()
        cfg = AdaptConfig(alpha=0.0, beta=0.0, learning_rate=1e-2, steps_per_batch=4)
        out, _ = adapt_batch(enc, imgs, enc.new_adapter(), emb, cfg, AdamOptimizer(cfg.learning_rate))

        # hand-rolled loop on the entropy term alone, same optimizer
        def ent_objective(tokens):
            v = enc.encode_batch(imgs, tokens)
            return loss_entropy(association_map(v, emb))

        opt = AdamOptimizer(cfg.learning_rate)
        tokens = enc.new_adapter()
        for _ in range(4):
            _, grad = num.value_and_gradient(ent_objective, tokens)
            tokens = opt.step(tokens, grad)
        assert np.array_equal(out, tokens)

    def test_descent_regression(self):
        g = load_golden("adaptation_golden.json")
        enc = ToyViTEncoder(seed=0)
        emb = embed_categories(4, 16, seed=0)
        imgs = np.random.default_rng(123).normal(size=(16,) + enc.image_shape)
        cfg = AdaptConfig(learning_rate=1e-3, steps_per_batch=10)
        _, history = adapt_batch(enc, imgs, enc.new_adapter(), emb, cfg, AdamOptimizer(cfg.learning_rate))
        assert history[-1].total < history[0].total  # descent
        assert history[0].total == pytest.approx(g["descent_first_total"], abs=1e-9)
        assert history[-1].total == pytest.approx(g["descent_last_total"], abs=1e-9)

    def test_empty_batch_rejected(self):
        enc, emb, _ = _batch_setup()
        empty, cfg = np.zeros((0,) + enc.image_shape), AdaptConfig()
        with pytest.raises(ConfigError):
            adapt_batch(enc, empty, enc.new_adapter(), emb, cfg, AdamOptimizer(cfg.learning_rate))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_adam_overflow_in_the_update_is_a_numeric_error(self):
        # the first step moves every token by about the rate, to ~1.7e308;
        # the tanh after the adapter saturates, so the second forward stays
        # finite and the second update overflows the float range
        enc = ToyConvEncoder(image_shape=(3, 4, 4), dim=8, seed=2)
        emb = embed_categories(3, 8, seed=1)
        imgs = np.random.default_rng(7).normal(size=(8,) + enc.image_shape)
        cfg = AdaptConfig(learning_rate=1.7e308, steps_per_batch=2)
        adapter = enc.new_adapter()
        opt = AdamOptimizer(cfg.learning_rate)
        with pytest.raises(NumericError, match="optimizer produced non-finite"):
            adapt_batch(enc, imgs, adapter, emb, cfg, opt)
        assert not adapter.any()  # caller state untouched
        assert opt.snapshot() == (0, None, None)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [1e160, 1e300])
    @pytest.mark.parametrize("family", [ToyConvEncoder, ToyViTEncoder])
    def test_adam_second_moment_overflow_is_a_numeric_error(self, family, alpha):
        # gradients of ~alpha square past the float range: the moment
        # would be inf and every later update of those tokens 0
        enc = family(image_shape=(3, 4, 4), dim=8, seed=2)
        emb = embed_categories(3, 8, seed=1)
        imgs = np.random.default_rng(7).normal(size=(8,) + enc.image_shape)
        opt = AdamOptimizer(1e-2)
        adapter, _ = adapt_batch(enc, imgs, enc.new_adapter(), emb, AdaptConfig(steps_per_batch=1), opt)
        before = opt.snapshot()
        kept = adapter.copy()
        with pytest.raises(NumericError, match="optimizer produced a non-finite second moment"):
            adapt_batch(enc, imgs, adapter, emb, AdaptConfig(alpha=alpha, steps_per_batch=2), opt)
        assert np.array_equal(adapter, kept)  # caller state untouched
        t, m, v = opt.snapshot()
        assert t == before[0] == 1
        assert np.array_equal(m, before[1]) and np.array_equal(v, before[2])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_adam_rollback_restores_moments(self):
        enc, emb, imgs = _batch_setup()
        cfg = AdaptConfig(learning_rate=1e-2, steps_per_batch=1)
        opt = AdamOptimizer(cfg.learning_rate)
        adapter, _ = adapt_batch(enc, imgs, enc.new_adapter(), emb, cfg, opt)
        t_before, m_before, _ = opt.snapshot()
        # a huge rate sends the tokens to ~1e300; the next forward overflows
        bad = AdaptConfig(learning_rate=1e300, steps_per_batch=2)
        opt.learning_rate = 1e300
        with pytest.raises(NumericError):
            adapt_batch(enc, imgs, adapter, emb, bad, opt)
        assert opt.t == t_before
        assert np.array_equal(opt.m, m_before)


class TestFrozenPrefix:
    def test_prefix_computed_once_per_batch(self, monkeypatch):
        enc, emb, imgs = _batch_setup()
        calls = {"prefix": 0, "suffix": 0}
        for name in calls:
            original = getattr(enc, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(enc, name, counted)
        cfg = AdaptConfig(learning_rate=1e-2, steps_per_batch=5)
        _, history = adapt_batch(enc, imgs, enc.new_adapter(), emb, cfg, AdamOptimizer(cfg.learning_rate))
        assert len(history) == 5
        assert calls == {"prefix": 1, "suffix": 5}

    def test_nonfinite_image_raises_and_keeps_optimizer_state(self):
        enc, emb, imgs = _batch_setup()
        cfg = AdaptConfig(learning_rate=1e-2, steps_per_batch=2)
        opt = AdamOptimizer(cfg.learning_rate)
        adapter, _ = adapt_batch(enc, imgs, enc.new_adapter(), emb, cfg, opt)
        t_before, m_before, v_before = opt.snapshot()
        bad = imgs.copy()
        bad[3, 1, 0, 2] = np.nan
        with pytest.raises(NumericError):
            adapt_batch(enc, bad, adapter, emb, cfg, opt)
        assert opt.t == t_before
        assert np.array_equal(opt.m, m_before) and np.array_equal(opt.v, v_before)


class TestRunStream:
    def _dataset(self, enc, n=24, m=3, seed=5):
        rng = np.random.default_rng(seed)
        imgs = rng.normal(size=(n,) + enc.image_shape)
        labels = rng.integers(0, m, size=n)
        return _DS(imgs, labels)

    def test_zero_steps_keeps_accuracy(self):
        enc, emb, _ = _batch_setup()
        ds = self._dataset(enc)
        rep = run_stream(enc, ds, emb, AdaptConfig(steps_per_batch=0, batch_size=8))
        assert rep.post_accuracy == rep.pre_accuracy
        assert rep.online_accuracy == rep.pre_accuracy
        assert rep.history == []
        assert not rep.adapter.any()

    def test_deterministic(self):
        enc, emb, _ = _batch_setup()
        ds = self._dataset(enc)
        cfg = AdaptConfig(batch_size=8, learning_rate=1e-2, steps_per_batch=2, seed=3)
        a = run_stream(enc, ds, emb, cfg)
        b = run_stream(enc, ds, emb, cfg)
        assert [x.total for x in a.history] == [x.total for x in b.history]
        assert a.post_accuracy == b.post_accuracy
        assert a.adapter.tobytes() == b.adapter.tobytes()

    def test_history_length_invariant(self):
        enc, emb, _ = _batch_setup()
        ds = self._dataset(enc, n=20)
        cfg = AdaptConfig(batch_size=8, steps_per_batch=3)
        rep = run_stream(enc, ds, emb, cfg)
        assert len(rep.history) == 3 * cfg.steps_per_batch  # batches of 8 + 8 + 4
        # curve entries hold floats only, so they cannot pin a step's graph
        for b in rep.history:
            assert all(type(getattr(b, f.name)) is float for f in dataclasses.fields(b))

    def test_frozen_state_untouched(self):
        for enc in (_small_vit(), ToyConvEncoder(image_shape=(3, 4, 4), dim=8, seed=2)):
            emb = embed_categories(3, 8, seed=1)
            ds = self._dataset(enc)
            enc_sum = enc.weights_checksum()
            t_sum = hashlib.sha256(emb.tobytes()).hexdigest()
            run_stream(enc, ds, emb, AdaptConfig(batch_size=8, learning_rate=1e-2, steps_per_batch=1))
            assert enc.weights_checksum() == enc_sum
            assert hashlib.sha256(emb.tobytes()).hexdigest() == t_sum

    def test_zero_adapter_matches_per_image_inference(self):
        enc, emb, _ = _batch_setup()
        ds = self._dataset(enc)
        zero = enc.new_adapter()
        batch_preds = classify_batch(enc, ds.images, zero, emb)
        per_image = [
            nearest_category(num.value_of(enc.encode_batch(img[None], zero)), emb)[0]
            for img in ds.images
        ]
        assert np.array_equal(batch_preds, per_image)  # label for label

    def test_report_keeps_the_full_pass_features(self):
        for enc in (_small_vit(), ToyConvEncoder(image_shape=(3, 4, 4), dim=8, seed=2)):
            emb = embed_categories(3, 8, seed=1)
            ds = self._dataset(enc)
            cfg = AdaptConfig(batch_size=8, learning_rate=1e-2, steps_per_batch=2)
            rep = run_stream(enc, ds, emb, cfg)
            pre = num.value_of(enc.encode_batch(ds.images, enc.new_adapter()))
            post = num.value_of(enc.encode_batch(ds.images, rep.adapter))
            assert np.array_equal(rep.features_pre, pre)
            assert np.array_equal(rep.features_post, post)
            assert rep.pre_accuracy == evaluate(enc, ds.images, ds.labels, enc.new_adapter(), emb)[1]
            assert rep.post_accuracy == evaluate(enc, ds.images, ds.labels, rep.adapter, emb)[1]

    def test_empty_dataset_rejected(self):
        enc, emb, _ = _batch_setup()
        ds = _DS(np.zeros((0,) + enc.image_shape), np.zeros(0, dtype=int))
        with pytest.raises(ConfigError):
            run_stream(enc, ds, emb, AdaptConfig())


class TestEvaluate:
    def test_all_correct(self):
        enc, emb, imgs = _batch_setup(n=6)
        labels = classify_batch(enc, imgs, enc.new_adapter(), emb)
        feats, acc = evaluate(enc, imgs, labels, enc.new_adapter(), emb)
        assert acc == 1.0
        assert np.array_equal(feats, num.value_of(enc.encode_batch(imgs, enc.new_adapter())))

    def test_adversarial_permutation(self):
        enc, emb, imgs = _batch_setup(n=6)
        preds = classify_batch(enc, imgs, enc.new_adapter(), emb)
        wrong = (preds + 1) % len(emb)
        assert evaluate(enc, imgs, wrong, enc.new_adapter(), emb)[1] == 0.0

    def test_empty_is_config_error(self):
        enc, emb, _ = _batch_setup()
        with pytest.raises(ConfigError, match="nonempty"):
            evaluate(enc, np.zeros((0,) + enc.image_shape), [], enc.new_adapter(), emb)

    @pytest.mark.parametrize("labels", [[0], [0, 1, 2]])
    def test_label_count_mismatch_is_config_error(self, labels):
        # one label used to broadcast against all six predictions, and
        # three died in numpy's broadcast ValueError
        enc = ToyConvEncoder(image_shape=(3, 4, 4), dim=8, seed=2)
        emb = embed_categories(3, 8, seed=1)
        imgs = np.random.default_rng(7).normal(size=(6,) + enc.image_shape)
        with pytest.raises(ConfigError, match=f"{len(labels)} labels for 6 images"):
            evaluate(enc, imgs, labels, enc.new_adapter(), emb)
