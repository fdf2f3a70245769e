"""Adapter-only test-time adaptation over an unlabeled stream.

Only the adapter tokens are ever updated; encoder weights and the
category matrix stay frozen (their checksums are the caller's witness).
Labels are consumed exclusively by the accuracy metrics, never by the
adaptation path. Batches are processed in a seeded shuffled order, and
one adapter (with its Adam state) is carried across the whole stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as num
from .errors import ConfigError, NumericError
from .objectives import LossBreakdown, check_loss_weights, total_objective


@dataclass
class AdaptConfig:
    """Adaptation settings. The defaults are the recipe the benchmark is
    quoted at; the command line takes its defaults from here, and a run's
    summary report lists the fields in this order."""

    alpha: float = 1.0
    beta: float = 1.0
    learning_rate: float = 1e-4
    batch_size: int = 64
    steps_per_batch: int = 50
    seed: int = 0

    def __post_init__(self):
        check_loss_weights(self.alpha, self.beta)
        # a zero rate is allowed as a measure-only mode (no-op updates)
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(
                f"learning rate must be finite and >= 0, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.steps_per_batch < 0:
            raise ConfigError(f"steps per batch must be >= 0, got {self.steps_per_batch}")
        if self.seed < 0:  # numpy's generators take seeds >= 0
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdaptReport:
    """One stream's results. ``features_pre`` and ``features_post`` are the
    (N, D) stream features behind ``pre_accuracy`` and ``post_accuracy``."""

    history: list
    pre_accuracy: float
    post_accuracy: float
    online_accuracy: float
    adapter: np.ndarray  # the final (N, D) adapter tokens
    features_pre: np.ndarray
    features_post: np.ndarray


class SgdOptimizer:
    """Plain gradient descent, ``step`` only. Nothing in the package uses
    it; it stays because the perfbench tracer binds its ``step`` by name."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return params - self.learning_rate * grad


class AdamOptimizer:
    """Standard Adam with bias correction."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        # a finite gradient above ~1.3e154 squares to inf, and an infinite
        # second moment would silently zero those tokens' updates for good;
        # a huge rate can push the new tokens past the float range. The
        # checks below name both faults, so numpy's warnings are not needed
        with np.errstate(over="ignore"):
            self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
            self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad * grad
            if not np.all(np.isfinite(self.v)):
                raise NumericError("optimizer produced a non-finite second moment")
            m_hat = self.m / (1.0 - self.BETA1**self.t)
            v_hat = self.v / (1.0 - self.BETA2**self.t)
            out = params - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)
        if not np.all(np.isfinite(out)):
            raise NumericError("optimizer produced non-finite adapter tokens")
        return out

    def snapshot(self):
        # step binds new moment arrays and never writes into the old ones,
        # so the arrays themselves are a snapshot
        return (self.t, self.m, self.v)

    def restore(self, snap) -> None:
        self.t, self.m, self.v = snap


def classify_batch(encoder, images, adapter, t) -> np.ndarray:
    """Per-image labels for a stack of images (vectorized inference; no
    cross-image coupling, each row is classified independently)."""
    return nearest_category(num.value_of(encoder.encode_batch(images, adapter)), t)


def nearest_category(feats: np.ndarray, t) -> np.ndarray:
    """Per row of already computed features, the index of the category
    with the highest cosine similarity; ties go to the lowest index."""
    sims = num.value_of(num.cosine_similarity_matrix(feats, t))
    return sims.argmax(axis=1)


def evaluate(encoder, images, labels, adapter, t):
    """A full pass: the (B, D) features of ``images`` under ``adapter``
    and the fraction whose predicted index equals the label."""
    labels = np.asarray(labels)
    if len(labels) != len(images):
        raise ConfigError(f"evaluate got {len(labels)} labels for {len(images)} images")
    feats = num.value_of(encoder.encode_batch(images, adapter))
    return feats, float((nearest_category(feats, t) == labels).mean())


def adapt_batch(encoder, images, adapter, t, cfg: AdaptConfig, optimizer):
    """Run cfg.steps_per_batch steps of the caller's ``optimizer`` on the
    combined objective of one batch; returns (new tokens, per-step losses).

    Numpy's floating-point warnings are off: a non-finite value is
    reported once, by the check that names the primitive that made it,
    and the optimizer state is restored before the error is re-raised.
    The returned tokens are never partially updated (the caller's
    adapter array is untouched either way).
    """
    history: list[LossBreakdown] = []
    snap = optimizer.snapshot()
    with np.errstate(all="ignore"):
        # the frozen layers before the adapter see the same images every step
        prefix = encoder.prefix(images)

        def objective(tok):
            v = encoder.suffix(prefix, tok)
            total, bd = total_objective(v, t, alpha=cfg.alpha, beta=cfg.beta)
            history.append(bd)
            return total

        try:
            for _ in range(cfg.steps_per_batch):
                _, grad = num.value_and_gradient(objective, adapter)
                adapter = optimizer.step(adapter, grad)
        except NumericError:
            optimizer.restore(snap)
            raise
    return adapter, history


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def run_stream(encoder, dataset, t, cfg: AdaptConfig) -> AdaptReport:
    """Adapt over the whole stream and report accuracies.

    ``dataset`` provides ``images`` (N, C, H, W) and ``labels`` (N,);
    labels feed only the metrics. The stream owns one adapter and one
    Adam state. Online accuracy is predict-then-adapt per batch; pre/post
    accuracies are full passes with the zero adapter and the final
    adapter, and the report keeps the features of both.
    """
    images = np.asarray(dataset.images, dtype=np.float64)
    labels = np.asarray(dataset.labels)
    n = images.shape[0]
    # evaluate never writes to the adapter and adapt_batch rebinds it, so
    # the zero adapter of the pre pass is also where adaptation starts
    adapter = encoder.new_adapter()
    optimizer = AdamOptimizer(cfg.learning_rate)
    history: list[LossBreakdown] = []
    online_hits = 0
    rng = np.random.default_rng(cfg.seed)
    with np.errstate(all="ignore"):  # as in adapt_batch, for the passes
        features_pre, pre_accuracy = evaluate(encoder, images, labels, adapter, t)
        for idx in _batches(n, cfg.batch_size, rng):
            preds = classify_batch(encoder, images[idx], adapter, t)
            online_hits += int((preds == labels[idx]).sum())
            adapter, bds = adapt_batch(encoder, images[idx], adapter, t, cfg, optimizer)
            history.extend(bds)
        features_post, post_accuracy = evaluate(encoder, images, labels, adapter, t)
    return AdaptReport(
        history=history,
        pre_accuracy=pre_accuracy,
        post_accuracy=post_accuracy,
        online_accuracy=online_hits / n,
        adapter=adapter,
        features_pre=features_pre,
        features_post=features_post,
    )
