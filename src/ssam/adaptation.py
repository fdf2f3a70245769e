"""Adapter-only test-time adaptation over an unlabeled stream.

Only the adapter tokens are ever updated; encoder weights and the
category matrix stay frozen (their checksums are the caller's witness).
Labels are consumed exclusively by the accuracy metrics, never by the
adaptation path. Batches are processed in a seeded shuffled order;
``continual`` mode carries one adapter (and optimizer state) across the
whole stream, ``episodic`` mode restarts both for every batch.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as num
from .encoders import AdapterParams, CategoryEmbeddings
from .errors import ConfigError, NumericError
from .objectives import LossBreakdown, total_objective

MODES = ("continual", "episodic")
OPTIMIZERS = ("adam", "sgd")


@dataclass
class AdaptConfig:
    alpha: float = 1.0
    beta: float = 1.0
    learning_rate: float = 1e-4
    batch_size: int = 64
    steps_per_batch: int = 1
    mode: str = "continual"
    optimizer: str = "adam"
    seed: int = 0
    temperature: float | None = None
    stop_grad_target: bool = False

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError(
                f"loss weights must be >= 0, got alpha={self.alpha} beta={self.beta}"
            )
        # a zero rate is allowed as a measure-only mode (no-op updates)
        if self.learning_rate < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.steps_per_batch < 0:
            raise ConfigError(
                f"steps per batch must be >= 0, got {self.steps_per_batch}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(
                f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}"
            )


@dataclass
class AdaptReport:
    history: list
    pre_accuracy: float
    post_accuracy: float
    online_accuracy: float
    adapter: AdapterParams
    adapter_checksum: str
    num_batches: int
    batch_seconds: list = field(default_factory=list)
    # (N, D) features of the whole stream under the zero adapter and the
    # final one: the passes behind pre_accuracy and post_accuracy
    features_pre: np.ndarray = None
    features_post: np.ndarray = None


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return params - self.learning_rate * grad

    def snapshot(self):
        return None

    def restore(self, snap) -> None:
        pass


class AdamOptimizer:
    """Standard Adam with bias correction."""

    def __init__(self, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)

    def snapshot(self):
        return (
            self.t,
            None if self.m is None else self.m.copy(),
            None if self.v is None else self.v.copy(),
        )

    def restore(self, snap) -> None:
        self.t, self.m, self.v = snap


def make_optimizer(cfg: AdaptConfig):
    if cfg.optimizer == "adam":
        return AdamOptimizer(cfg.learning_rate)
    return SgdOptimizer(cfg.learning_rate)


def classify(v_row, t) -> int:
    """Index of the category with the highest cosine similarity; ties go
    to the lowest index."""
    return int(_nearest_category(num.value_of(v_row).reshape(1, -1), t)[0])


def classify_batch(encoder, images, adapter, t) -> np.ndarray:
    """Per-image labels for a stack of images (vectorized inference; no
    cross-image coupling, each row is classified independently)."""
    return _nearest_category(num.value_of(encoder.encode_batch(images, adapter)), t)


def _nearest_category(feats: np.ndarray, t) -> np.ndarray:
    tm = t.matrix if isinstance(t, CategoryEmbeddings) else t
    sims = num.value_of(num.cosine_similarity_matrix(feats, tm))
    return sims.argmax(axis=1)


def evaluate(encoder, images, labels, adapter, t) -> float:
    """Fraction of images whose predicted index equals the label."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        return 0.0
    preds = classify_batch(encoder, images, adapter, t)
    return float((preds == labels).mean())


def adapt_batch(encoder, images, adapter, t, cfg: AdaptConfig, optimizer=None):
    """Run cfg.steps_per_batch optimizer steps of the combined objective
    on one batch. Returns (updated adapter, per-step loss breakdowns).

    On any non-finite value the optimizer state is restored and the error
    re-raised; the returned adapter is never partially updated (the
    caller's adapter object is untouched either way).
    """
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.shape[0] == 0:
        raise ConfigError("adapt_batch needs a nonempty batch")
    if optimizer is None:
        optimizer = make_optimizer(cfg)
    tm = t.matrix if isinstance(t, CategoryEmbeddings) else t

    # the frozen layers before the adapter see the same images every step
    prefix = encoder.prefix(imgs)
    tokens = adapter.tokens
    history: list[LossBreakdown] = []
    snap = optimizer.snapshot()

    def objective(tok):
        v = encoder.suffix(prefix, tok)
        bd = total_objective(
            v,
            tm,
            alpha=cfg.alpha,
            beta=cfg.beta,
            temperature=cfg.temperature,
            stop_grad_target=cfg.stop_grad_target,
        )
        # history keeps the float curve only; a retained graph node would
        # pin every intermediate array of this forward pass
        history.append(replace(bd, total_node=None))
        return bd.total_node

    try:
        for _ in range(cfg.steps_per_batch):
            res = num.value_and_gradient(objective, tokens)
            tokens = optimizer.step(tokens, res.gradient)
            if not np.all(np.isfinite(tokens)):
                raise NumericError("optimizer produced non-finite adapter tokens")
    except NumericError:
        optimizer.restore(snap)
        raise
    return AdapterParams(tokens), history


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def run_stream(encoder, dataset, t, cfg: AdaptConfig) -> AdaptReport:
    """Adapt over the whole stream and report accuracies.

    ``dataset`` provides ``images`` (N, C, H, W) and ``labels`` (N,);
    labels feed only the metrics. Online accuracy is predict-then-adapt
    per batch; pre/post accuracies are full passes with the zero adapter
    and the final adapter, and the report keeps the features of both.
    """
    images = np.asarray(dataset.images, dtype=np.float64)
    labels = np.asarray(dataset.labels)
    n = images.shape[0]
    if n == 0:
        raise ConfigError("empty dataset")

    def full_pass(adapter):
        feats = num.value_of(encoder.encode_batch(images, adapter))
        return feats, float((_nearest_category(feats, t) == labels).mean())

    features_pre, pre_accuracy = full_pass(encoder.new_adapter())

    adapter = encoder.new_adapter()
    optimizer = make_optimizer(cfg)
    history: list[LossBreakdown] = []
    batch_seconds: list[float] = []
    online_hits = 0
    num_batches = 0
    rng = np.random.default_rng(cfg.seed)
    for idx in _batches(n, cfg.batch_size, rng):
        num_batches += 1
        if cfg.mode == "episodic":
            adapter = encoder.new_adapter()
            optimizer = make_optimizer(cfg)
        t0 = time.perf_counter()
        preds = classify_batch(encoder, images[idx], adapter, t)
        online_hits += int((preds == labels[idx]).sum())
        adapter, bds = adapt_batch(encoder, images[idx], adapter, t, cfg, optimizer)
        history.extend(bds)
        batch_seconds.append(time.perf_counter() - t0)

    features_post, post_accuracy = full_pass(adapter)
    checksum = hashlib.sha256(adapter.tokens.tobytes()).hexdigest()
    return AdaptReport(
        history=history,
        pre_accuracy=pre_accuracy,
        post_accuracy=post_accuracy,
        online_accuracy=online_hits / n,
        adapter=adapter,
        adapter_checksum=checksum,
        num_batches=num_batches,
        batch_seconds=batch_seconds,
        features_pre=features_pre,
        features_post=features_post,
    )
