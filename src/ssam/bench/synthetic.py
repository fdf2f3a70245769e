"""Synthetic distribution-shift benchmark: generation and its two file
formats, the ``.ssamds`` dataset and the ``.emb`` category matrix.

Each class is a random template image; samples are the template plus
Gaussian noise, and a pixel-space shift (constant bias, extra pixel
noise, or a rotation mixing channels 0 and 1) is applied to every sample.
Category embeddings are derived per encoder family as the normalized
class means of the frozen features of the *unshifted* samples, so the
frozen encoder starts well above chance before the shift; generation
fails loudly if that probe check does not hold.

Shifts act in pixel space on purpose: the adapters also act before or
inside the encoder, so a feature-space shift would make adaptation
trivial.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .. import numerics as num
from ..adaptation import nearest_category
from ..encoders import ToyConvEncoder, ToyViTEncoder, category_matrix
from ..errors import ConfigError, FormatError, GenerationQualityError

DS_MAGIC = b"SSAMDS01"
DS_VERSION = 1
EMB_MAGIC = b"SSAMEMB1"
# float32 rounding of a unit row moves its norm by ~1e-7 * sqrt(D)
EMB_UNIT_NORM_TOL = 1e-5
SHIFT_KINDS = ("additive-bias", "pixel-noise", "channel-rotation")
FAMILIES = ("vit", "conv")

# The default recipe was tuned once and then frozen: at the pinned
# lr=1e-4 the conv family recovers several points on a 0.25 bias shift,
# while the attention family needs far more steps to move its
# patch-embedding offsets, so conv is the benchmark default.
DEFAULT_FAMILY = "conv"

# header layout: magic at byte 0, then u32 version/count/C/H/W/M
_HEADER = struct.Struct("<8sIIIIII")
HEADER_SIZE = _HEADER.size  # 32
# .emb header: magic at byte 0, then u32 M/D; the rows follow at byte 16
_EMB_HEADER = struct.Struct("<8sII")


def _json_like(value, default) -> bool:
    """Whether a JSON value has the type of a spec field's default: a
    float field takes any number, a tuple field a list, bool is no number."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_json_like(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def read_json_object(path, what: str, defaults: dict) -> dict:
    """The JSON object in the UTF-8 file ``path``: its keys must be among
    those of ``defaults`` and each value typed like its default (see
    :func:`_json_like`). Every rejection is a ConfigError that names the
    file; bad UTF-8 and bad JSON also name the byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        raw = json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {what} is not UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        at = len(exc.doc[: exc.pos].encode("utf-8"))
        raise ConfigError(
            f"{path}: {exc.msg} at byte {at} (line {exc.lineno} column {exc.colno})"
        ) from None
    except (RecursionError, ValueError) as exc:  # nesting or an integer past Python's limits
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)} in {path}")
    for key, value in raw.items():
        if not _json_like(value, defaults[key]):
            raise ConfigError(
                f"{path}: {what} {key} must be typed like {defaults[key]!r}, got {value!r}"
            )
    return raw


@dataclass
class SyntheticShiftSpec:
    num_classes: int = 4
    images_per_class: int = 40
    image_shape: tuple = (3, 8, 8)
    shift_kind: str = "additive-bias"
    shift_magnitude: float = 0.25
    sample_noise: float = 0.35
    seed: int = 0

    def __post_init__(self):
        self.image_shape = tuple(int(x) for x in self.image_shape)
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.images_per_class < 1:
            raise ConfigError(
                f"need at least 1 image per class, got {self.images_per_class}"
            )
        if len(self.image_shape) != 3 or min(self.image_shape) < 1:
            raise ConfigError(f"bad image shape {self.image_shape}")
        if self.shift_kind not in SHIFT_KINDS:
            raise ConfigError(
                f"shift kind must be one of {SHIFT_KINDS}, got {self.shift_kind!r}"
            )
        if self.shift_kind == "channel-rotation" and self.image_shape[0] < 2:
            raise ConfigError("channel-rotation needs at least 2 channels")
        # JSON specs may hold NaN or Infinity; the chained tests reject both
        if not 0 <= self.shift_magnitude < math.inf:
            raise ConfigError(
                f"shift magnitude must be finite and >= 0, got {self.shift_magnitude}"
            )
        if not 0 <= self.sample_noise < math.inf:
            raise ConfigError(
                f"sample noise must be finite and >= 0, got {self.sample_noise}"
            )

    @classmethod
    def from_json(cls, path) -> "SyntheticShiftSpec":
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        raw = read_json_object(path, "spec", defaults)
        try:
            return cls(**raw)
        except ConfigError as exc:  # a field value out of range
            raise ConfigError(f"{path}: {exc}") from None


@dataclass
class Dataset:
    """Shifted test images plus hidden-at-adaptation-time labels."""

    images: np.ndarray  # (n, C, H, W) float32
    labels: np.ndarray  # (n,) uint32
    num_classes: int

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow is reported below
            self.images = np.ascontiguousarray(self.images, dtype="<f4")
        self.labels = np.ascontiguousarray(self.labels, dtype="<u4")
        if self.images.ndim != 4:
            raise ConfigError(f"images must be (n, C, H, W), got {self.images.shape}")
        bad = ~np.isfinite(self.images).all(axis=(1, 2, 3))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ConfigError(f"image {i} has a pixel that is not finite as float32")
        if self.labels.shape != (self.images.shape[0],):
            raise ConfigError(
                f"{self.images.shape[0]} images but {self.labels.shape} labels"
            )
        if self.labels.size and int(self.labels.max()) >= self.num_classes:
            raise ConfigError(
                f"label {int(self.labels.max())} out of range for {self.num_classes} classes"
            )

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple:
        return tuple(self.images.shape[1:])


@dataclass
class GeneratedBenchmark:
    dataset: Dataset
    embeddings: dict  # family -> (M, D) category matrix
    probe_accuracy: dict  # family -> unshifted frozen accuracy


def default_encoder(family: str, image_shape, insertion_layer: int = 0):
    """The fixed per-family encoder every benchmark run uses (seeded
    construction; the adapter is the only thing that ever changes)."""
    if family == "vit":
        return ToyViTEncoder(
            image_shape=image_shape, dim=16, insertion_layer=insertion_layer, seed=0
        )
    if family == "conv":
        # the conv adapter always enters after the first conv
        if insertion_layer != 0:
            raise ConfigError(
                f"the conv family has no insertion layer, got {insertion_layer} (use 0)"
            )
        return ToyConvEncoder(image_shape=image_shape, dim=16, seed=0)
    raise ConfigError(f"encoder family must be one of {FAMILIES}, got {family!r}")


def _apply_shift(images: np.ndarray, spec: SyntheticShiftSpec, rng) -> np.ndarray:
    if spec.shift_kind == "additive-bias":
        return images + spec.shift_magnitude
    if spec.shift_kind == "pixel-noise":
        return images + rng.normal(0.0, spec.shift_magnitude, images.shape)
    # channel-rotation: mix channels 0 and 1 by the given angle
    out = images.copy()
    ca, sa = np.cos(spec.shift_magnitude), np.sin(spec.shift_magnitude)
    out[:, 0] = ca * images[:, 0] - sa * images[:, 1]
    out[:, 1] = sa * images[:, 0] + ca * images[:, 1]
    return out


def generate_dataset(spec: SyntheticShiftSpec) -> GeneratedBenchmark:
    """Build the shifted dataset and its per-family category embeddings.

    The quality gate compares the frozen zero-adapter accuracy on the
    unshifted samples against chance + 0.05 for both encoder families.
    """
    rng = np.random.default_rng(spec.seed)
    m = spec.num_classes
    templates = rng.normal(0.0, 1.0, (m,) + spec.image_shape)
    n = m * spec.images_per_class
    labels = np.repeat(np.arange(m, dtype=np.int64), spec.images_per_class)
    clean = templates[labels] + rng.normal(0.0, spec.sample_noise, (n,) + spec.image_shape)
    # the float32 image file must load again, so it is checked before the probe
    dataset = Dataset(_apply_shift(clean, spec, rng), labels, num_classes=m)

    embeddings: dict = {}
    probe: dict = {}
    for family in FAMILIES:
        enc = default_encoder(family, spec.image_shape)
        feats = num.value_of(enc.encode_batch(clean, enc.new_adapter()))
        means = np.stack([feats[labels == j].mean(axis=0) for j in range(m)])
        emb = category_matrix(means)
        acc = float((nearest_category(feats, emb) == labels).mean())
        if acc <= 1.0 / m + 0.05:
            raise GenerationQualityError(
                f"unshifted probe accuracy {acc:.3f} for {family} encoder is not "
                f"above chance + 0.05 ({1.0 / m + 0.05:.3f}); spec too noisy"
            )
        embeddings[family] = emb
        probe[family] = acc

    return GeneratedBenchmark(dataset=dataset, embeddings=embeddings, probe_accuracy=probe)


# ---------------------------------------------------------------------------
# files: the .ssamds dataset and the .emb category matrix


def save_dataset(ds: Dataset, path) -> None:
    c, h, w = ds.image_shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DS_MAGIC, DS_VERSION, ds.count, c, h, w, ds.num_classes))
        fh.write(ds.images.tobytes())
        fh.write(ds.labels.tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < HEADER_SIZE:
        raise FormatError(
            f"{path}: header truncated at byte {len(blob)} (need {HEADER_SIZE})"
        )
    magic, version, count, c, h, w, m = _HEADER.unpack_from(blob, 0)
    if magic != DS_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0, got {magic!r}")
    if version != DS_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 8")
    sizes = (("count", count, 12), ("channel count", c, 16), ("height", h, 20), ("width", w, 24))
    for name, value, offset in sizes:
        if value == 0:
            raise FormatError(f"{path}: image {name} 0 at byte {offset}")
    if m < 2:
        raise FormatError(f"{path}: class count {m} < 2 at byte 28")
    img_bytes = 4 * count * c * h * w
    label_offset = HEADER_SIZE + img_bytes
    expected = label_offset + 4 * count
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes, got {len(blob)} "
            f"(images at byte {HEADER_SIZE}, labels at byte {label_offset})"
        )
    images = np.frombuffer(blob, dtype="<f4", count=count * c * h * w, offset=HEADER_SIZE)
    images = images.reshape(count, c, h, w)
    if not np.all(np.isfinite(images)):
        flat = int(np.flatnonzero(~np.isfinite(images.ravel()))[0])
        raise FormatError(f"{path}: non-finite pixel at byte {HEADER_SIZE + 4 * flat}")
    labels = np.frombuffer(blob, dtype="<u4", count=count, offset=label_offset)
    bad = np.flatnonzero(labels >= m)
    if bad.size:
        i = int(bad[0])
        raise FormatError(
            f"{path}: label {int(labels[i])} >= {m} at byte {label_offset + 4 * i}"
        )
    return Dataset(images, labels, num_classes=int(m))


def save_embeddings(t: np.ndarray, path) -> None:
    """Write a category matrix as ``.emb``: magic, u32 M and D, then the
    rows as little-endian float32."""
    m, d = t.shape
    with open(path, "wb") as fh:
        fh.write(_EMB_HEADER.pack(EMB_MAGIC, m, d))
        fh.write(np.asarray(t, dtype="<f4").tobytes())


def load_embeddings(path) -> np.ndarray:
    """Read an ``.emb`` file back as a category matrix; every malformed
    file fails with a FormatError naming a byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    start = _EMB_HEADER.size
    if len(blob) < start:
        raise FormatError(f"{path}: header truncated at byte {len(blob)} (need {start} bytes)")
    magic, m, d = _EMB_HEADER.unpack_from(blob, 0)
    if magic != EMB_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0, got {magic!r}")
    if m < 2:
        raise FormatError(f"{path}: category count {m} < 2 at byte 8")
    if d < 1:
        raise FormatError(f"{path}: feature dim {d} < 1 at byte 12")
    expected = start + 4 * m * d
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload size mismatch, expected {expected} bytes, "
            f"got {len(blob)} (payload starts at byte {start})"
        )
    mat = np.frombuffer(blob, dtype="<f4", offset=start).reshape(m, d).astype(np.float64)
    if not np.all(np.isfinite(mat)):
        flat = int(np.flatnonzero(~np.isfinite(mat))[0])
        raise FormatError(f"{path}: non-finite value at byte {start + 4 * flat}")
    norms = np.linalg.norm(mat, axis=1)
    if norms.min() <= num.ZERO_NORM_EPS:
        row = int(np.argmin(norms))
        raise FormatError(
            f"{path}: category row {row} has near-zero norm at byte {start + 4 * row * d}"
        )
    # the writer stores unit rows, so a row off unit norm is corruption:
    # a damaged header whose m x d happens to fit a truncated payload
    off = np.abs(norms - 1.0)
    if off.max() > EMB_UNIT_NORM_TOL:
        row = int(np.argmax(off))
        raise FormatError(
            f"{path}: category row {row} has norm {norms[row]:.9g}, not 1, "
            f"at byte {start + 4 * row * d}"
        )
    return category_matrix(mat)


def companion_embedding_path(dataset_path, family: str) -> str:
    return f"{dataset_path}.{family}.emb"


def save_benchmark(bench: GeneratedBenchmark, path) -> None:
    """Dataset file plus one category-embedding file per encoder family."""
    save_dataset(bench.dataset, path)
    for family, emb in bench.embeddings.items():
        save_embeddings(emb, companion_embedding_path(path, family))


def load_companion_embeddings(dataset_path, family: str) -> np.ndarray:
    p = companion_embedding_path(dataset_path, family)
    try:
        return load_embeddings(p)
    except FileNotFoundError:
        raise ConfigError(
            f"no category embeddings at {p}; generate the dataset with gen-data "
            f"so the companion .emb files exist"
        ) from None
