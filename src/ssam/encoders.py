"""Frozen toy image encoders, their additive adapters, and category embeddings.

Two miniature encoder families share one adapter interface. The patch
transformer splits the image into non-overlapping patches, maps each
through a frozen linear embedding, and runs a stack of attention blocks;
the adapter adds one learnable token per patch immediately before a
configurable block. The conv encoder runs a 3x3 conv stack; each adapter
token is tiled s x s and added to its spatial patch of the first feature
map, so an s x s neighbourhood shares one token.

Weights are drawn from a seeded generator at construction, marked
read-only, and never change afterwards; adaptation only ever touches the
adapter tokens. All forward code routes through the graph primitives in
:mod:`ssam.numerics`, so the same functions serve both the plain-array
evaluation path and the reverse-mode gradient path. Each encoder splits
at the adapter into a frozen ``prefix`` (plain arrays, once per batch)
and a ``suffix`` on the tape; ``encode_batch`` composes the two.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as num
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    NumericError,
)

EMB_MAGIC = b"SSAMEMB1"


# ---------------------------------------------------------------------------
# batched graph ops (images are constants; only adapter tokens carry grad)


def _center_last(x):
    """Subtract the per-token feature mean (layer-norm stand-in)."""
    xv = num.value_of(x)
    d = xv.shape[-1]
    # ndarray.mean's own sum-then-divide, without its wrapper
    out = xv - np.add.reduce(xv, axis=-1, keepdims=True) / d

    def vjp(g):
        return g - np.add.reduce(g, axis=-1, keepdims=True) / d

    return num.custom_node("center_last", out, ((x, vjp),))


def _conv3x3(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """3x3 same-padding conv on plain arrays, (B, C, H, W) x (D, C, 3, 3)
    -> (B, D, H, W), as one im2col matmul.

    This path sits inside finite-difference loops, so per-call overhead
    matters more than memory.
    """
    bsz, cin, h, wd = x.shape
    dout = w.shape[0]
    pad = np.zeros((bsz, cin, h + 2, wd + 2))
    pad[:, :, 1:-1, 1:-1] = x
    win = np.lib.stride_tricks.sliding_window_view(pad, (3, 3), axis=(2, 3))
    # one (C*9, H*W) column matrix per image, rows in the kernel's order
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(bsz, cin * 9, h * wd)
    return (w.reshape(dout, cin * 9) @ cols).reshape(bsz, dout, h, wd)


def _conv3x3_same(x, w: np.ndarray):
    """Graph node for :func:`_conv3x3`; gradients flow to ``x`` only.

    The input gradient of a same-padding conv is the same conv of the
    output gradient with the kernel's channels swapped and its taps
    flipped, so the backward reuses the forward's single matmul.
    """

    def vjp(g):
        return _conv3x3(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))

    return num.custom_node("conv3x3_same", _conv3x3(num.value_of(x), w), ((x, vjp),))


def tile_tokens(tokens, grid: tuple[int, int], s: int):
    """Tile tokens (N, D) into a (D, grid_h*s, grid_w*s) map.

    Token i (row-major over the grid) fills the s x s block at grid cell i
    in every channel, so the blocks partition the spatial extent: each
    coordinate receives exactly one token.
    """
    gh, gw = grid
    tv = num.value_of(tokens)
    n, d = tv.shape
    if n != gh * gw:
        raise DimensionError(f"tile_tokens: {n} tokens cannot fill a {gh}x{gw} grid")
    planes = tv.reshape(gh, gw, d).transpose(2, 0, 1)
    out = np.repeat(np.repeat(planes, s, axis=1), s, axis=2)

    def vjp(g):
        pooled = g.reshape(d, gh, s, gw, s).sum(axis=(2, 4))
        return pooled.transpose(1, 2, 0).reshape(n, d)

    return num.custom_node("tile_tokens", out, ((tokens, vjp),))


# ---------------------------------------------------------------------------
# adapters


@dataclass
class AdapterParams:
    """Learnable adapter tokens, one D-vector per patch."""

    tokens: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tokens, dtype=np.float64)
        if t.ndim != 2:
            raise DimensionError(f"adapter tokens must be N x D, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise NumericError("adapter tokens contain non-finite entries")
        self.tokens = t

    @classmethod
    def zeros(cls, num_tokens: int, dim: int) -> "AdapterParams":
        return cls(np.zeros((num_tokens, dim)))

    @property
    def num_tokens(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]


def _tokens_of(adapter):
    return adapter.tokens if isinstance(adapter, AdapterParams) else adapter


def apply_adapter_vit(patches, adapter):
    """q_i = p_i + a_i on (..., N, D) patch embeddings."""
    tokens = _tokens_of(adapter)
    pv, tv = num.value_of(patches), num.value_of(tokens)
    if pv.shape[-2:] != tv.shape:
        raise DimensionError(
            f"adapter shape {tv.shape} does not match patches {pv.shape}"
        )
    return num.add(patches, tokens)


def apply_adapter_conv(featmap, adapter, s: int):
    """Add each token, tiled s x s, to its spatial patch of the feature map."""
    tokens = _tokens_of(adapter)
    fv, tv = num.value_of(featmap), num.value_of(tokens)
    d, h, w = fv.shape[-3:]
    if h % s or w % s:
        raise ConfigError(f"feature map {h}x{w} not divisible by patch side {s}")
    grid = (h // s, w // s)
    if tv.shape != (grid[0] * grid[1], d):
        raise DimensionError(
            f"adapter shape {tv.shape} does not match grid {grid} with {d} channels"
        )
    return num.add(featmap, tile_tokens(tokens, grid, s))


# ---------------------------------------------------------------------------
# encoders


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _FrozenEncoder:
    """What both encoder families share.

    An encoder is split where the adapter enters. ``prefix(images)``
    checks the images and runs the frozen layers before the adapter on
    plain arrays; it does not depend on the adapter, so a caller that
    takes several steps on one batch computes it once.
    ``suffix(prefix, adapter)`` adds the adapter and runs the rest of the
    forward pass on the tape. ``encode_batch`` is the one composed with
    the other. Subclasses set ``image_shape``, ``dim`` and
    ``adapter_shape`` and yield their frozen arrays from
    ``_weight_arrays``.
    """

    def new_adapter(self) -> AdapterParams:
        return AdapterParams.zeros(*self.adapter_shape)

    def weights_checksum(self) -> str:
        digest = hashlib.sha256()
        for arr in self._weight_arrays():
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def _check_images(self, images, single: bool = False) -> np.ndarray:
        arr = np.asarray(images, dtype=np.float64)
        want = self.image_shape if single else (None,) + self.image_shape
        if single:
            ok = arr.shape == self.image_shape
        else:
            ok = arr.ndim == 4 and arr.shape[1:] == self.image_shape
        if not ok:
            raise DimensionError(f"expected images shaped {want}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("images contain non-finite values")
        return arr

    def encode(self, img, adapter):
        arr = self._check_images(img, single=True)
        out = self.encode_batch(arr[None], adapter)
        return num.reshape(out, (self.dim,))


class ToyViTEncoder(_FrozenEncoder):
    """Patch transformer at desk scale: linear patch embedding, then
    ``num_blocks`` blocks of mean-centered single-head attention and a
    2-layer tanh MLP, mean-pooled over tokens. No class token; pooling is
    the token mean. The adapter is added to the running token matrix
    immediately before block ``insertion_layer`` (``== num_blocks`` means
    after the last block, before pooling), so the frozen prefix is the
    patch embedding and the blocks before it."""

    family = "vit"

    def __init__(
        self,
        image_shape: tuple[int, int, int] = (3, 8, 8),
        patch_grid: tuple[int, int] = (4, 4),
        dim: int = 16,
        num_blocks: int = 3,
        insertion_layer: int = 0,
        seed: int = 0,
    ):
        c, h, w = image_shape
        gr, gc = patch_grid
        if h % gr or w % gc:
            raise ConfigError(
                f"image {h}x{w} not divisible into a {gr}x{gc} patch grid"
            )
        if not 0 <= insertion_layer <= num_blocks:
            raise ConfigError(
                f"insertion_layer {insertion_layer} outside [0, {num_blocks}]"
            )
        self.image_shape = (c, h, w)
        self.patch_grid = (gr, gc)
        self.patch_shape = (h // gr, w // gc)
        self.num_patches = gr * gc
        self.dim = dim
        self.num_blocks = num_blocks
        self.insertion_layer = insertion_layer
        self.seed = seed

        patch_len = c * self.patch_shape[0] * self.patch_shape[1]
        rng = np.random.default_rng(seed)
        self.w_embed = _freeze(rng.normal(0.0, patch_len**-0.5, (patch_len, dim)))
        self.blocks = []
        for _ in range(num_blocks):
            blk = {
                "wq": rng.normal(0.0, dim**-0.5, (dim, dim)),
                "wk": rng.normal(0.0, dim**-0.5, (dim, dim)),
                "wv": rng.normal(0.0, dim**-0.5, (dim, dim)),
                "wo": rng.normal(0.0, dim**-0.5, (dim, dim)),
                "w1": rng.normal(0.0, dim**-0.5, (dim, 2 * dim)),
                "w2": rng.normal(0.0, (2 * dim) ** -0.5, (2 * dim, dim)),
            }
            self.blocks.append({k: _freeze(v) for k, v in blk.items()})
        self._attn_scale = dim**-0.5

    @property
    def adapter_shape(self) -> tuple[int, int]:
        return (self.num_patches, self.dim)

    def _weight_arrays(self):
        yield self.w_embed
        for blk in self.blocks:
            for name in ("wq", "wk", "wv", "wo", "w1", "w2"):
                yield blk[name]

    def extract_patch_blocks(self, img: np.ndarray) -> np.ndarray:
        """Raw flattened patches, (N, C*ph*pw), row-major over the grid."""
        arr = self._check_images(img, single=True)
        return self._blocks_of(arr[None])[0]

    def patchify(self, img: np.ndarray) -> np.ndarray:
        """Patch embeddings p_1..p_N, (N, D): flatten then frozen linear map."""
        return self.extract_patch_blocks(img) @ self.w_embed

    def _blocks_of(self, imgs: np.ndarray) -> np.ndarray:
        b = imgs.shape[0]
        c, h, w = self.image_shape
        gr, gc = self.patch_grid
        ph, pw = self.patch_shape
        x = imgs.reshape(b, c, gr, ph, gc, pw).transpose(0, 2, 4, 1, 3, 5)
        return x.reshape(b, gr * gc, c * ph * pw)

    def _block_forward(self, x, blk):
        xc = _center_last(x)
        q = num.matmul(xc, blk["wq"])
        k = num.matmul(xc, blk["wk"])
        v = num.matmul(xc, blk["wv"])
        scores = num.mul(num.matmul(q, num.transpose(k)), self._attn_scale)
        mixed = num.matmul(num.matmul(num.row_softmax(scores), v), blk["wo"])
        x = num.add(x, mixed)
        hidden = num.tanh(num.matmul(_center_last(x), blk["w1"]))
        return num.add(x, num.matmul(hidden, blk["w2"]))

    def prefix(self, images) -> np.ndarray:
        """The (B, N, D) tokens that enter block ``insertion_layer``."""
        x = self._blocks_of(self._check_images(images)) @ self.w_embed
        for blk in self.blocks[: self.insertion_layer]:
            x = self._block_forward(x, blk)
        return x

    def suffix(self, prefix, adapter):
        """Add the adapter to the prefix tokens, run the remaining blocks
        and pool to (B, D) features."""
        x = apply_adapter_vit(prefix, adapter)
        for blk in self.blocks[self.insertion_layer :]:
            x = self._block_forward(x, blk)
        return num.mean_axis(x, axis=1)

    def encode_batch(self, images, adapter):
        """Encode (B, C, H, W) images to (B, D) features; differentiable in
        the adapter tokens."""
        return self.suffix(self.prefix(images), adapter)


class ToyConvEncoder(_FrozenEncoder):
    """Small conv encoder: a first 3x3 conv (the frozen prefix) produces
    the hidden map the adapter is tiled onto, then two more 3x3 convs
    (tanh between) and a global average pool."""

    family = "conv"

    def __init__(
        self,
        image_shape: tuple[int, int, int] = (3, 8, 8),
        dim: int = 16,
        patch_side: int = 2,
        seed: int = 0,
    ):
        c, h, w = image_shape
        if h % patch_side or w % patch_side:
            raise ConfigError(
                f"image {h}x{w} not divisible by adapter patch side {patch_side}"
            )
        self.image_shape = (c, h, w)
        self.dim = dim
        self.patch_side = patch_side
        self.grid = (h // patch_side, w // patch_side)
        self.num_tokens = self.grid[0] * self.grid[1]
        self.seed = seed

        rng = np.random.default_rng(seed)
        self.w1 = _freeze(rng.normal(0.0, (c * 9) ** -0.5, (dim, c, 3, 3)))
        self.w2 = _freeze(rng.normal(0.0, (dim * 9) ** -0.5, (dim, dim, 3, 3)))
        self.w3 = _freeze(rng.normal(0.0, (dim * 9) ** -0.5, (dim, dim, 3, 3)))

    @property
    def adapter_shape(self) -> tuple[int, int]:
        return (self.num_tokens, self.dim)

    def _weight_arrays(self):
        yield self.w1
        yield self.w2
        yield self.w3

    def prefix(self, images) -> np.ndarray:
        """The first conv's (B, D, H, W) map."""
        return _conv3x3_same(self._check_images(images), self.w1)

    def suffix(self, prefix, adapter):
        """Tile the adapter onto the prefix map, run the other two convs
        and pool to (B, D) features."""
        z = apply_adapter_conv(prefix, adapter, self.patch_side)
        h = num.tanh(z)
        h = num.tanh(_conv3x3_same(h, self.w2))
        h = num.tanh(_conv3x3_same(h, self.w3))
        return num.mean_axis(num.mean_axis(h, axis=3), axis=2)

    def encode_batch(self, images, adapter):
        return self.suffix(self.prefix(images), adapter)


# ---------------------------------------------------------------------------
# category embeddings


class CategoryEmbeddings:
    """Fixed matrix T of per-category unit vectors (M x D, one row each).

    Immutable once built. ``payload32`` is the float32 row-major image of
    the matrix used by the binary file format; for loaded instances it is
    kept verbatim so save(load(f)) reproduces f byte for byte.
    """

    def __init__(self, matrix: np.ndarray, source: str, payload32=None):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise DimensionError(f"category matrix must be M x D, got {m.shape}")
        if m.shape[0] < 2:
            raise ConfigError(f"need at least 2 categories, got {m.shape[0]}")
        if not np.all(np.isfinite(m)):
            raise NumericError("category matrix contains non-finite entries")
        norms = np.linalg.norm(m, axis=1)
        if norms.min() <= num.ZERO_NORM_EPS:
            row = int(np.argmin(norms))
            raise DegenerateInputError(f"category row {row} has near-zero norm")
        self.matrix = _freeze(m / norms[:, None])
        self.source = source
        if payload32 is None:
            payload32 = self.matrix.astype("<f4")
        self.payload32 = _freeze(np.asarray(payload32, dtype="<f4"))

    def __array__(self, dtype=None, copy=None):
        """The frozen matrix, so numpy and every tape primitive take ``self``.

        numpy 1.x calls this without ``copy``; numpy 2 passes it.
        """
        arr = np.asarray(self.matrix, dtype=dtype)
        return arr.copy() if copy else arr

    @property
    def num_categories(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def save(self, path) -> None:
        m, d = self.matrix.shape
        with open(path, "wb") as fh:
            fh.write(EMB_MAGIC)
            fh.write(struct.pack("<II", m, d))
            fh.write(self.payload32.tobytes())

    @classmethod
    def load(cls, path) -> "CategoryEmbeddings":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 16:
            raise FormatError(
                f"{path}: header truncated at byte {len(blob)} (need 16 bytes)"
            )
        if blob[:8] != EMB_MAGIC:
            raise FormatError(f"{path}: bad magic at byte 0, got {blob[:8]!r}")
        m, d = struct.unpack_from("<II", blob, 8)
        if m < 2:
            raise FormatError(f"{path}: category count {m} < 2 at byte 8")
        if d < 1:
            raise FormatError(f"{path}: feature dim {d} < 1 at byte 12")
        expected = 16 + 4 * m * d
        if len(blob) != expected:
            raise FormatError(
                f"{path}: payload size mismatch, expected {expected} bytes, "
                f"got {len(blob)} (payload starts at byte 16)"
            )
        payload = np.frombuffer(blob, dtype="<f4", offset=16).reshape(m, d)
        mat = payload.astype(np.float64)
        if not np.all(np.isfinite(mat)):
            flat = int(np.flatnonzero(~np.isfinite(mat))[0])
            raise FormatError(
                f"{path}: non-finite value at byte {16 + 4 * flat}"
            )
        norms = np.linalg.norm(mat, axis=1)
        if norms.min() <= num.ZERO_NORM_EPS:
            row = int(np.argmin(norms))
            raise FormatError(
                f"{path}: category row {row} has near-zero norm at byte {16 + 4 * row * d}"
            )
        return cls(mat, source="loaded-from-file", payload32=payload)


def embed_categories(num_categories: int, dim: int, seed: int = 0) -> CategoryEmbeddings:
    """Seeded orthonormal category directions (requires M <= D).

    QR of a seeded Gaussian, signs fixed so the result is deterministic;
    orthonormal rows satisfy the pairwise |cos| < 0.5 separation cap by a
    wide margin.
    """
    if num_categories < 2:
        raise ConfigError(f"need at least 2 categories, got {num_categories}")
    if dim < 2:
        raise ConfigError(f"need feature dim >= 2, got {dim}")
    if num_categories > dim:
        raise ConfigError(
            f"cannot pick {num_categories} orthonormal directions in dim {dim}"
        )
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, num_categories))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    t = (q * signs).T
    gram = t @ t.T
    off = np.abs(gram - np.eye(num_categories)).max()
    if off >= 0.5:
        raise ConfigError("category directions insufficiently separated")
    return CategoryEmbeddings(t, source="seeded-random-orthonormal")
