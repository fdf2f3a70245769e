"""Frozen toy image encoders, their additive adapters, and the category matrix.

Two miniature encoder families share one adapter interface: the adapter
is a plain (N, D) float64 array, one learnable token per patch, zero
from ``new_adapter``. Both families tile the image into 2x2 patches, and
their base class owns that geometry: the ``patch_side`` constant, the
``grid`` of patches and the ``adapter_shape``, set by the one
constructor, which rejects an image size or ``dim`` below 1 and an odd
image side.
The patch transformer maps each patch through a frozen linear embedding
and runs a stack of three attention blocks; the adapter adds its tokens
immediately before a configurable block. The conv encoder runs a 3x3
conv stack; each adapter token is tiled 2x2 and added to its spatial
patch of the first feature map, so a 2x2 neighbourhood shares one
token. The conv stack runs batch-last: its feature maps are
(C, H, W, B), the layout in which a block's im2col columns are one copy
of a strided view of the padded input, and each conv's GEMM output is
already the next layer's input. Each conv cuts its output positions
into blocks of whole rows, or of pieces of a row, whose im2col columns
fit a fixed cache-sized budget, and runs them in one loop on the
calling thread.

Weights are drawn from a seeded generator at construction, marked
read-only, and never change afterwards; adaptation only ever touches the
adapter tokens. All forward code routes through the graph primitives in
:mod:`ssam.numerics`, so the same functions serve both the plain-array
evaluation path and the reverse-mode gradient path. Each encoder splits
at the adapter into a frozen ``prefix`` (plain arrays, once per batch)
and a ``suffix`` on the tape; ``encode_batch`` composes the two, and
off the tape takes more than 64 images in slices of 64. Encoders take
image batches only, (B, C, H, W) with B >= 1.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import numerics as num
from .errors import ConfigError, DimensionError, NumericError


# ---------------------------------------------------------------------------
# batched graph ops (images are constants; only adapter tokens carry grad)


# bytes of im2col columns a _conv3x3 block may hold: at the default recipe
# a 256-column block, whose columns and OpenBLAS's packed copy of them fit
# a 2 MiB L2 together; a single output position that needs more still
# runs, as one position per block
_COLS_BYTES = 512 << 10


def _conv3x3(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """3x3 same-padding conv on batch-last plain arrays, (C, H, W, B) x
    (D, C, 3, 3) -> (D, H, W, B), as im2col GEMMs over blocks of output
    positions (y, x).

    The column array keeps the kernel's (c, ky, kx) row order. Its
    entry (c, ky, kx, y, x, b) is the padded input's (c, y + ky, x + kx,
    b), so the whole array is one strided (C, 3, 3, H, W, B) view of the
    padded input, and a block copies its columns out of that view with
    one ``reshape``. The blocks are the cells of the coarsest near-equal
    (y, x) grid whose cells fit ``_COLS_BYTES``, row by row. They run on
    the calling thread, and each GEMM writes straight into its columns of
    the output. The budget is sized to the cache (Goto and van de Geijn,
    ACM TOMS 2008): at the default recipe every 16-channel GEMM sees 256
    columns, 4 positions at B=64 or one row at B=32. A 1,024-column block
    and OpenBLAS's packed copy of it overflow a 2 MiB L2, and with such
    blocks those convs took about 1.2 times as long in an adaptation
    stream. The partition depends on the shapes and
    the budget only, never on the environment; a small conv, such as
    every one inside the finite-difference loops, is one block. Every
    output entry is the same dot product whatever the blocking. BLAS may
    still round an entry differently when the blocking, or its own thread
    split, moves it into its edge kernel for leftover columns; with
    OpenBLAS the result matches a one-block run bit for bit when each
    block's column count is a multiple of 8, as at every batch of the
    default recipe, and the CLI runs OpenBLAS on one thread so that its
    reports never depend on the inherited thread setting.
    """
    cin, h, wd, bsz = x.shape
    dout, k = w.shape[0], cin * 9
    pad = np.zeros((cin, h + 2, wd + 2, bsz))
    pad[:, 1:-1, 1:-1] = x
    s0, s1, s2, s3 = pad.strides
    taps = np.ndarray((cin, 3, 3, h, wd, bsz), buffer=pad, strides=(s0, s1, s2, s1, s2, s3))
    fit = max(1, _COLS_BYTES // (k * bsz * 8))  # positions per block
    nr, nc = -(-h // max(1, fit // wd)), -(-wd // min(fit, wd))  # grid rows, columns
    wm = w.reshape(dout, k)
    out = np.empty((dout, h * wd * bsz))
    for i in range(nr):
        y0, y1 = i * h // nr, (i + 1) * h // nr
        for j in range(nc):
            x0, x1 = j * wd // nc, (j + 1) * wd // nc
            # no name holds the columns, so each block's are freed before
            # the next block's are taken
            a, b = (y0 * wd + x0) * bsz, ((y1 - 1) * wd + x1) * bsz
            np.matmul(wm, taps[:, :, :, y0:y1, x0:x1].reshape(k, b - a), out=out[:, a:b])
    return out.reshape(dout, h, wd, bsz)


def _conv3x3_same(x, w: np.ndarray):
    """Graph node for :func:`_conv3x3`; gradients flow to ``x`` only.

    The input gradient of a same-padding conv is the same conv of the
    output gradient with the kernel's channels swapped and its taps
    flipped, so the backward reuses the forward's single matmul.
    """

    def vjp(g):
        return _conv3x3(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))

    return num.custom_node("conv3x3_same", _conv3x3(num.value_of(x), w), ((x, vjp),))


# ---------------------------------------------------------------------------
# adapters


def apply_adapter_vit(patches, tokens):
    """q_i = p_i + a_i on (..., N, D) patch embeddings."""
    pv, tv = num.value_of(patches), num.value_of(tokens)
    if pv.shape[-2:] != tv.shape:
        raise DimensionError(f"adapter shape {tv.shape} does not match patches {pv.shape}")
    return num.add(patches, tokens)


def apply_adapter_conv(featmap, tokens):
    """Add each token, tiled s x s (s the encoders' ``patch_side``), to its
    spatial patch of every image of a batch-last (D, H, W, B) feature map.

    Token i (row-major over the patch grid) fills the s x s block at grid
    cell i in every channel, so the blocks partition the spatial extent:
    each coordinate receives one token. The tile is one ``tile_tokens``
    node of shape (D, H, W, 1), which ``num.add`` broadcasts over the batch.
    """
    fv, tv = num.value_of(featmap), num.value_of(tokens)
    d, h, w, _ = fv.shape
    s = _FrozenEncoder.patch_side
    if h % s or w % s:
        raise ConfigError(f"feature map {h}x{w} not divisible by patch side {s}")
    gh, gw = h // s, w // s
    if tv.shape != (gh * gw, d):
        raise DimensionError(
            f"adapter shape {tv.shape} does not match grid {(gh, gw)} with {d} channels"
        )
    planes = tv.reshape(gh, gw, d).transpose(2, 0, 1)
    tile = np.repeat(np.repeat(planes, s, axis=1), s, axis=2)[..., None]

    def vjp(g):
        pooled = g.reshape(d, gh, s, gw, s).sum(axis=(2, 4))
        return pooled.transpose(1, 2, 0).reshape(gh * gw, d)

    return num.add(featmap, num.custom_node("tile_tokens", tile, ((tokens, vjp),)))


# ---------------------------------------------------------------------------
# encoders


# off the tape, a pass over more images runs in slices of this many: the
# suffix's fastest batch, and a bound on what one full-stream pass holds
_ENCODE_SLICE = 64


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
    the other. The constructor owns the geometry both families share:
    it checks that every image size and ``dim`` is at least 1 and that
    the image tiles into ``patch_side`` patches, and sets ``image_shape``,
    ``dim``, the (H/2, W/2) patch ``grid`` and the (N, D) ``adapter_shape``.
    Subclasses draw their weights from their ``seed`` after it and yield
    their frozen arrays from ``_weight_arrays``.
    """

    patch_side = 2

    def __init__(self, image_shape: tuple[int, int, int], dim: int):
        c, h, w = image_shape
        s = self.patch_side
        if min(c, h, w) < 1:
            raise ConfigError(f"image shape {(c, h, w)} needs every size >= 1")
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        if h % s or w % s:
            raise ConfigError(f"image {h}x{w} not divisible by patch side {s}")
        self.image_shape = (c, h, w)
        self.dim = dim
        self.grid = (h // s, w // s)
        self.adapter_shape = (self.grid[0] * self.grid[1], dim)

    def encode_batch(self, images, adapter):
        """Encode (B, C, H, W) images to (B, D) features; differentiable in
        the adapter tokens.

        With a plain adapter, more than ``_ENCODE_SLICE`` images are encoded
        in slices of that many. ``np.concatenate`` keeps the slices' memory
        layout, which is a single pass's, so the rows, and whatever is
        computed from them, keep their bits.
        """
        imgs = self._check_images(images)
        if isinstance(adapter, num.Var) or len(imgs) <= _ENCODE_SLICE:
            return self.suffix(self.prefix(imgs), adapter)
        return np.concatenate(
            [
                self.suffix(self.prefix(imgs[i : i + _ENCODE_SLICE]), adapter)
                for i in range(0, len(imgs), _ENCODE_SLICE)
            ]
        )

    def new_adapter(self) -> np.ndarray:
        return np.zeros(self.adapter_shape)

    def weights_checksum(self) -> str:
        digest = hashlib.sha256()
        for arr in self._weight_arrays():
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def _check_images(self, images) -> np.ndarray:
        arr = np.asarray(images, dtype=np.float64)
        if not (arr.ndim == 4 and arr.shape[1:] == self.image_shape):
            raise DimensionError(
                f"expected images shaped {(None,) + self.image_shape}, got {arr.shape}"
            )
        if len(arr) == 0:
            raise ConfigError("encoders need a nonempty batch")
        if not np.all(np.isfinite(arr)):
            raise NumericError("images contain non-finite values")
        return arr


class ToyViTEncoder(_FrozenEncoder):
    """Patch transformer at desk scale: linear embedding of the
    ``patch_side`` x ``patch_side`` patches, then ``num_blocks`` blocks of
    mean-centred single-head attention and a 2-layer tanh MLP, mean-pooled
    over tokens. No class token; pooling is the token mean. The adapter is
    added to the running token matrix immediately before block
    ``insertion_layer`` (``== num_blocks`` means after the last block,
    before pooling), so the frozen prefix is the patch embedding and the
    blocks before it. Blocks run on weights folded once from the seeded
    ``blocks``, with ``P = I - 11^T/d`` the centring:
    ``qk = d^-1/2 P wq wk^T P``, ``vo = P wv wo``, ``w1c = P w1``.
    ``weights_checksum`` hashes the seeded arrays only."""

    family = "vit"
    num_blocks = 3

    def __init__(
        self,
        image_shape: tuple[int, int, int] = (3, 8, 8),
        dim: int = 16,
        insertion_layer: int = 0,
        seed: int = 0,
    ):
        super().__init__(image_shape, dim)
        if not 0 <= insertion_layer <= self.num_blocks:
            raise ConfigError(
                f"insertion_layer {insertion_layer} outside [0, {self.num_blocks}]"
            )
        self.insertion_layer = insertion_layer

        patch_len = image_shape[0] * self.patch_side**2
        rng = np.random.default_rng(seed)
        self.w_embed = _freeze(rng.normal(0.0, patch_len**-0.5, (patch_len, dim)))
        self.blocks = []
        for _ in range(self.num_blocks):
            blk = {
                "wq": rng.normal(0.0, dim**-0.5, (dim, dim)),
                "wk": rng.normal(0.0, dim**-0.5, (dim, dim)),
                "wv": rng.normal(0.0, dim**-0.5, (dim, dim)),
                "wo": rng.normal(0.0, dim**-0.5, (dim, dim)),
                "w1": rng.normal(0.0, dim**-0.5, (dim, 2 * dim)),
                "w2": rng.normal(0.0, (2 * dim) ** -0.5, (2 * dim, dim)),
            }
            self.blocks.append({k: _freeze(v) for k, v in blk.items()})
        centre = np.eye(dim) - 1.0 / dim
        self.folded_blocks = [
            {
                "qk": _freeze(dim**-0.5 * (centre @ blk["wq"] @ blk["wk"].T @ centre)),
                "vo": _freeze(centre @ blk["wv"] @ blk["wo"]),
                "w1c": _freeze(centre @ blk["w1"]),
                "w2": blk["w2"],
            }
            for blk in self.blocks
        ]

    def _weight_arrays(self):
        yield self.w_embed
        for blk in self.blocks:  # wq, wk, wv, wo, w1, w2
            yield from blk.values()

    def _blocks_of(self, imgs: np.ndarray) -> np.ndarray:
        b, c = imgs.shape[:2]
        gr, gc = self.grid
        s = self.patch_side
        x = imgs.reshape(b, c, gr, s, gc, s).transpose(0, 2, 4, 1, 3, 5)
        return x.reshape(b, gr * gc, c * s * s)

    @staticmethod
    def _block_forward(x, blk):
        """One block on the folded weights ``blk``: 11 tape nodes."""
        scores = num.matmul(num.matmul(x, blk["qk"]), num.transpose(x))
        x = num.add(x, num.matmul(num.row_softmax(scores), num.matmul(x, blk["vo"])))
        return num.add(x, num.matmul(num.tanh(num.matmul(x, blk["w1c"])), blk["w2"]))

    def prefix(self, images) -> np.ndarray:
        """The (B, N, D) tokens that enter block ``insertion_layer``."""
        x = self._blocks_of(self._check_images(images)) @ self.w_embed
        for blk in self.folded_blocks[: self.insertion_layer]:
            x = self._block_forward(x, blk)
        return x

    def suffix(self, prefix, adapter):
        """Add the adapter to the prefix tokens, run the remaining blocks
        and pool to (B, D) features."""
        x = apply_adapter_vit(prefix, adapter)
        for blk in self.folded_blocks[self.insertion_layer :]:
            x = self._block_forward(x, blk)
        return num.mean_axis(x, axis=1)

    # bound in each family, so each can be rebound on its own
    encode_batch = _FrozenEncoder.encode_batch


class ToyConvEncoder(_FrozenEncoder):
    """Small conv encoder: a first 3x3 conv (the frozen prefix) produces
    the hidden map the adapter is tiled onto, then two more 3x3 convs
    (tanh between) and a global average pool. Each adapter token covers a
    ``patch_side`` x ``patch_side`` patch of that map."""

    family = "conv"

    def __init__(self, image_shape: tuple[int, int, int] = (3, 8, 8), dim: int = 16, seed: int = 0):
        super().__init__(image_shape, dim)
        c = image_shape[0]
        rng = np.random.default_rng(seed)
        self.w1 = _freeze(rng.normal(0.0, (c * 9) ** -0.5, (dim, c, 3, 3)))
        self.w2 = _freeze(rng.normal(0.0, (dim * 9) ** -0.5, (dim, dim, 3, 3)))
        self.w3 = _freeze(rng.normal(0.0, (dim * 9) ** -0.5, (dim, dim, 3, 3)))

    def _weight_arrays(self):
        return (self.w1, self.w2, self.w3)

    def prefix(self, images) -> np.ndarray:
        """The first conv's batch-last (D, H, W, B) map."""
        return _conv3x3_same(self._check_images(images).transpose(1, 2, 3, 0), self.w1)

    def suffix(self, prefix, adapter):
        """Tile the adapter onto the prefix map, run the other two convs
        and pool to (B, D) features."""
        z = apply_adapter_conv(prefix, adapter)
        h = num.tanh(z)
        h = num.tanh(_conv3x3_same(h, self.w2))
        h = num.tanh(_conv3x3_same(h, self.w3))
        return num.transpose(num.mean_axis(num.mean_axis(h, axis=2), axis=1))

    encode_batch = _FrozenEncoder.encode_batch


# ---------------------------------------------------------------------------
# category matrix


def category_matrix(rows) -> np.ndarray:
    """The fixed category matrix T: ``rows`` scaled to unit length, as a
    read-only float64 (M, D) array with M >= 2 finite rows whose norms
    pass :func:`~ssam.numerics.row_norms`."""
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"category matrix must be M x D, got {m.shape}")
    if m.shape[0] < 2:
        raise ConfigError(f"need at least 2 categories, got {m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise NumericError("category matrix contains non-finite entries")
    return _freeze(m / num.row_norms(m, "category")[:, None])


def embed_categories(num_categories: int, dim: int, seed: int = 0) -> np.ndarray:
    """Seeded orthonormal category directions (requires 2 <= M <= D).

    QR of a seeded Gaussian, signs fixed so the result is deterministic.
    The rows are orthonormal to rounding, so they meet the pairwise
    |cos| < 0.5 separation cap without a check.
    """
    if num_categories < 2:
        raise ConfigError(f"need at least 2 categories, got {num_categories}")
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
    return category_matrix(t)
