"""Tests for the frozen toy encoders, adapters, and category embeddings."""

import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from gc import collect as collect_garbage

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssam.numerics as num
from ssam import encoders
from ssam.bench import gradcheck as gc
from ssam.bench.synthetic import load_embeddings, save_embeddings
from ssam.encoders import (
    ToyConvEncoder,
    ToyViTEncoder,
    apply_adapter_conv,
    apply_adapter_vit,
    category_matrix,
    embed_categories,
)
from ssam.errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    NumericError,
)

from conftest import load_golden, truncations_and_bit_flips
from oracles import (
    naive_conv3x3_same,
    naive_conv3x3_same_vjp,
    naive_conv_encoder,
    naive_vit_encoder,
    rel_err,
)

class TestPatchLayout:
    """At insertion_layer 0 the prefix is the patch embedding p_1..p_N."""

    def test_top_left_block_first(self):
        img = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        enc = ToyViTEncoder(image_shape=(1, 4, 4), dim=4)
        blocks = np.array(  # row-major over the grid
            [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]], dtype=np.float64
        )
        p = enc.prefix(img)
        assert p.shape == (1, 4, 4)
        np.testing.assert_allclose(p[0], blocks @ enc.w_embed, rtol=0, atol=1e-12)

    def test_constant_image_gives_identical_embeddings(self):
        enc = ToyViTEncoder(image_shape=(3, 8, 8))
        p = enc.prefix(np.full((1, 3, 8, 8), 0.7))[0]
        assert p.shape == (16, 16)
        assert np.allclose(p, p[0], atol=1e-12)

    def test_prefix_at_layer_0_is_blocks_times_embedding(self):
        enc = ToyViTEncoder(image_shape=(3, 4, 6))
        assert enc.grid == (2, 3) and enc.patch_side == 2
        imgs = np.random.default_rng(3).normal(size=(2, 3, 4, 6))
        # patch (r, c) of image b is imgs[b, :, 2r:2r+2, 2c:2c+2], flattened
        blocks = [
            [imgs[b, :, 2 * r : 2 * r + 2, 2 * c : 2 * c + 2].ravel() for r in (0, 1) for c in (0, 1, 2)]
            for b in (0, 1)
        ]
        assert np.allclose(enc.prefix(imgs), np.array(blocks) @ enc.w_embed)

    def test_indivisible_grid_rejected(self):
        for cls in (ToyViTEncoder, ToyConvEncoder):
            for shape in ((3, 7, 8), (3, 8, 5)):  # 2x2 patches need even sides
                with pytest.raises(ConfigError, match="patch side 2"):
                    cls(image_shape=shape)

    @pytest.mark.parametrize("cls", [ToyViTEncoder, ToyConvEncoder])
    @pytest.mark.parametrize(
        "kw,match",
        [
            pytest.param(dict(image_shape=(3, 0, 0)), r"image shape \(3, 0, 0\) needs", id="3x0x0"),
            pytest.param(dict(image_shape=(0, 8, 8)), r"image shape \(0, 8, 8\) needs", id="0x8x8"),
            pytest.param(dict(image_shape=(3, -2, 8)), r"image shape \(3, -2, 8\) needs", id="3x-2x8"),
            pytest.param(dict(dim=0), "dim must be >= 1, got 0", id="dim0"),
        ],
    )
    def test_empty_geometry_rejected(self, cls, kw, match):
        with pytest.raises(ConfigError, match=match):
            cls(**kw)

    def test_golden_patch_embeddings(self):
        g = load_golden("encoders_golden.json")
        enc = ToyViTEncoder(seed=0)
        assert enc.insertion_layer == 0
        img = np.array(g["image"])
        np.testing.assert_allclose(
            enc.prefix(img[None])[0], g["vit_patch_embeddings"], rtol=0, atol=1e-10
        )


class TestAdapterVit:
    def test_zero_adapter_is_identity(self):
        p = np.random.default_rng(0).normal(size=(4, 3))
        out = apply_adapter_vit(p, np.zeros((4, 3)))
        assert np.array_equal(out, p)

    def test_zero_patches_pass_tokens_through(self):
        a = np.eye(3)
        out = apply_adapter_vit(np.zeros((3, 3)), a)
        assert np.array_equal(out, a)

    def test_elementwise_add(self):
        out = apply_adapter_vit(np.array([[1.0, 1.0]]), np.array([[2.0, 3.0]]))
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_count_mismatch(self):
        with pytest.raises(DimensionError):
            apply_adapter_vit(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_injection_is_associative_on_dyadics(self):
        rng = np.random.default_rng(7)
        p = rng.integers(-8, 8, size=(4, 3)) / 4.0
        a1 = rng.integers(-8, 8, size=(4, 3)) / 4.0
        a2 = rng.integers(-8, 8, size=(4, 3)) / 4.0
        lhs = apply_adapter_vit(apply_adapter_vit(p, a1), a2)
        rhs = apply_adapter_vit(p, a1 + a2)
        assert np.array_equal(lhs, rhs)  # exact: dyadic values of one scale


class TestAdapterConv:
    def test_zero_adapter_is_identity(self):
        f = np.random.default_rng(1).normal(size=(3, 4, 4, 1))
        out = apply_adapter_conv(f, np.zeros((4, 3)))
        assert np.array_equal(out, f)

    def test_single_token_fills_everything(self):
        t = np.array([[1.0, 2.0, 3.0]])
        out = apply_adapter_conv(np.zeros((3, 2, 2, 1)), t)
        for c in range(3):
            assert np.all(out[c] == t[0, c])

    def test_quadrant_layout(self):
        tokens = np.arange(1.0, 5.0)[:, None]  # 4 tokens, 1 channel
        out = apply_adapter_conv(np.zeros((1, 4, 4, 1)), tokens)
        assert np.all(out[0, :2, :2] == 1.0)
        assert np.all(out[0, :2, 2:] == 2.0)
        assert np.all(out[0, 2:, :2] == 3.0)
        assert np.all(out[0, 2:, 2:] == 4.0)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            apply_adapter_conv(np.zeros((1, 5, 4, 1)), np.zeros((4, 1)))

    def test_batch_last_stack_gets_the_same_tile_per_image(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(3, 4, 6, 5))  # (D, H, W, B)
        tokens = rng.normal(size=(6, 3))
        out = num.value_of(apply_adapter_conv(f, tokens))
        assert out.shape == f.shape
        for b in range(f.shape[3]):
            one = f[..., b : b + 1]
            assert np.array_equal(out[..., b : b + 1], apply_adapter_conv(one, tokens))
        # the tokens' gradient sums the per-image gradients
        g = rng.normal(size=f.shape)
        stacked = num.value_and_gradient(
            lambda t: num.total_sum(num.mul(apply_adapter_conv(f, t), g)), tokens
        ).gradient
        per_image = sum(
            num.value_and_gradient(
                lambda t, b=b: num.total_sum(
                    num.mul(apply_adapter_conv(f[..., b : b + 1], t), g[..., b : b + 1])
                ),
                tokens,
            ).gradient
            for b in range(f.shape[3])
        )
        assert rel_err(stacked, per_image) <= 1e-12

    def test_tiling_partitions_the_map(self):
        # give every token a distinct constant value; each spatial position
        # must then carry exactly one token id, s*s positions per token
        gh, gw, s, d = 3, 2, 2, 4
        ids = np.arange(1.0, gh * gw + 1.0)
        tokens = np.repeat(ids[:, None], d, axis=1)
        tiled = apply_adapter_conv(np.zeros((d, gh * s, gw * s, 1)), tokens)[..., 0]
        assert tiled.shape == (d, gh * s, gw * s)
        for c in range(d):
            vals, counts = np.unique(tiled[c], return_counts=True)
            assert np.array_equal(vals, ids)
            assert np.all(counts == s * s)


def _test_image(shape=(3, 8, 8), seed=1234):
    return np.random.default_rng(seed).normal(size=shape)


class TestEncode:
    def test_deterministic(self):
        enc = ToyViTEncoder()
        img = _test_image()
        a = enc.new_adapter()
        v1 = enc.encode_batch(img[None], a)
        v2 = enc.encode_batch(img[None], a)
        assert np.array_equal(v1, v2)

    def test_zero_adapter_insertion_position_irrelevant(self):
        img = _test_image()
        v_first = ToyViTEncoder(insertion_layer=0).encode_batch(img[None], np.zeros((16, 16)))
        v_last = ToyViTEncoder(insertion_layer=3).encode_batch(img[None], np.zeros((16, 16)))
        assert np.array_equal(v_first, v_last)

    def test_adapter_shape_mismatch(self):
        for enc in (ToyViTEncoder(), ToyConvEncoder()):
            with pytest.raises(DimensionError):
                enc.encode_batch(_test_image()[None], np.zeros((4, 16)))

    def test_bad_image_shape(self):
        enc = ToyConvEncoder()
        # a single unbatched image is a shape error too: encoders take batches
        for imgs in (np.zeros((1, 3, 4, 4)), _test_image()):
            with pytest.raises(DimensionError):
                enc.encode_batch(imgs, enc.new_adapter())

    @pytest.mark.parametrize("cls", [ToyViTEncoder, ToyConvEncoder], ids=["vit", "conv"])
    def test_empty_batch_is_config_error(self, cls):
        enc = cls()
        empty = np.zeros((0, 3, 8, 8))
        with pytest.raises(ConfigError, match="nonempty"):
            enc.encode_batch(empty, enc.new_adapter())
        with pytest.raises(ConfigError, match="nonempty"):
            enc.prefix(empty)

    def test_nonfinite_image_rejected(self):
        enc = ToyViTEncoder()
        img = _test_image()
        img[0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            enc.encode_batch(img[None], enc.new_adapter())

    def test_insertion_layer_out_of_range(self):
        with pytest.raises(ConfigError):
            ToyViTEncoder(insertion_layer=4)

    def test_golden_features(self):
        g = load_golden("encoders_golden.json")
        img = np.array(g["image"])
        tokens = np.array(g["adapter_tokens"])
        vit = ToyViTEncoder(seed=0).encode_batch(img[None], tokens)[0]
        conv = ToyConvEncoder(seed=0).encode_batch(img[None], tokens)[0]
        np.testing.assert_allclose(vit, g["vit_feature"], rtol=0, atol=1e-10)
        np.testing.assert_allclose(conv, g["conv_feature"], rtol=0, atol=1e-10)


class TestFrozenWeights:
    def test_weights_not_writable(self):
        enc = ToyViTEncoder()
        with pytest.raises(ValueError):
            enc.w_embed[0, 0] = 1.0
        with pytest.raises(ValueError):
            enc.blocks[0]["wq"][0, 0] = 1.0

    def test_same_seed_same_checksum(self):
        assert ToyViTEncoder(seed=5).weights_checksum() == ToyViTEncoder(seed=5).weights_checksum()
        assert ToyConvEncoder(seed=5).weights_checksum() == ToyConvEncoder(seed=5).weights_checksum()

    def test_different_seed_different_checksum(self):
        assert ToyViTEncoder(seed=1).weights_checksum() != ToyViTEncoder(seed=2).weights_checksum()

    def test_checksum_unchanged_by_encoding(self):
        for enc in (ToyViTEncoder(), ToyConvEncoder()):
            before = enc.weights_checksum()
            tokens = np.random.default_rng(11).normal(0.0, 0.3, enc.adapter_shape)
            enc.encode_batch(_test_image((4,) + enc.image_shape), tokens)
            assert enc.weights_checksum() == before


def _make_encoder(family, insertion):
    if family == "vit":
        return ToyViTEncoder(
            image_shape=(3, 4, 4), dim=8, insertion_layer=insertion, seed=4
        )
    return ToyConvEncoder(image_shape=(3, 4, 4), dim=8, seed=4)


@pytest.mark.parametrize(
    "family,insertion",
    [("vit", 0), ("vit", 1), ("vit", 3), ("conv", None)],
)
def test_encode_gradient_matches_finite_differences(family, insertion):
    enc = _make_encoder(family, insertion)
    rng = np.random.default_rng(21)
    imgs = rng.normal(size=(2,) + enc.image_shape)
    weights = rng.normal(size=(2, enc.dim))
    tokens0 = rng.normal(0.0, 0.2, enc.adapter_shape)

    def objective(tokens):
        v = enc.encode_batch(imgs, tokens)
        return num.total_sum(num.mul(v, weights))

    analytic = num.value_and_gradient(objective, tokens0).gradient
    fd = num.finite_difference_gradient(objective, tokens0)
    assert rel_err(analytic, fd) <= 1e-4
    assert np.abs(analytic).max() > 1e-6  # not vacuous


@pytest.mark.parametrize("shape,dout", [((1, 3, 5, 4), 6), ((2, 4, 4, 6), 2)])
def test_conv3x3_same_matches_naive_loops(shape, dout):
    # cin != dout and H != W, so a swapped channel axis or a transposed
    # spatial grid cannot pass; B = 1 catches a batch axis folded wrongly.
    # The conv runs batch-last, (C, H, W, B); the oracle takes (B, C, H, W).
    rng = np.random.default_rng(17)
    x = rng.normal(size=shape)
    w = rng.normal(size=(dout, shape[1], 3, 3))
    x_bl = x.transpose(1, 2, 3, 0)
    out = encoders._conv3x3_same(num.leaf(x_bl), w)
    y_bl = num.value_of(out)
    assert y_bl.shape == (dout, shape[2], shape[3], shape[0])
    assert rel_err(y_bl.transpose(3, 0, 1, 2), naive_conv3x3_same(x, w)) <= 1e-12
    g = rng.normal(size=(shape[0], dout, shape[2], shape[3]))
    g_bl = g.transpose(1, 2, 3, 0)
    ((_, vjp),) = out._edges
    gx = vjp(g_bl)
    assert gx.shape == x_bl.shape
    assert rel_err(gx.transpose(3, 0, 1, 2), naive_conv3x3_same_vjp(g, w, x.shape)) <= 1e-12
    # the backward is the adjoint of the forward: <conv(x), g> == <x, vjp(g)>
    lhs, rhs = float((y_bl * g_bl).sum()), float((x_bl * gx).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("case", ["overflow", "nan"])
def test_conv3x3_same_raises_on_a_non_finite_conv(case):
    # tanh maps an infinity to +-1, so a test of the tanh after the conv
    # would pass a finite input whose conv overflows; a NaN input makes
    # NaN conv entries. The conv node must raise on both, off and on the
    # tape.
    x, w = np.ones((2, 4, 4, 3)), np.ones((3, 2, 3, 3))
    if case == "overflow":
        x *= 1e300
        w *= 1e9  # each product is 1e309
    else:
        x[1, 2, 1, 0] = np.nan
    for operand in (x, num.leaf(x)):
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="^conv3x3_same produced a non-finite value$"):
                encoders._conv3x3_same(operand, w)


def test_conv_encode_batch_matches_naive_loops():
    # B >= 2 distinct images, C != D and H != W: a batch/channel mix-up or a
    # transposed grid anywhere in the batch-last stack changes the features
    enc = ToyConvEncoder(image_shape=(2, 4, 6), dim=5, seed=8)
    rng = np.random.default_rng(9)
    imgs = rng.normal(size=(3,) + enc.image_shape)
    tokens = rng.normal(0.0, 0.5, enc.adapter_shape)
    want = naive_conv_encoder(imgs, (enc.w1, enc.w2, enc.w3), tokens, enc.patch_side)
    got = num.value_of(enc.encode_batch(imgs, tokens))
    assert got.shape == (3, 5)
    assert rel_err(got, want) <= 1e-12


_P = 3 * 9 * 8 * 8  # bytes of one forward output position's columns at C=3, B=8


# (B, C, H, W) images, output channels, column budget in bytes (None: the
# module's own), and the column count of each forward and VJP GEMM. With
# 6 output channels the VJP's positions are twice as wide as the forward's.
@pytest.mark.parametrize(
    "shape,dout,budget,fwd_cols,vjp_cols",
    [
        # no position fits: one position per block both ways
        pytest.param((8, 3, 5, 4), 6, 0, [8] * 20, [8] * 20, id="0"),
        # one forward row per block; the VJP cuts each row in two
        pytest.param((8, 3, 5, 4), 6, 4 * _P, [32] * 5, [16] * 10, id="1"),
        # forward blocks of 1, 2 and 2 rows; one VJP row per block
        pytest.param((8, 3, 5, 4), 6, 8 * _P, [32, 64, 64], [32] * 5, id="2"),
        # blocks of several rows both ways: 3 + 4 forward, 1 + 2 + 2 + 2 VJP
        pytest.param((8, 3, 7, 4), 6, 16 * _P, [96, 128], [32, 64, 64, 64], id="rows"),
        # uneven cuts of a 7-wide row: 3 + 4 positions forward, 1 + 2 + 2 + 2 VJP
        pytest.param((8, 3, 3, 7), 6, 5 * _P, [24, 32] * 3, [8, 16, 16, 16] * 3, id="pieces"),
        # the shapes the committed reports use, at the real budget
        pytest.param((64, 16, 8, 8), 16, None, [256] * 16, [256] * 16, id="16x8x8x64"),
        pytest.param((32, 16, 8, 8), 16, None, [256] * 8, [256] * 8, id="16x8x8x32"),
        pytest.param((64, 3, 8, 8), 16, None, [2048] * 2, [256] * 16, id="3x8x8x64"),
    ],
)
def test_conv3x3_row_blocks_match_one_block(monkeypatch, shape, dout, budget, fwd_cols, vjp_cols):
    # B = 8 makes every block's column count (positions x B) a multiple of
    # 8, which keeps it off OpenBLAS's edge kernel for leftover columns,
    # so the blocked run must match a one-block run bit for bit
    rng = np.random.default_rng(21)
    x = rng.normal(size=shape)  # (B, C, H, W)
    w = rng.normal(size=(dout,) + shape[1:2] + (3, 3))
    x_bl = x.transpose(1, 2, 3, 0)
    g_bl = rng.normal(size=(dout,) + x_bl.shape[1:])
    gemm_cols = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, out: gemm_cols.append(b.shape[1]) or matmul(a, b, out=out))

    def forward_and_vjp():
        out = encoders._conv3x3_same(num.leaf(x_bl), w)
        ((_, vjp),) = out._edges
        return num.value_of(out), vjp(g_bl)

    with monkeypatch.context() as one_block:
        one_block.setattr(encoders, "_COLS_BYTES", 1 << 60)
        y1, gx1 = forward_and_vjp()
    assert gemm_cols == [np.prod(x_bl.shape[1:])] * 2
    gemm_cols.clear()
    if budget is not None:
        monkeypatch.setattr(encoders, "_COLS_BYTES", budget)
    y, gx = forward_and_vjp()
    assert gemm_cols == fwd_cols + vjp_cols
    assert np.array_equal(y, y1) and np.array_equal(gx, gx1)
    # each image is its own conv, so the naive loops check every image of
    # the small cases and, to keep them under a second, the first 2 of the
    # report shapes
    n = 2 if budget is None else len(x)
    assert rel_err(y[..., :n].transpose(3, 0, 1, 2), naive_conv3x3_same(x[:n], w)) <= 1e-12
    want = naive_conv3x3_same_vjp(g_bl[..., :n].transpose(3, 0, 1, 2), w, x[:n].shape)
    assert rel_err(gx[..., :n].transpose(3, 0, 1, 2), want) <= 1e-12


def test_conv3x3_temporaries_stay_within_the_column_budget():
    # (16, 8, 8, 160) is a hidden conv of a 160-image pass: its whole
    # im2col matrix is 11.25 MiB, so one un-blocked buffer breaks the bound
    x = np.random.default_rng(2).normal(size=(16, 8, 8, 160))
    w = np.random.default_rng(3).normal(size=(16, 16, 3, 3))
    pad_bytes = 16 * 10 * 10 * 160 * 8
    out_bytes = 16 * 8 * 8 * 160 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        encoders._conv3x3(x, w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= pad_bytes + out_bytes + encoders._COLS_BYTES


@pytest.mark.parametrize("blas", [None, "1", "2"])
def test_import_reads_the_blas_setting_and_starts_no_thread(blas):
    # whatever BLAS thread setting the process inherits, neither the import
    # nor a conv cut into 16 blocks of row pieces, in a process that sees
    # two usable cores, starts a thread
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(pathlib.Path(encoders.__file__).parents[1])
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    code = (
        "import os, threading, numpy as np, ssam\n"
        "from ssam import encoders\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "x = np.ones((16, 8, 8, 64)); w = np.ones((16, 16, 3, 3))\n"
        "assert encoders._conv3x3(x, w).shape == x.shape\n"
        "print(threading.active_count())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]


@pytest.mark.parametrize("family", ["vit", "conv"])
def test_encode_batch_of_six_is_its_two_halves_stacked(family):
    enc = ToyViTEncoder() if family == "vit" else ToyConvEncoder()
    rng = np.random.default_rng(6)
    imgs = rng.normal(size=(6,) + enc.image_shape)
    tokens = rng.normal(0.0, 0.2, enc.adapter_shape)
    halves = [num.value_of(enc.encode_batch(imgs[i : i + 3], tokens)) for i in (0, 3)]
    assert np.array_equal(num.value_of(enc.encode_batch(imgs, tokens)), np.concatenate(halves))


@pytest.mark.parametrize("family", ["vit", "conv"])
def test_encode_batch_of_160_in_slices_is_one_pass_bit_for_bit(family, monkeypatch):
    enc = ToyViTEncoder() if family == "vit" else ToyConvEncoder()
    rng = np.random.default_rng(160)
    imgs = rng.normal(size=(160,) + enc.image_shape)
    tokens = rng.normal(0.0, 0.2, enc.adapter_shape)
    one = num.value_of(enc.suffix(enc.prefix(imgs), tokens))
    seen = []
    prefix = enc.prefix
    monkeypatch.setattr(enc, "prefix", lambda images: seen.append(len(images)) or prefix(images))
    got = enc.encode_batch(imgs, tokens)
    assert seen == [64, 64, 32]
    # the same layout as one pass, so what is computed from the rows keeps its bits too
    assert got.tobytes() == one.tobytes() and got.strides == one.strides
    t = embed_categories(4, enc.dim)
    cos = num.cosine_similarity_matrix
    assert cos(got, t).tobytes() == cos(one, t).tobytes()
    # on the tape the batch stays one pass
    seen.clear()
    enc.encode_batch(imgs, num.leaf(tokens))
    assert seen == [160]


def _split_cells():
    for il in range(4):
        yield ToyViTEncoder(
            image_shape=(3, 4, 4), dim=8, insertion_layer=il, seed=4
        )
    yield ToyConvEncoder(image_shape=(3, 4, 4), dim=8, seed=4)


@pytest.mark.parametrize("enc", list(_split_cells()), ids=lambda e: f"{e.family}-{getattr(e, 'insertion_layer', '-')}")
def test_suffix_of_prefix_is_encode_batch(enc):
    rng = np.random.default_rng(5)
    imgs = rng.normal(size=(3,) + enc.image_shape)
    weights = rng.normal(size=(3, enc.dim))
    tokens = rng.normal(0.0, 0.2, enc.adapter_shape)
    prefix = enc.prefix(imgs)
    assert type(prefix) is np.ndarray  # computed once, off the tape
    assert np.array_equal(enc.suffix(prefix, tokens), enc.encode_batch(imgs, tokens))

    def through_split(tok):
        return num.total_sum(num.mul(enc.suffix(prefix, tok), weights))

    def whole(tok):
        return num.total_sum(num.mul(enc.encode_batch(imgs, tok), weights))

    split_res = num.value_and_gradient(through_split, tokens)
    whole_res = num.value_and_gradient(whole, tokens)
    assert split_res.value == whole_res.value
    assert np.array_equal(split_res.gradient, whole_res.gradient)


def _oracle_vit(insertion):
    # H != W, a non-square grid and patch length (8) != D (6), so a
    # transposed grid or a mixed-up axis anywhere changes the features
    return ToyViTEncoder(image_shape=(2, 4, 6), dim=6, insertion_layer=insertion, seed=8)


def _unfolded_features(enc, imgs, tokens):
    return naive_vit_encoder(
        imgs, enc.w_embed, enc.blocks, tokens, enc.grid, enc.insertion_layer
    )


@pytest.mark.parametrize("insertion", range(4))
def test_vit_encode_batch_matches_unfolded_oracle(insertion):
    # the package runs each block through folded weights; the oracle runs
    # the seeded ones with explicit centring, q/k/v, scale and wo
    enc = _oracle_vit(insertion)
    rng = np.random.default_rng(13)
    imgs = rng.normal(size=(3,) + enc.image_shape)
    tokens = rng.normal(0.0, 0.5, enc.adapter_shape)
    got = num.value_of(enc.encode_batch(imgs, tokens))
    assert got.shape == (3, enc.dim)
    assert rel_err(got, _unfolded_features(enc, imgs, tokens)) <= 1e-12


@pytest.mark.parametrize("insertion", range(4))
def test_folded_suffix_gradient_matches_unfolded_oracle(insertion):
    enc = _oracle_vit(insertion)
    rng = np.random.default_rng(14)
    imgs = rng.normal(size=(2,) + enc.image_shape)
    weights = rng.normal(size=(2, enc.dim))
    tokens0 = rng.normal(0.0, 0.3, enc.adapter_shape)
    prefix = enc.prefix(imgs)

    def folded(tok):
        return num.total_sum(num.mul(enc.suffix(prefix, tok), weights))

    def unfolded(tok):
        return float((_unfolded_features(enc, imgs, tok) * weights).sum())

    analytic = num.value_and_gradient(folded, tokens0).gradient
    fd = num.finite_difference_gradient(unfolded, tokens0)
    assert rel_err(analytic, fd) <= gc.TOLERANCE
    assert np.abs(analytic).max() > 1e-6  # not vacuous


def test_folded_weights_are_read_only():
    enc = ToyViTEncoder()
    assert len(enc.folded_blocks) == enc.num_blocks
    for blk in enc.folded_blocks:
        for arr in blk.values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


def test_vit_checksum_hashes_only_the_seeded_weights():
    # the digest the seeded weights had before the folded copies existed
    assert ToyViTEncoder(seed=0).weights_checksum() == (
        "a0ab6c252c865d43de0b1af320c0c601435f9e256adcbc08ee807d8f2c6283fa"
    )


@pytest.mark.parametrize("insertion", range(4))
def test_vit_suffix_has_eleven_tape_nodes_per_block(insertion):
    enc = _make_encoder("vit", insertion)
    rng = np.random.default_rng(6)
    prefix = enc.prefix(rng.normal(size=(2,) + enc.image_shape))
    tokens = rng.normal(0.0, 0.2, enc.adapter_shape)
    nodes = num._toposort(enc.suffix(prefix, num.leaf(tokens))._edges)
    # the token leaf, the adapter add and the mean pool, then 11 per block
    assert len(nodes) == 3 + 11 * (enc.num_blocks - insertion)


def test_conv_suffix_has_eleven_tape_nodes():
    enc = ToyConvEncoder()
    rng = np.random.default_rng(6)
    prefix = enc.prefix(rng.normal(size=(2,) + enc.image_shape))
    tokens = rng.normal(0.0, 0.2, enc.adapter_shape)
    nodes = num._toposort(enc.suffix(prefix, num.leaf(tokens))._edges)
    # the token leaf, the tile and the adapter add, two convs, three tanh,
    # two mean pools and the transpose
    assert len(nodes) == 11


def _suffix_at_batch_64(family):
    enc = ToyConvEncoder() if family == "conv" else ToyViTEncoder()
    rng = np.random.default_rng(6)
    prefix = enc.prefix(rng.normal(size=(64,) + enc.image_shape))
    return enc, prefix, rng.normal(0.0, 0.2, enc.adapter_shape)


# what the VJPs of one B=64 suffix read. conv: the three (16, 8, 8, 64)
# tanh outputs, 512 KiB each. vit, per block: four (64, 16, 16) values of
# 128 KiB (the block's input, its product with qk, the softmax and the
# product with vo) and the (64, 16, 32) tanh output of 256 KiB.
@pytest.mark.parametrize(
    "family,read",
    [pytest.param("conv", 3 * 524_288, id="conv"), pytest.param("vit", 3 * 786_432, id="vit")],
)
def test_suffix_tape_holds_only_what_vjps_read_at_batch_64(family, read):
    # with the root held after the forward pass, the tape may hold the
    # values above plus 64 KiB: the root's 8 KiB and the tape's own
    # objects fit, but no other (B, ...) value of the suffix does, such as
    # the conv adapter add, a conv output, the conv W-mean (64 KiB) or a
    # vit MLP matmul output
    enc, prefix, tokens = _suffix_at_batch_64(family)
    leaf = num.leaf(tokens)
    collect_garbage()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        root = enc.suffix(prefix, leaf)
        collect_garbage()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert num.value_of(root).shape == (64, enc.dim)
    assert read <= held <= read + 65_536


@pytest.mark.parametrize("family", ["conv", "vit"])
def test_suffix_frees_values_no_vjp_reads(monkeypatch, family):
    # conv: the adapter add and the two convs each feed only a tanh, whose
    # VJP reads its own output. vit: each MLP matmul feeds only a tanh or
    # the residual add, whose VJP reads a shape. With the root held, none
    # of these values may outlive the forward pass, and freeing them must
    # leave every bit of the gradient as it is when they are kept.
    enc, prefix, tokens = _suffix_at_batch_64(family)
    made = []

    def watch(module, name, pick=lambda *args: True):
        fn = getattr(module, name)

        def watched(*args):
            out = fn(*args)
            if pick(*args):
                made.append(out)
            return out

        monkeypatch.setattr(module, name, watched)

    if family == "conv":
        watch(num, "add")
        watch(encoders, "_conv3x3_same")
    else:
        mlp = [blk[k] for blk in enc.folded_blocks for k in ("w1c", "w2")]
        watch(num, "matmul", lambda a, b: any(b is w for w in mlp))
    leaf = num.leaf(tokens)
    kept = num.gradient(enc.suffix(prefix, leaf), leaf)  # `made` holds them
    made.clear()
    root = enc.suffix(prefix, leaf)
    refs = [weakref.ref(var.value) for var in made]
    made.clear()
    collect_garbage()
    assert len(refs) == (3 if family == "conv" else 6)
    assert all(ref() is None for ref in refs)
    assert np.array_equal(num.gradient(root, leaf), kept)


def test_prefix_rejects_nonfinite_images():
    for enc in _split_cells():
        imgs = _test_image((2,) + enc.image_shape)
        imgs[1, 0, 0, 0] = np.inf
        with pytest.raises(NumericError):
            enc.prefix(imgs)


class TestCategoryMatrix:
    def test_orthonormal_two_by_two(self):
        emb = embed_categories(2, 2, seed=0)
        gram = emb @ emb.T
        assert abs(gram[0, 1]) < 1e-9
        assert np.allclose(np.diag(gram), 1.0, atol=1e-12)

    def test_rows_unit_norm(self):
        emb = embed_categories(4, 16, seed=3)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)

    def test_deterministic_in_seed(self):
        a = embed_categories(3, 8, seed=9)
        b = embed_categories(3, 8, seed=9)
        assert np.array_equal(a, b)

    def test_too_many_categories(self):
        with pytest.raises(ConfigError):
            embed_categories(5, 4)

    def test_too_few_categories(self):
        with pytest.raises(ConfigError):
            embed_categories(1, 4)

    def test_matrix_immutable(self):
        emb = embed_categories(2, 4)
        with pytest.raises(ValueError):
            emb[0, 0] = 2.0

    def test_golden_matrix(self):
        g = load_golden("categories_golden.json")
        emb = embed_categories(4, 16, seed=0)
        np.testing.assert_allclose(emb, g["matrix"], rtol=0, atol=1e-10)

    def test_round_trip(self, tmp_path):
        emb = embed_categories(3, 8, seed=1)
        f1 = tmp_path / "a.emb"
        save_embeddings(emb, f1)
        loaded = load_embeddings(f1)
        assert np.allclose(loaded, emb, atol=1e-6)
        assert np.allclose(np.linalg.norm(loaded, axis=1), 1.0, atol=1e-12)
        assert loaded.dtype == np.float64 and not loaded.flags.writeable

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "bad.emb"
        f.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="byte 0"):
            load_embeddings(f)

    def test_truncated_header(self, tmp_path):
        f = tmp_path / "short.emb"
        f.write_bytes(b"SSAMEMB1\x02\x00")
        with pytest.raises(FormatError, match="byte 10"):
            load_embeddings(f)

    def test_payload_size_mismatch(self, tmp_path):
        f = tmp_path / "trunc.emb"
        emb = embed_categories(3, 8, seed=1)
        save_embeddings(emb, f)
        f.write_bytes(f.read_bytes()[:-4])
        with pytest.raises(FormatError, match="expected"):
            load_embeddings(f)

    def test_nonfinite_payload_names_offset(self, tmp_path):
        import struct

        f = tmp_path / "nan.emb"
        payload = np.ones((2, 2), dtype="<f4")
        payload[1, 0] = np.nan  # flat index 2 -> byte 16 + 8
        f.write_bytes(b"SSAMEMB1" + struct.pack("<II", 2, 2) + payload.tobytes())
        with pytest.raises(FormatError, match="byte 24"):
            load_embeddings(f)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError, match="^category row 1 has near-zero norm$"):
            category_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "rows, error",
        [
            (np.ones(4), DimensionError),
            (np.ones((1, 4)), ConfigError),
            (np.array([[1.0, np.nan], [0.0, 1.0]]), NumericError),
            # finite, but the norm overflows: the row would scale to zeros
            (np.array([[1e200, 0.0], [0.0, 1.0]]), NumericError),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_bad_rows_rejected(self, rows, error):
        with pytest.raises(error):
            category_matrix(rows)

    def test_rows_scaled_to_unit_norm_without_touching_the_input(self):
        rows = np.array([[3.0, 4.0], [0.0, -2.0]])
        t = category_matrix(rows)
        np.testing.assert_array_equal(t, [[0.6, 0.8], [0.0, -1.0]])
        assert rows.flags.writeable and rows[0, 0] == 3.0

    @pytest.mark.parametrize("row", [0, 2])
    def test_zero_norm_payload_row_names_offset(self, tmp_path, row):
        import struct

        m, d = 3, 5
        f = tmp_path / "zero.emb"
        payload = np.ones((m, d), dtype="<f4")
        payload[row] = 0.0
        f.write_bytes(b"SSAMEMB1" + struct.pack("<II", m, d) + payload.tobytes())
        offset = 16 + 4 * row * d
        with pytest.raises(FormatError, match=f"row {row} has near-zero norm at byte {offset}$"):
            load_embeddings(f)

    @pytest.mark.parametrize("m, d, offset", [(1, 0, 8), (2, 0, 12)])
    def test_header_checked_in_byte_order(self, tmp_path, m, d, offset):
        # M at byte 8 is checked before D at byte 12; the file holds no rows,
        # as its header says, so only a header check can reject it
        import struct

        f = tmp_path / "header.emb"
        f.write_bytes(b"SSAMEMB1" + struct.pack("<II", m, d))
        with pytest.raises(FormatError, match=f"at byte {offset}$"):
            load_embeddings(f)

    def test_header_damage_fitting_a_truncation_rejected(self, tmp_path):
        # feature dim 3 -> 1 (one bit at byte 12) and the file cut to 2 x 1
        # floats: the sizes agree, but the rows are no longer unit vectors
        f = tmp_path / "cut.emb"
        save_embeddings(embed_categories(2, 3, seed=1), f)
        blob = bytearray(f.read_bytes())
        blob[12] ^= 0b10
        f.write_bytes(bytes(blob[:24]))
        with pytest.raises(FormatError, match=r"row \d has norm .*, not 1, at byte"):
            load_embeddings(f)


def _small_emb_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "small.emb"
        save_embeddings(embed_categories(2, 3, seed=1), p)
        return p.read_bytes()


def _load_emb_bytes(blob):
    """Load ``blob`` as an .emb file; None when it is rejected, which must
    be a FormatError naming a byte offset."""
    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "fuzzed.emb"
        p.write_bytes(bytes(blob))
        try:
            return load_embeddings(p)
        except FormatError as exc:
            assert "byte" in str(exc)
            return None


def test_emb_load_every_truncation_and_bit_flip_fails_with_a_byte_offset():
    good = _small_emb_bytes()
    for what, blob in truncations_and_bit_flips(good):
        emb = _load_emb_bytes(blob)
        if len(blob) < len(good):
            assert emb is None, what
        elif emb is not None:  # only a flip inside the payload can still load
            assert blob[:16] == good[:16] and emb.shape == (2, 3), what


@settings(max_examples=300, deadline=None)
@given(
    flips=st.lists(st.integers(0, 8 * 40 - 1), min_size=1, max_size=4),
    length=st.one_of(st.none(), st.integers(0, 39)),
)
def test_emb_load_fuzz_fails_only_with_a_byte_offset(flips, length):
    blob = bytearray(_small_emb_bytes())  # 16-byte header + 2 x 3 float32
    for bit in flips:
        blob[bit // 8] ^= 1 << (bit % 8)
    emb = _load_emb_bytes(blob if length is None else blob[:length])
    if emb is not None:
        assert length is None and emb.shape == (2, 3)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0)


class TestAdapterParams:
    """The adapter parameters are a plain (N, D) token array; a 1-D one
    holding the right number of values is still a shape error."""

    def test_shape_guard(self):
        with pytest.raises(DimensionError):
            apply_adapter_vit(np.zeros((4, 3)), np.zeros(12))
        with pytest.raises(DimensionError):
            apply_adapter_conv(np.zeros((3, 4, 4, 1)), np.zeros(12))
        for enc in (ToyViTEncoder(), ToyConvEncoder()):
            with pytest.raises(DimensionError):
                enc.encode_batch(_test_image()[None], np.zeros(enc.adapter_shape).ravel())


@pytest.mark.parametrize("family", ["vit", "conv"])
class TestAdapterTokens:
    ENCODERS = {"vit": ToyViTEncoder, "conv": ToyConvEncoder}
    # the first tape node the tokens enter: the vit add, the conv tiling
    ENTRY_OP = {"vit": "add", "conv": "tile_tokens"}

    def test_nonfinite_token_rejected(self, family):
        enc = self.ENCODERS[family]()
        tokens = enc.new_adapter()
        tokens[3, 1] = np.inf
        with pytest.raises(NumericError, match=f"^{self.ENTRY_OP[family]} produced"):
            enc.encode_batch(_test_image()[None], tokens)

    def test_new_adapter_is_float64_zeros(self, family):
        enc = self.ENCODERS[family]()
        a = enc.new_adapter()
        assert type(a) is np.ndarray and a.dtype == np.float64
        assert a.shape == enc.adapter_shape
        assert not a.any()
