"""Tests for the frozen toy encoders, adapters, and category embeddings."""

import json
import pathlib

import numpy as np
import pytest

import ssam.numerics as num
from ssam import encoders
from ssam.encoders import (
    AdapterParams,
    CategoryEmbeddings,
    ToyConvEncoder,
    ToyViTEncoder,
    apply_adapter_conv,
    apply_adapter_vit,
    embed_categories,
    tile_tokens,
)
from ssam.errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    NumericError,
)

from oracles import naive_conv3x3_same, naive_conv3x3_same_vjp, rel_err

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _load_golden(name):
    with open(GOLDEN_DIR / name) as fh:
        return json.load(fh)


class TestPatchLayout:
    def test_top_left_block_first(self):
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        enc = ToyViTEncoder(image_shape=(1, 4, 4), patch_grid=(2, 2), dim=4)
        blocks = enc.extract_patch_blocks(img)
        assert blocks.shape == (4, 4)
        assert np.array_equal(blocks[0], [0.0, 1.0, 4.0, 5.0])
        assert np.array_equal(blocks[1], [2.0, 3.0, 6.0, 7.0])  # row-major order
        assert np.array_equal(blocks[3], [10.0, 11.0, 14.0, 15.0])

    def test_constant_image_gives_identical_embeddings(self):
        enc = ToyViTEncoder(image_shape=(3, 8, 8), patch_grid=(4, 4))
        p = enc.patchify(np.full((3, 8, 8), 0.7))
        assert p.shape == (16, 16)
        assert np.allclose(p, p[0], atol=1e-12)

    def test_patchify_is_blocks_times_embedding(self):
        enc = ToyViTEncoder(image_shape=(3, 8, 8), patch_grid=(2, 2))
        img = np.random.default_rng(3).normal(size=(3, 8, 8))
        assert np.allclose(
            enc.patchify(img), enc.extract_patch_blocks(img) @ enc.w_embed
        )

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ConfigError):
            ToyViTEncoder(image_shape=(3, 7, 8), patch_grid=(2, 2))

    def test_golden_patch_embeddings(self):
        g = _load_golden("encoders_golden.json")
        enc = ToyViTEncoder(seed=0)
        img = np.array(g["image"])
        np.testing.assert_allclose(
            enc.patchify(img), g["vit_patch_embeddings"], rtol=0, atol=1e-10
        )


class TestAdapterVit:
    def test_zero_adapter_is_identity(self):
        p = np.random.default_rng(0).normal(size=(4, 3))
        out = apply_adapter_vit(p, AdapterParams.zeros(4, 3))
        assert np.array_equal(out, p)

    def test_zero_patches_pass_tokens_through(self):
        a = np.eye(3)
        out = apply_adapter_vit(np.zeros((3, 3)), AdapterParams(a))
        assert np.array_equal(out, a)

    def test_elementwise_add(self):
        out = apply_adapter_vit(np.array([[1.0, 1.0]]), np.array([[2.0, 3.0]]))
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_count_mismatch(self):
        with pytest.raises(DimensionError):
            apply_adapter_vit(np.zeros((4, 3)), AdapterParams.zeros(5, 3))

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
        f = np.random.default_rng(1).normal(size=(3, 4, 4))
        out = apply_adapter_conv(f, AdapterParams.zeros(4, 3), s=2)
        assert np.array_equal(out, f)

    def test_single_token_fills_everything(self):
        t = np.array([[1.0, 2.0, 3.0]])
        out = apply_adapter_conv(np.zeros((3, 2, 2)), AdapterParams(t), s=2)
        for c in range(3):
            assert np.all(out[c] == t[0, c])

    def test_quadrant_layout(self):
        tokens = np.arange(1.0, 5.0)[:, None]  # 4 tokens, 1 channel
        out = apply_adapter_conv(np.zeros((1, 4, 4)), AdapterParams(tokens), s=2)
        assert np.all(out[0, :2, :2] == 1.0)
        assert np.all(out[0, :2, 2:] == 2.0)
        assert np.all(out[0, 2:, :2] == 3.0)
        assert np.all(out[0, 2:, 2:] == 4.0)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            apply_adapter_conv(np.zeros((1, 5, 4)), AdapterParams.zeros(4, 1), s=2)

    def test_tiling_partitions_the_map(self):
        # give every token a distinct constant value; each spatial position
        # must then carry exactly one token id, s*s positions per token
        gh, gw, s, d = 3, 2, 2, 4
        ids = np.arange(1.0, gh * gw + 1.0)
        tokens = np.repeat(ids[:, None], d, axis=1)
        tiled = num.value_of(tile_tokens(tokens, (gh, gw), s))
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
        v1 = enc.encode(img, a)
        v2 = enc.encode(img, a)
        assert np.array_equal(v1, v2)

    def test_zero_adapter_insertion_position_irrelevant(self):
        img = _test_image()
        v_first = ToyViTEncoder(insertion_layer=0).encode(img, AdapterParams.zeros(16, 16))
        v_last = ToyViTEncoder(insertion_layer=3).encode(img, AdapterParams.zeros(16, 16))
        assert np.array_equal(v_first, v_last)

    def test_single_matches_batch_row(self):
        for enc in (ToyViTEncoder(), ToyConvEncoder()):
            imgs = _test_image((5,) + enc.image_shape)
            tokens = np.random.default_rng(8).normal(0.0, 0.1, enc.adapter_shape)
            batch = enc.encode_batch(imgs, tokens)
            single = enc.encode(imgs[2], tokens)
            assert np.allclose(single, batch[2], atol=1e-12)

    def test_adapter_shape_mismatch(self):
        for enc in (ToyViTEncoder(), ToyConvEncoder()):
            with pytest.raises(DimensionError):
                enc.encode(_test_image(), AdapterParams.zeros(4, 16))

    def test_bad_image_shape(self):
        enc = ToyConvEncoder()
        with pytest.raises(DimensionError):
            enc.encode(np.zeros((3, 4, 4)), enc.new_adapter())

    def test_nonfinite_image_rejected(self):
        enc = ToyViTEncoder()
        img = _test_image()
        img[0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            enc.encode(img, enc.new_adapter())

    def test_insertion_layer_out_of_range(self):
        with pytest.raises(ConfigError):
            ToyViTEncoder(num_blocks=3, insertion_layer=4)

    def test_golden_features(self):
        g = _load_golden("encoders_golden.json")
        img = np.array(g["image"])
        tokens = np.array(g["adapter_tokens"])
        vit = ToyViTEncoder(seed=0).encode(img, tokens)
        conv = ToyConvEncoder(seed=0).encode(img, tokens)
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
            image_shape=(3, 4, 4), patch_grid=(2, 2), dim=8,
            num_blocks=3, insertion_layer=insertion, seed=4,
        )
    return ToyConvEncoder(image_shape=(3, 4, 4), dim=8, patch_side=2, seed=4)


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
    # spatial grid cannot pass; B = 1 catches a batch axis folded wrongly
    rng = np.random.default_rng(17)
    x = rng.normal(size=shape)
    w = rng.normal(size=(dout, shape[1], 3, 3))
    out = encoders._conv3x3_same(num.leaf(x), w)
    assert rel_err(num.value_of(out), naive_conv3x3_same(x, w)) <= 1e-12
    g = rng.normal(size=out.shape)
    ((_, vjp),) = out._edges
    gx = vjp(g)
    assert gx.shape == x.shape
    assert rel_err(gx, naive_conv3x3_same_vjp(g, w, x.shape)) <= 1e-12
    # the backward is the adjoint of the forward: <conv(x), g> == <x, vjp(g)>
    lhs, rhs = float((num.value_of(out) * g).sum()), float((x * gx).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def _split_cells():
    for il in range(4):
        yield ToyViTEncoder(
            image_shape=(3, 4, 4), patch_grid=(2, 2), dim=8,
            num_blocks=3, insertion_layer=il, seed=4,
        )
    yield ToyConvEncoder(image_shape=(3, 4, 4), dim=8, patch_side=2, seed=4)


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


@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 9, 13), (1, 3, 1)], ids=str)
def test_center_last_is_bit_identical_to_ndarray_mean(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(0.0, 2.0, shape) + 50.0
    g = rng.normal(0.0, 1.0, shape)
    node = encoders._center_last(num.leaf(x))
    want = x - x.mean(axis=-1, keepdims=True)
    assert node.value.tobytes() == want.tobytes()
    (_, vjp), = node._edges
    assert vjp(g).tobytes() == (g - g.mean(axis=-1, keepdims=True)).tobytes()
    assert encoders._center_last(x).tobytes() == want.tobytes()


def test_prefix_rejects_nonfinite_images():
    for enc in _split_cells():
        imgs = _test_image((2,) + enc.image_shape)
        imgs[1, 0, 0, 0] = np.inf
        with pytest.raises(NumericError):
            enc.prefix(imgs)


class TestCategoryEmbeddings:
    def test_orthonormal_two_by_two(self):
        emb = embed_categories(2, 2, seed=0)
        gram = emb.matrix @ emb.matrix.T
        assert abs(gram[0, 1]) < 1e-9
        assert np.allclose(np.diag(gram), 1.0, atol=1e-12)

    def test_rows_unit_norm(self):
        emb = embed_categories(4, 16, seed=3)
        assert np.allclose(np.linalg.norm(emb.matrix, axis=1), 1.0, atol=1e-12)

    def test_deterministic_in_seed(self):
        a = embed_categories(3, 8, seed=9).matrix
        b = embed_categories(3, 8, seed=9).matrix
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
            emb.matrix[0, 0] = 2.0

    def test_array_protocol(self):
        emb = embed_categories(3, 8, seed=1)
        assert np.shares_memory(np.asarray(emb), emb.matrix)
        # numpy 1.x calls __array__() or __array__(dtype), never with copy.
        assert emb.__array__() is emb.matrix
        f32 = emb.__array__(np.float32)
        assert f32.dtype == np.float32 and np.allclose(f32, emb.matrix, atol=1e-7)
        fresh = emb.__array__(copy=True)
        assert not np.shares_memory(fresh, emb.matrix)
        fresh[0, 0] = 2.0
        assert emb.matrix[0, 0] != 2.0
        np.testing.assert_array_equal(num.value_of(emb), emb.matrix)

    def test_golden_matrix(self):
        g = _load_golden("categories_golden.json")
        emb = embed_categories(4, 16, seed=0)
        np.testing.assert_allclose(emb.matrix, g["matrix"], rtol=0, atol=1e-10)

    def test_round_trip(self, tmp_path):
        emb = embed_categories(3, 8, seed=1)
        f1 = tmp_path / "a.emb"
        emb.save(f1)
        loaded = CategoryEmbeddings.load(f1)
        assert loaded.source == "loaded-from-file"
        assert np.allclose(loaded.matrix, emb.matrix, atol=1e-6)
        assert np.allclose(np.linalg.norm(loaded.matrix, axis=1), 1.0, atol=1e-12)
        # a loaded instance saves back byte for byte
        f2 = tmp_path / "b.emb"
        loaded.save(f2)
        assert f1.read_bytes() == f2.read_bytes()
        # and its reload reproduces the exact working matrix
        again = CategoryEmbeddings.load(f2)
        assert np.array_equal(again.matrix, loaded.matrix)

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "bad.emb"
        f.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="byte 0"):
            CategoryEmbeddings.load(f)

    def test_truncated_header(self, tmp_path):
        f = tmp_path / "short.emb"
        f.write_bytes(b"SSAMEMB1\x02\x00")
        with pytest.raises(FormatError, match="byte 10"):
            CategoryEmbeddings.load(f)

    def test_payload_size_mismatch(self, tmp_path):
        f = tmp_path / "trunc.emb"
        emb = embed_categories(3, 8, seed=1)
        emb.save(f)
        f.write_bytes(f.read_bytes()[:-4])
        with pytest.raises(FormatError, match="expected"):
            CategoryEmbeddings.load(f)

    def test_nonfinite_payload_names_offset(self, tmp_path):
        import struct

        f = tmp_path / "nan.emb"
        payload = np.ones((2, 2), dtype="<f4")
        payload[1, 0] = np.nan  # flat index 2 -> byte 16 + 8
        f.write_bytes(b"SSAMEMB1" + struct.pack("<II", 2, 2) + payload.tobytes())
        with pytest.raises(FormatError, match="byte 24"):
            CategoryEmbeddings.load(f)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            CategoryEmbeddings(np.array([[1.0, 0.0], [0.0, 0.0]]), source="test")

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
            CategoryEmbeddings.load(f)


class TestAdapterParams:
    def test_shape_guard(self):
        with pytest.raises(DimensionError):
            AdapterParams(np.zeros(4))

    def test_finiteness_guard(self):
        with pytest.raises(NumericError):
            AdapterParams(np.array([[np.inf, 0.0]]))

    def test_zeros_constructor(self):
        a = AdapterParams.zeros(3, 5)
        assert a.num_tokens == 3 and a.dim == 5
        assert not a.tokens.any()
