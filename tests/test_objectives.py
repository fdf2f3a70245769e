"""Tests for the reconstruction, alignment, entropy, and combined losses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssam.numerics as num
from ssam.association import association_map, estimate_prototypes
from ssam.bench import gradcheck as gc
from ssam.encoders import ToyConvEncoder, ToyViTEncoder, embed_categories
from ssam.errors import ConfigError, DimensionError
from ssam.objectives import (
    loss_ca,
    loss_entropy,
    loss_pir,
    reconstruct,
    total_objective,
)

from oracles import (
    naive_association,
    naive_loss_ca,
    naive_loss_entropy,
    naive_loss_pir,
    naive_prototypes,
    naive_reconstruction,
    rel_err,
)

# hand values frozen from the defining formulas
LOG1P_EXP_NEG1 = math.log(1.0 + math.exp(-1.0))  # 0.3132616875182228
ENT_75_25 = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))  # 0.5623351446188084


def _softmax_rows(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestReconstruct:
    def test_saturated_row_selects_prototype(self):
        a = _softmax_rows(30.0 * np.eye(2))
        p = np.random.default_rng(0).normal(size=(2, 5))
        v_hat = num.value_of(reconstruct(a, p))
        assert np.allclose(v_hat, p, atol=1e-10)

    def test_uniform_row_gives_prototype_mean(self):
        p = np.arange(6.0).reshape(3, 2)
        v_hat = num.value_of(reconstruct(np.full((1, 3), 1.0 / 3.0), p))
        assert np.allclose(v_hat[0], p.mean(axis=0), atol=1e-12)

    def test_equal_prototypes_dominate(self):
        rows = _softmax_rows(np.random.default_rng(2).normal(size=(4, 3)))
        p_star = np.array([1.5, -2.0])
        p = np.tile(p_star, (3, 1))
        v_hat = num.value_of(reconstruct(rows, p))
        assert np.allclose(v_hat, np.tile(p_star, (4, 1)), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            reconstruct(np.full((2, 3), 1.0 / 3.0), np.zeros((2, 4)))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(9)
        norm = _softmax_rows(rng.normal(size=(4, 3)))
        p = rng.normal(size=(3, 5))
        mine = num.value_of(reconstruct(norm, p))
        assert np.abs(mine - naive_reconstruction(norm, p)).max() <= 1e-12


class TestLossPir:
    def test_zero_on_equal(self):
        v = np.random.default_rng(0).normal(size=(3, 4))
        assert float(num.value_of(loss_pir(v, v))) == 0.0

    def test_three_four_five(self):
        out = loss_pir(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))
        assert float(num.value_of(out)) == pytest.approx(25.0, abs=1e-12)

    def test_mean_reduction(self):
        v_hat = np.array([[math.sqrt(2.0), 0.0], [2.0, 0.0]])
        v = np.zeros((2, 2))
        assert float(num.value_of(loss_pir(v_hat, v))) == pytest.approx(3.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            loss_pir(np.zeros((2, 3)), np.zeros((3, 2)))


class TestLossCa:
    def test_orthonormal_hand_value(self):
        eye = np.eye(2)
        out = float(num.value_of(loss_ca(eye, eye)))
        assert out == pytest.approx(LOG1P_EXP_NEG1, abs=1e-12)
        assert out == pytest.approx(0.31326, abs=1e-5)

    def test_identical_rows_give_log_m(self):
        row = np.array([0.6, 0.8])
        p = np.tile(row, (3, 1))
        out = float(num.value_of(loss_ca(p, p)))
        assert out == pytest.approx(math.log(3.0), abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        p, t = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        a = float(num.value_of(loss_ca(p, t)))
        b = float(num.value_of(loss_ca(t, p)))
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(5)
        p, t = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        mine = float(num.value_of(loss_ca(p, t)))
        assert mine == pytest.approx(naive_loss_ca(p, t), abs=1e-12)

    def test_single_category_rejected(self):
        with pytest.raises(ConfigError):
            loss_ca(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))

    def test_prototype_and_category_counts_must_match(self):
        with pytest.raises(DimensionError, match="3 prototypes vs 2 categories"):
            loss_ca(np.eye(3, 4), np.eye(2, 4))


class TestLossEntropy:
    def test_one_hot_rows(self):
        assert float(num.value_of(loss_entropy(np.eye(3)))) == 0.0

    def test_uniform_rows(self):
        out = float(num.value_of(loss_entropy(np.full((2, 4), 0.25))))
        assert out == pytest.approx(math.log(4.0), abs=1e-12)

    def test_hand_value_75_25(self):
        out = float(num.value_of(loss_entropy(np.array([[0.75, 0.25]]))))
        assert out == pytest.approx(ENT_75_25, abs=1e-12)
        assert out == pytest.approx(0.56234, abs=1e-5)

    def test_matches_naive(self):
        norm = _softmax_rows(np.random.default_rng(7).normal(size=(5, 3)))
        mine = float(num.value_of(loss_entropy(norm)))
        assert mine == pytest.approx(naive_loss_entropy(norm), abs=1e-12)


class TestTotalObjective:
    def test_zero_weights_give_entropy_exactly(self):
        rng = np.random.default_rng(8)
        v, t = rng.normal(size=(4, 6)), rng.normal(size=(3, 6))
        total, bd = total_objective(v, t, alpha=0.0, beta=0.0)
        assert bd.total == bd.l_ent  # bit-identical, terms skipped not zeroed
        assert bd.total == float(num.value_of(loss_entropy(association_map(v, t))))
        assert float(num.value_of(total)) == bd.total

    def test_weighted_identity(self):
        rng = np.random.default_rng(9)
        v, t = rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
        _, bd = total_objective(v, t, alpha=0.7, beta=1.3)
        assert bd.total == pytest.approx(
            bd.l_ent + 0.7 * bd.l_pir + 1.3 * bd.l_ca, abs=1e-12
        )

    def test_doubling_alpha_adds_l_pir(self):
        rng = np.random.default_rng(10)
        v, t = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        _, one = total_objective(v, t, alpha=1.0, beta=1.0)
        _, two = total_objective(v, t, alpha=2.0, beta=1.0)
        assert two.total - one.total == pytest.approx(one.l_pir, abs=1e-12)

    def test_hand_composed_identity_instance(self):
        eye = np.eye(2)
        _, bd = total_objective(eye, eye, alpha=1.0, beta=1.0)
        raw_ref, norm_ref = naive_association(eye, eye)
        p_ref, _ = naive_prototypes(norm_ref, eye)
        vhat_ref = naive_reconstruction(norm_ref, p_ref)
        want = (
            naive_loss_entropy(norm_ref)
            + naive_loss_pir(vhat_ref, eye)
            + naive_loss_ca(p_ref, eye)
        )
        assert bd.total == pytest.approx(want, abs=1e-12)
        assert bd.l_ent == pytest.approx(naive_loss_entropy(norm_ref), abs=1e-12)
        assert bd.l_pir == pytest.approx(naive_loss_pir(vhat_ref, eye), abs=1e-12)
        assert bd.l_ca == pytest.approx(naive_loss_ca(p_ref, eye), abs=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            total_objective(np.eye(2), np.eye(2), alpha=-0.1, beta=1.0)
        for alpha, beta in ((float("nan"), 1.0), (1.0, float("inf"))):
            with pytest.raises(ConfigError, match="finite and >= 0"):
                total_objective(np.eye(2), np.eye(2), alpha=alpha, beta=beta)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 6))
    def test_component_bounds(self, seed, m, b):
        rng = np.random.default_rng(seed)
        d = m + 2
        v = rng.normal(size=(b, d))
        t = rng.normal(size=(m, d))
        _, bd = total_objective(v, t)
        assert 0.0 <= bd.l_ent <= math.log(m) + 1e-9
        assert bd.l_pir >= 0.0
        assert bd.l_ca >= 0.0

    def test_self_consistency_saturated(self):
        emb = embed_categories(4, 8, seed=0)
        v = emb.copy()
        norm = _softmax_rows(30.0 * np.eye(4))
        v_hat = reconstruct(norm, estimate_prototypes(norm, v))
        assert float(num.value_of(loss_pir(v_hat, v))) < 1e-10
        assert np.array_equal(norm.argmax(axis=1), np.arange(4))

    def test_one_hot_row_minimizer_is_nearest_prototype(self):
        rng = np.random.default_rng(11)
        for m in (2, 4, 8):
            p = rng.normal(size=(m, 5))
            v_i = rng.normal(size=(1, 5))
            losses = []
            for k in range(m):
                row = np.zeros((1, m))
                row[0, k] = 1.0
                v_hat = reconstruct(row, p)
                losses.append(float(num.value_of(loss_pir(v_hat, v_i))))
            nearest = int(np.linalg.norm(p - v_i, axis=1).argmin())
            assert int(np.argmin(losses)) == nearest


@pytest.mark.parametrize("family", ["vit", "conv"])
@pytest.mark.parametrize("kind", ["ent", "pir", "ca", "total"])
def test_loss_gradients_match_finite_differences(family, kind):
    if family == "vit":
        enc = ToyViTEncoder(image_shape=(3, 4, 4), dim=8, seed=1)
    else:
        enc = ToyConvEncoder(image_shape=(3, 4, 4), dim=8, seed=1)
    rng = np.random.default_rng(17)
    imgs = rng.normal(size=(4,) + enc.image_shape)
    t = embed_categories(3, 8, seed=5)
    tokens0 = rng.normal(0.0, 0.2, enc.adapter_shape)
    f = gc._component_closure(kind, enc, imgs, t)
    _, analytic = num.value_and_gradient(f, tokens0)
    fd = num.finite_difference_gradient(f, tokens0)
    assert rel_err(analytic, fd) <= 1e-4
    assert np.abs(analytic).max() > 1e-9
