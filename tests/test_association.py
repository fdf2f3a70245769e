"""Tests for the association map and prototype estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssam.numerics as num
from ssam.association import association_map, estimate_prototypes
from ssam.encoders import embed_categories
from ssam.errors import DegenerateInputError, DimensionError

from oracles import naive_association, naive_prototypes

# softmax([1, 0]) by hand
P_HI = math.e / (1.0 + math.e)
P_LO = 1.0 / (1.0 + math.e)


class TestAssociationMap:
    def test_single_category(self):
        a = association_map(np.array([[3.0, 4.0]]), np.array([[1.0, 0.0]]))
        assert np.array_equal(num.value_of(a), [[1.0]])

    def test_identity_features_hand_values(self):
        eye = np.eye(2)
        assert np.allclose(num.value_of(num.cosine_similarity_matrix(eye, eye)), eye, atol=1e-12)
        a = num.value_of(association_map(eye, eye))
        expected = [[P_HI, P_LO], [P_LO, P_HI]]
        assert np.allclose(a, expected, atol=1e-12)
        # the printed four-digit figures
        assert np.allclose(a, [[0.7311, 0.2689], [0.2689, 0.7311]], atol=1e-4)

    def test_equidistant_row_is_uniform(self):
        v = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
        a = association_map(v, np.eye(2))
        assert np.allclose(num.value_of(a), [[0.5, 0.5]], atol=1e-12)

    def test_zero_norm_feature_rejected(self):
        with pytest.raises(DegenerateInputError):
            association_map(np.array([[0.0, 0.0]]), np.eye(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            association_map(np.ones((2, 3)), np.eye(2))

    def test_accepts_category_embeddings(self):
        emb = embed_categories(3, 8, seed=2)
        v = np.random.default_rng(0).normal(size=(4, 8))
        assert num.value_of(association_map(v, emb)).shape == (4, 3)

    def test_raw_entries_are_cosines(self):
        # the map is the row softmax of the cosine matrix, bit for bit
        rng = np.random.default_rng(5)
        v, t = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        raw = num.value_of(num.cosine_similarity_matrix(v, t))
        assert raw.min() >= -1.0 - 1e-12 and raw.max() <= 1.0 + 1e-12
        want = num.value_of(num.row_softmax(raw))
        assert np.array_equal(num.value_of(association_map(v, t)), want)


class TestPrototypes:
    def test_uniform_map_gives_batch_mean(self):
        v = np.random.default_rng(1).normal(size=(5, 3))
        p = estimate_prototypes(np.full((5, 4), 0.25), v)
        want = v.mean(axis=0)
        for row in num.value_of(p):
            assert np.allclose(row, want, atol=1e-12)

    def test_single_instance_dominates(self):
        v = np.array([[2.0, -1.0, 0.5]])
        p = estimate_prototypes(association_map(v, np.eye(3)), v)
        for row in num.value_of(p):
            assert np.allclose(row, v[0], atol=1e-12)

    def test_hand_case_identity_batch(self):
        eye = np.eye(2)
        a = association_map(eye, eye)
        p = num.value_of(estimate_prototypes(a, eye))
        assert np.allclose(p[0], [P_HI, P_LO], atol=1e-12)
        assert np.allclose(p[1], [P_LO, P_HI], atol=1e-12)
        # the column masses behind the convex weights
        assert np.allclose(num.value_of(a).sum(axis=0), [1.0, 1.0], atol=1e-12)

    def test_batch_size_mismatch(self):
        with pytest.raises(DimensionError):
            estimate_prototypes(np.full((3, 2), 0.5), np.ones((4, 2)))


def test_matches_naive_loops_on_small_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        b = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        v = rng.normal(size=(b, d))
        t = rng.normal(size=(m, d))
        a = association_map(v, t)
        raw_ref, norm_ref = naive_association(v, t)
        p_ref, mass_ref = naive_prototypes(norm_ref, v)
        assert np.abs(num.value_of(num.cosine_similarity_matrix(v, t)) - raw_ref).max() <= 1e-12
        assert np.abs(num.value_of(a) - norm_ref).max() <= 1e-12
        assert np.abs(num.value_of(estimate_prototypes(a, v)) - p_ref).max() <= 1e-12
        assert np.abs(num.value_of(a).sum(axis=0) - mass_ref).max() <= 1e-12


@st.composite
def _feature_instances(draw):
    b = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    d = draw(st.integers(2, 6))
    elems = st.floats(-5.0, 5.0)
    v = draw(
        st.lists(st.lists(elems, min_size=d, max_size=d), min_size=b, max_size=b)
    )
    t = draw(
        st.lists(st.lists(elems, min_size=d, max_size=d), min_size=m, max_size=m)
    )
    v, t = np.array(v), np.array(t)
    from hypothesis import assume

    assume(np.linalg.norm(v, axis=1).min() > 1e-3)
    assume(np.linalg.norm(t, axis=1).min() > 1e-3)
    return v, t


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(_feature_instances())
    def test_rows_stochastic(self, vt):
        v, t = vt
        norm = num.value_of(association_map(v, t))
        assert np.abs(norm.sum(axis=1) - 1.0).max() <= 1e-9
        assert norm.min() > 0.0 and norm.max() < 1.0 + 1e-15

    @settings(max_examples=80, deadline=None)
    @given(_feature_instances())
    def test_convex_hull_weights(self, vt):
        v, t = vt
        a = association_map(v, t)
        norm = num.value_of(a)
        mass = norm.sum(axis=0)
        assert mass.min() > 0.0
        weights = norm / mass  # column j / mass_j
        assert weights.min() >= 0.0
        assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-9
        p = num.value_of(estimate_prototypes(a, v))
        assert np.abs(p - weights.T @ v).max() <= 1e-9
        # prototypes inside the bounding box of the batch (hull necessary cond.)
        assert np.all(p <= v.max(axis=0) + 1e-9)
        assert np.all(p >= v.min(axis=0) - 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(_feature_instances(), st.sampled_from([1e-3, 0.5, 7.0, 1e3]))
    def test_argmax_scale_invariance(self, vt, c):
        v, t = vt
        base = num.value_of(association_map(v, t)).argmax(axis=1)
        scaled = num.value_of(association_map(c * v, t)).argmax(axis=1)
        assert np.array_equal(base, scaled)


def test_gradient_flows_through_prototypes():
    rng = np.random.default_rng(3)
    t = rng.normal(size=(3, 4))

    def objective(v):
        return num.squared_norm(estimate_prototypes(association_map(v, t), v))

    v0 = rng.normal(size=(5, 4))
    res = num.value_and_gradient(objective, v0)
    fd = num.finite_difference_gradient(objective, v0)
    assert np.abs(res.gradient - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())
    assert np.abs(res.gradient).max() > 1e-8
