import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ssam import numerics as num
from ssam.errors import DegenerateInputError, DimensionError, NumericError

from oracles import rel_err


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(num.matmul(np.eye(2), a), a)

    def test_projector(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        v = np.array([[5.0], [7.0]])
        assert np.array_equal(num.matmul(p, v), [[5.0], [0.0]])

    def test_hand_product(self):
        # [[1,2],[3,4]] x [[5,6],[7,8]]: row-by-column by hand
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(num.matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            num.matmul(np.ones((2, 3)), np.ones((2, 2)))

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            num.matmul(np.ones(3), np.ones((3, 2)))


class TestRowSoftmax:
    def test_symmetry(self):
        out = num.row_softmax(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_log_ratio(self):
        out = num.row_softmax(np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_large_magnitude_stable(self):
        out = num.row_softmax(np.array([[1000.0, 1000.0 + math.log(2.0)]]))
        assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            num.row_softmax(np.zeros((0, 3)))

    @settings(max_examples=200)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            # strict positivity in float64 needs the within-row spread below
            # ~745 (exp underflow); association logits are cosines in [-1, 1]
            # so the realistic domain is far inside this bound
            elements=st.floats(-300.0, 300.0),
        )
    )
    def test_rows_sum_to_one(self, m):
        out = num.row_softmax(m)
        assert np.all(out > 0.0) and np.all(out < 1.0 + 1e-15)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=100)
    @given(
        hnp.arrays(
            np.float64,
            (3, 4),
            elements=st.floats(-100.0, 100.0),
        ),
        hnp.arrays(np.float64, (3, 1), elements=st.floats(-500.0, 500.0)),
    )
    def test_per_row_shift_invariance(self, m, c):
        assert np.allclose(num.row_softmax(m), num.row_softmax(m + c), atol=1e-12)


class TestCosineSimilarity:
    def test_self(self):
        u = np.array([[1.0, 0.0]])
        assert np.allclose(num.cosine_similarity_matrix(u, u), [[1.0]])

    def test_orthogonal(self):
        out = num.cosine_similarity_matrix(
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        )
        assert np.allclose(out, [[0.0]])

    def test_antipodal(self):
        out = num.cosine_similarity_matrix(
            np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])
        )
        assert np.allclose(out, [[-1.0]])

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            num.cosine_similarity_matrix(
                np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])
            )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            num.cosine_similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_overflowing_norm_is_a_numeric_error(self, side):
        # the sum of squares overflows, so the row would scale to zeros and
        # read as orthogonal to everything; its true cosine here is 1
        big, unit = np.array([[1.0, 1.0], [1e200, 1e200]]), np.array([[1.0, 1.0]])
        u, v = (big, unit) if side == "u" else (unit, big)
        with pytest.raises(NumericError, match=f"^cosine_similarity_matrix: {side} row 1 "):
            num.cosine_similarity_matrix(u, v)

    @settings(max_examples=100)
    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        hnp.arrays(np.float64, (3, 4), elements=st.floats(-10.0, 10.0, exclude_min=False)),
        hnp.arrays(np.float64, (2, 4), elements=st.floats(-10.0, 10.0)),
    )
    def test_positive_scale_invariance(self, alpha, beta, u, v):
        if np.linalg.norm(u, axis=1).min() < 1e-6 or np.linalg.norm(v, axis=1).min() < 1e-6:
            return
        base = num.cosine_similarity_matrix(u, v)
        scaled = num.cosine_similarity_matrix(alpha * u, beta * v)
        assert np.all(np.abs(base) <= 1.0 + 1e-12)
        assert np.allclose(base, scaled, atol=1e-12)


class TestValueAndGradient:
    def test_quadratic(self):
        res = num.value_and_gradient(num.squared_norm, np.array([1.0, 2.0]))
        assert res.value == pytest.approx(5.0)
        assert np.allclose(res.gradient, [2.0, 4.0])

    def test_constant_objective(self):
        res = num.value_and_gradient(lambda x: 7.5, np.array([[1.0, 2.0]]))
        assert res.value == 7.5
        assert np.array_equal(res.gradient, np.zeros((1, 2)))

    def test_gradient_shape_matches_params(self):
        params = np.arange(6.0).reshape(2, 3) + 1.0
        res = num.value_and_gradient(lambda x: num.total_sum(num.log(x)), params)
        assert res.gradient.shape == params.shape

    def test_non_scalar_objective_rejected(self):
        with pytest.raises(DimensionError):
            num.value_and_gradient(lambda x: num.mul(x, 2.0), np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)], ids=str)
    def test_size_one_output_is_scalar(self, shape):
        res = num.value_and_gradient(_sum_of_squares_shaped(shape), np.array([1.0, 2.0]))
        assert type(res.value) is float and res.value == 5.0
        assert np.array_equal(res.gradient, [2.0, 4.0])
        res = num.value_and_gradient(lambda x: np.full(shape, 3.0), np.array([1.0, 2.0]))
        assert type(res.value) is float and res.value == 3.0
        assert np.array_equal(res.gradient, np.zeros(2))

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (0,)], ids=str)
    def test_non_scalar_output_names_shape(self, shape):
        for f in (_tiled_sum_shaped(shape), lambda x: np.ones(shape)):
            with pytest.raises(DimensionError, match=re.escape(f"got shape {shape}")):
                num.value_and_gradient(f, np.array([1.0, 2.0]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_gradient_of_a_finite_forward(self):
        # log(1e-320) is finite, but its VJP 1 / 1e-320 overflows
        with pytest.raises(NumericError, match="backward pass produced a non-finite gradient"):
            num.value_and_gradient(lambda x: num.total_sum(num.log(x)), np.array([1e-320]))

    def test_non_finite_intermediate_names_primitive(self):
        with pytest.raises(NumericError, match="log"):
            num.value_and_gradient(
                lambda x: num.total_sum(num.log(num.sub(x, 5.0))), np.ones((2, 2))
            )


class TestFiniteDifference:
    def test_square(self):
        g = num.finite_difference_gradient(num.squared_norm, np.array([3.0]))
        assert abs(g[0] - 6.0) < 1e-8

    def test_cubic(self):
        f = lambda x: num.total_sum(num.mul(num.mul(x, x), x))
        g = num.finite_difference_gradient(f, np.array([1.0]))
        assert abs(g[0] - 3.0) < 1e-7

    def test_non_finite_objective(self):
        with pytest.raises(NumericError):
            num.finite_difference_gradient(lambda x: float("nan"), np.ones(2))

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)], ids=str)
    def test_size_one_output_is_scalar(self, shape):
        g = num.finite_difference_gradient(_sum_of_squares_shaped(shape), np.array([1.0, 2.0]))
        assert np.allclose(g, [2.0, 4.0], atol=1e-8)

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (0,)], ids=str)
    def test_non_scalar_output_names_shape(self, shape):
        for f in (_tiled_sum_shaped(shape), lambda x: np.ones(shape)):
            with pytest.raises(DimensionError, match=re.escape(f"got shape {shape}")):
                num.finite_difference_gradient(f, np.array([1.0, 2.0]))


def _sum_of_squares_shaped(shape):
    """sum(x*x), reshaped to a size-1 ``shape``."""
    return lambda x: num.reshape(num.total_sum(num.mul(x, x)), shape)


def _tiled_sum_shaped(shape):
    """sum(x) copied into every entry of ``shape``."""
    return lambda x: num.mul(num.total_sum(x), np.ones(shape))


PRIMITIVE_OBJECTIVES = {
    "matmul": lambda x: num.squared_norm(num.matmul(x, np.arange(12.0).reshape(4, 3) / 7.0)),
    "matmul_batched_var": lambda x: num.squared_norm(
        num.matmul(num.reshape(x, (2, 2, 4)), np.arange(12.0).reshape(4, 3) / 7.0)
    ),
    # the constant's batch axis broadcasts x, so x's gradient sums over it
    "matmul_batched_const": lambda x: num.squared_norm(
        num.matmul(x, np.arange(24.0).reshape(2, 4, 3) / 11.0)
    ),
    "matmul_self_transpose": lambda x: num.squared_norm(
        num.matmul(num.reshape(x, (2, 2, 4)), num.transpose(num.reshape(x, (2, 2, 4))))
    ),
    "row_softmax": lambda x: num.squared_norm(num.row_softmax(x)),
    "cosine": lambda x: num.squared_norm(
        num.cosine_similarity_matrix(x, np.array([[0.3, -0.2, 0.5, 0.1], [1.0, 0.4, -0.3, 0.2]]))
    ),
    "add_mul_div": lambda x: num.total_sum(
        num.div(num.mul(x, num.add(x, 1.5)), num.add(num.mul(x, x), 2.0))
    ),
    "log_tanh": lambda x: num.total_sum(num.log(num.add(num.tanh(x), 1.5))),
    "xlogx": lambda x: num.total_sum(num.xlogx(num.row_softmax(x))),
    "reductions": lambda x: num.add(
        num.mean_axis(num.sum_axis(num.mul(x, x), 0), 0),
        num.total_sum(num.transpose(x)),
    ),
    "diag": lambda x: num.total_sum(num.diag_part(num.matmul(x, num.transpose(x)))),
    "reshape": lambda x: num.squared_norm(num.reshape(x, (2, 2, 4))),
    "broadcast": lambda x: num.total_sum(
        num.mul(x, num.reshape(num.sum_axis(x, 0), (1, -1)))
    ),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_OBJECTIVES))
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # str hash() is salted per process
    f = PRIMITIVE_OBJECTIVES[name]
    for _ in range(5):
        x = rng.normal(0.0, 1.0, (4, 4))
        res = num.value_and_gradient(f, x)
        fd = num.finite_difference_gradient(f, x)
        assert rel_err(res.gradient, fd) <= 1e-6, name
        # plain operands build no VJP closures, on the same arithmetic
        plain, node = f(x), f(num.leaf(x))
        assert type(plain) is np.ndarray and type(node) is num.Var
        assert plain.shape == node.shape and plain.tobytes() == node.value.tobytes()


def test_gradient_drops_each_node_gradient_once_its_vjps_have_run():
    # a chain of 16 nodes: holding every gradient to the end takes 16
    # arrays, dropping each once used takes a few at a time
    x = np.random.default_rng(16).normal(size=(256, 256))
    p = num.leaf(x)
    out = p
    for _ in range(16):
        out = num.tanh(out)
    out = num.total_sum(out)
    want = num.gradient(out, p)
    tracemalloc.start()
    try:
        got = num.gradient(out, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak <= 4 * x.nbytes, peak / x.nbytes


def test_gradient_keeps_the_gradient_of_an_interior_wrt():
    p = num.leaf(np.array([0.5, -1.0]))
    mid = num.tanh(p)
    out = num.total_sum(num.mul(mid, mid))
    assert np.array_equal(num.gradient(out, mid), 2.0 * mid.value)


def test_gradient_of_an_unreachable_wrt_is_zeros():
    out = num.total_sum(num.leaf(np.ones(2)))
    assert np.array_equal(num.gradient(out, num.leaf(np.ones(3))), np.zeros(3))


def test_gradient_accumulates_over_reused_node():
    # x appears twice; adjoints must add
    f = lambda x: num.total_sum(num.mul(x, x))
    res = num.value_and_gradient(f, np.array([[3.0]]))
    assert res.gradient[0, 0] == pytest.approx(6.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: num.cosine_similarity_matrix(np.ones(3), np.ones((2, 3))),
            "cosine_similarity_matrix: u must be 2-D, got shape (3,)",
        ),
        (lambda: num.transpose(np.ones(3)), "transpose: input must be at least 2-D"),
        (lambda: num.diag_part(np.ones((2, 3))), "diag_part: matrix must be square"),
    ],
    ids=["cosine-1d", "transpose-1d", "diag-part-2x3"],
)
def test_shape_errors_name_the_primitive(call, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# the custom_node contract: every node checks every entry of its output


NON_FINITE = (math.nan, math.inf, -math.inf)
# 0-d, one entry, small, and past 64k entries
CHECKED_SHAPES = ((), (1,), (3, 5), (257, 256))


def _identity_vjp(g):
    return g


@pytest.mark.parametrize("operand", ("plain", "var"))
@pytest.mark.parametrize("shape", CHECKED_SHAPES, ids=str)
@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_custom_node_rejects_any_non_finite_entry(bad, shape, operand):
    x = np.ones(2) if operand == "plain" else num.leaf(np.ones(2))
    outs = []
    for where in (0, -1):
        out = np.zeros(shape)
        out.flat[where] = bad
        outs += [out, out.T]  # past one axis, .T is not C-contiguous
    if outs[0].size > 1:  # both infinities at once, and with the bad entry
        both = np.zeros(shape)
        both.flat[0], both.flat[-1] = math.inf, -math.inf
        outs += [both, both.T]
        both = both.copy()
        both.flat[1] = bad
        outs.append(both)
    for out in outs:
        with pytest.raises(NumericError, match=r"^probe_op produced a non-finite value$"):
            num.custom_node("probe_op", out, ((x, _identity_vjp),))
    if len(shape) > 1:
        assert not outs[1].flags.c_contiguous


@pytest.mark.parametrize("shape", CHECKED_SHAPES, ids=str)
@pytest.mark.filterwarnings("error")
def test_custom_node_accepts_finite_extremes(shape):
    out = np.full(shape, np.finfo(np.float64).max)
    out.flat[-1] = -np.finfo(np.float64).max
    # past one axis, .T is not C-contiguous and is tested entry-wise
    for probe in (out, out.T):
        assert num.custom_node("probe_op", probe, ((np.ones(2), _identity_vjp),)) is probe
    if len(shape) > 1:
        assert not out.T.flags.c_contiguous


@pytest.mark.parametrize("shape", ((0,), (3, 0), (0, 0, 2)), ids=str)
def test_custom_node_empty_output_passes(shape):
    out = np.zeros(shape)
    assert num.custom_node("probe_op", out, ()) is out
    node = num.custom_node("probe_op", out, ((num.leaf(np.ones(2)), _identity_vjp),))
    assert isinstance(node, num.Var) and node.shape == shape


def test_custom_node_plain_operands_return_bare_array():
    out = np.arange(6.0).reshape(2, 3)
    res = num.custom_node("probe_op", out, ((np.ones(3), _identity_vjp), (2.0, _identity_vjp)))
    assert type(res) is np.ndarray and res is out
    assert type(num.custom_node("probe_op", out, ())) is np.ndarray
    # a 0-d result stays an array, not a numpy scalar
    assert type(num.custom_node("probe_op", np.float64(2.5), ())) is np.ndarray


def test_custom_node_mixed_operands_keep_only_var_edges():
    a, c = num.leaf(np.ones(2)), num.leaf(np.zeros(2))

    def va(g):
        return g

    def vb(g):
        return 2.0 * g

    def vc(g):
        return 3.0 * g

    node = num.custom_node("probe_op", np.ones(2), ((a, va), (np.ones(2), vb), (c, vc)))
    assert isinstance(node, num.Var)
    assert len(node._edges) == 2
    assert node._edges[0][0] is a._edges and node._edges[0][1] is va
    assert node._edges[1][0] is c._edges and node._edges[1][1] is vc


@pytest.mark.parametrize("operand", ("plain", "var"))
@pytest.mark.parametrize(
    "op, build",
    [
        ("log", lambda x: num.log(num.sub(x, 5.0))),
        ("div", lambda x: num.div(x, num.sub(x, x))),
        ("matmul", lambda x: num.matmul(num.mul(x, 1e200), num.mul(x, 1e200))),
        ("squared_norm", lambda x: num.squared_norm(num.mul(x, 1e160))),
        ("mean_axis", lambda x: num.mean_axis(num.mul(x, 1.5e308), 0)),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value", "ignore:divide by zero")
def test_first_non_finite_primitive_is_named(op, build, operand):
    x = np.ones((2, 2)) if operand == "plain" else num.leaf(np.ones((2, 2)))
    with pytest.raises(NumericError, match=rf"^{op} produced a non-finite value$"):
        build(x)


# ---------------------------------------------------------------------------
# the wrapper-free reductions give the bits of the numpy expressions they replace

ODD_SHAPES = ((7,), (3, 5), (1, 9), (3, 5, 7), (2, 1, 3))


@pytest.mark.parametrize("shape", ODD_SHAPES, ids=str)
def test_mean_axis_is_bit_identical_to_ndarray_mean(shape):
    rng = np.random.default_rng(len(shape) * 100 + sum(shape))
    x = rng.normal(0.0, 3.0, shape) + 1e3 * rng.standard_normal()
    for axis in range(-len(shape), len(shape)):
        got = np.asarray(num.mean_axis(x, axis))
        want = np.asarray(x.mean(axis=axis))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), axis


@pytest.mark.parametrize("m, n, d", [(1, 1, 1), (3, 5, 7), (9, 2, 13), (8, 4, 16)])
def test_cosine_norms_are_bit_identical_to_linalg_norm(m, n, d):
    rng = np.random.default_rng(m * 1000 + n * 10 + d)
    u = rng.normal(0.0, 2.0, (m, d))
    v = rng.normal(0.0, 0.5, (n, d))
    g = rng.normal(0.0, 1.0, (m, n))
    # the cosine matrix and both vjps as written with np.linalg.norm
    un, vn = np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1)
    uhat, vhat = u / un[:, None], v / vn[:, None]
    s = uhat @ vhat.T
    want_u = (g @ vhat - (g * s).sum(axis=1, keepdims=True) * uhat) / un[:, None]
    want_v = (g.T @ uhat - (g * s).sum(axis=0)[:, None] * vhat) / vn[:, None]
    assert num.cosine_similarity_matrix(u, v).tobytes() == s.tobytes()
    grad_u = num.value_and_gradient(
        lambda p: num.total_sum(num.mul(num.cosine_similarity_matrix(p, v), g)), u
    ).gradient
    grad_v = num.value_and_gradient(
        lambda p: num.total_sum(num.mul(num.cosine_similarity_matrix(u, p), g)), v
    ).gradient
    assert grad_u.tobytes() == want_u.tobytes()
    assert grad_v.tobytes() == want_v.tobytes()
