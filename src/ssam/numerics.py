"""Dense float64 matrix primitives with reverse-mode differentiation.

Plain numpy arrays are the matrix representation (row-major float64).
Every operation here also accepts :class:`Var` nodes; when any operand is
a ``Var`` the result is a ``Var`` carrying the backward rule, so a scalar
objective composed from these primitives can be differentiated exactly
with :func:`value_and_gradient`, which returns the pair ``(value,
gradient)``. :func:`finite_difference_gradient` is the
independent central-difference oracle used to cross-check the analytic
path; the two never share derivative code.

Operations validate their own output: every primitive funnels through
:func:`custom_node`, which tests every entry of every result it builds,
on plain arrays as on the tape. How depends on the layout. A 0-d result
is tested with ``math.isfinite(out)``. A C-contiguous one is tested with
``math.isfinite(np.vdot(out, out))``, the sum of squares, which is not
finite when an entry is not. Any other layout, such as a transposed
view, is tested entry-wise with
``np.logical_and.reduce(np.isfinite(out), axis=None)``, since
``np.vdot`` would copy it first; so is a result whose sum of squares is
not finite, which tells an overflow of finite entries from a NaN or
infinity. Neither test raises a numpy floating-point warning (the sum
runs in BLAS), so finite extremes pass silently. Any NaN or infinity
raises :class:`~ssam.errors.NumericError` naming the offending
primitive; ``adapt_batch`` and ``run_stream`` turn numpy's warnings off,
so there it is a fault's one report. Checking only the objective's
output would not do: ``tanh``, ``xlogx``, ``row_softmax``, ``div`` and
``diag_part`` can each turn a non-finite operand into a finite result.

The tape keeps only what the VJPs read: an edge holds its parent's
node, not the parent ``Var``, and a VJP closure holds only the arrays
its rule reads, and just their shapes where it needs no more. So a
value that no VJP reads, such as a conv output that only a tanh reads,
is freed once the forward pass has moved past it.

A finite-difference forward runs on plain arrays only, so what a call
costs beyond its arithmetic and this test sets its speed. ``value_of``
tests for a float64 ``ndarray`` first, ``custom_node`` tests ``Var`` by
exact type, and ``matmul``, ``add``, ``mul``, ``tanh`` and
``transpose`` build their VJP closures only when an operand is a
``Var``; plain operands pass ``custom_node`` no edges. The arithmetic,
and so every output bit, is the same either way. README's "Fixed cost
per primitive" gives the per-call timings.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, DimensionError, NumericError

ZERO_NORM_EPS = 1e-12
FD_STEP = 1e-5

_F64 = np.dtype(np.float64)  # one object: an identity test is a dtype test


class Var:
    """A float64 value on the tape, and the tape node that made it.

    Leaves are created with :func:`leaf`; interior nodes are created by the
    operations in this module (or by :func:`custom_node` for operations
    defined elsewhere), which pass a float64 ndarray; it is stored as
    given. Values are never mutated after construction.

    The node is ``_edges``, a new list for every ``Var``, a leaf's too:
    one ``(parent node, vjp)`` pair per differentiable operand. So a
    value lives only while a caller holds its ``Var`` or a VJP reads it.
    """

    __slots__ = ("value", "_edges")

    def __init__(self, value: np.ndarray, edges=()) -> None:
        self.value = value
        self._edges = list(edges)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape})"


def leaf(value) -> Var:
    """Wrap ``value`` as an independent graph leaf (copies the data)."""
    return Var(np.array(value, dtype=np.float64))


def value_of(x) -> np.ndarray:
    """The plain float64 array behind ``x`` (Var or array-like)."""
    # the plain float64 array first: a finite-difference forward passes
    # little else
    if type(x) is np.ndarray and x.dtype is _F64:
        return x
    if type(x) is Var:
        return x.value
    return np.asarray(x, dtype=np.float64)


def custom_node(op: str, out: np.ndarray, edges: Sequence[tuple]):
    """Build a graph node for an externally defined operation.

    ``edges`` pairs each operand with a vjp callable mapping the output
    gradient to that operand's gradient (exact operand shape). Operands
    that are not ``Var`` are dropped, and the node keeps each ``Var``
    operand's node, not the ``Var``. Returns a plain array when no
    operand is differentiable. Raises ``NumericError`` (naming ``op``) on
    a non-finite result.
    """
    if not (type(out) is np.ndarray and out.dtype is _F64):
        out = np.asarray(out, dtype=np.float64)
    # a 0-d result is its own test. A C-contiguous one takes one BLAS
    # call, where the entry-wise test costs three times as much on the
    # small arrays of a finite-difference forward and runs only for a sum
    # that is not finite. Any other layout, such as a transposed view, is
    # tested entry-wise at once: np.vdot would copy it twice first, which
    # costs more than the entry-wise test.
    if not (
        out.flags.c_contiguous and math.isfinite(np.vdot(out, out) if out.ndim else out)
        or np.logical_and.reduce(np.isfinite(out), axis=None)
    ):
        raise NumericError(f"{op} produced a non-finite value")
    for p, _ in edges:
        if type(p) is Var:
            return Var(out, ((p._edges, vjp) for p, vjp in edges if type(p) is Var))
    return out


def _toposort(root: list) -> list[list]:
    order: list[list] = []
    seen: set[int] = set()
    stack: list[tuple[list, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # every node appears after all of its parents


def gradient(out: Var, wrt: Var) -> np.ndarray:
    """Reverse-accumulate d(out)/d(wrt); ``out`` is typically scalar."""
    root, target = out._edges, wrt._edges
    order = _toposort(root)
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(out.value)}
    for node in reversed(order):
        # every node comes before its parents, and each node but the root is
        # a parent of one before it, so its gradient is complete here; it is
        # dropped once its vjps have run, except wrt's, which is the result
        g = grads[id(node)] if node is target else grads.pop(id(node))
        for parent, vjp in node:
            pg = vjp(g)
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    result = grads.get(id(target))
    if result is None:
        return np.zeros_like(wrt.value)
    if not np.all(np.isfinite(result)):
        raise NumericError("backward pass produced a non-finite gradient")
    return result


def value_and_gradient(objective: Callable, params) -> tuple[float, np.ndarray]:
    """Evaluate a scalar objective and its exact reverse-mode gradient.

    ``objective`` receives a ``Var`` shaped like ``params`` and must
    return a scalar built from the primitives in this package. Returns
    ``(value, gradient)``: the objective as a finite float, and the
    gradient shaped like ``params``. An objective that ignores its
    argument yields an all-zero gradient.
    """
    p = leaf(params)
    out = objective(p)
    value = _objective_value(out)
    return value, gradient(out, p) if isinstance(out, Var) else np.zeros_like(p.value)


def finite_difference_gradient(objective: Callable, params) -> np.ndarray:
    """Central-difference gradient estimate, (f(x+he_i) - f(x-he_i)) / 2h
    with h = ``FD_STEP``.

    Evaluates ``objective`` on plain arrays only; shares no derivative
    code with the analytic path.
    """
    x = np.array(value_of(params))
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = _objective_value(objective(x))
        flat[i] = orig - FD_STEP
        fm = _objective_value(objective(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * FD_STEP)
    return grad


def _objective_value(out) -> float:
    """The value of an objective's output as a finite float. Any size-1
    shape counts as scalar; anything else is a ``DimensionError``."""
    arr = value_of(out)
    if arr.size != 1:
        raise DimensionError(f"objective must be scalar, got shape {arr.shape}")
    v = arr.item()
    if not math.isfinite(v):
        raise NumericError("objective produced a non-finite value")
    return v


# ---------------------------------------------------------------------------
# primitives


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (adjoint of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = np.add.reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axis=axes)  # the reshape below restores the summed axes
    return g.reshape(shape)


def _require_matrix(a: np.ndarray, op: str, name: str) -> None:
    if a.ndim != 2:
        raise DimensionError(f"{op}: {name} must be 2-D, got shape {a.shape}")


def matmul(a, b):
    """Matrix product over the last two axes; leading (batch) axes
    broadcast. Requires ``a.cols == b.rows``."""
    av, bv = value_of(a), value_of(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise DimensionError(f"matmul: operands must be at least 2-D, got {av.shape}, {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions differ, {av.shape} x {bv.shape}")
    edges = ()
    if type(a) is Var or type(b) is Var:
        sa, sb = av.shape, bv.shape
        edges = (
            (a, lambda g: _unbroadcast(g @ bv.swapaxes(-1, -2), sa)),
            (b, lambda g: _unbroadcast(av.swapaxes(-1, -2) @ g, sb)),
        )
    return custom_node("matmul", av @ bv, edges)


def row_softmax(m):
    """Softmax along the last axis, stabilized by max subtraction.

    Output rows sum to 1 with entries in (0, 1); invariant to adding a
    per-row constant to the input.
    """
    mv = value_of(m)
    if mv.size == 0 or mv.ndim < 1:
        raise DimensionError(f"row_softmax: input must be nonempty, got shape {mv.shape}")
    # the bare ufunc reductions here and below: the ndarray.max/sum/min
    # wrappers call them, at a cost that shows on small arrays
    y = np.subtract(mv, np.maximum.reduce(mv, axis=-1, keepdims=True))
    np.exp(y, out=y)
    np.divide(y, np.add.reduce(y, axis=-1, keepdims=True), out=y)

    def vjp(g):
        return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))

    return custom_node("row_softmax", y, ((m, vjp),))


def row_norms(x: np.ndarray, what: str) -> np.ndarray:
    """Euclidean norms of the rows of a plain 2-D array.

    A norm at or below ``ZERO_NORM_EPS`` (no direction to compare) raises
    ``DegenerateInputError``; an infinite one, such as a sum of squares
    that overflows, raises ``NumericError``, since dividing by it would
    turn the row into zeros. Both name ``what`` and the first such row.
    """
    # np.linalg.norm's own expression for one axis, without its wrapper
    norms = np.sqrt(np.add.reduce(x * x, axis=1))
    if np.minimum.reduce(norms, initial=np.inf) <= ZERO_NORM_EPS:
        raise DegenerateInputError(f"{what} row {int(np.argmin(norms))} has near-zero norm")
    if np.maximum.reduce(norms, initial=0.0) == np.inf:
        raise NumericError(f"{what} row {int(np.argmax(norms))} has an infinite norm")
    return norms


def cosine_similarity_matrix(u, v):
    """Pairwise cosine similarities: out[i, j] = cos(u_i, v_j), in [-1, 1].

    The rows of both operands go through :func:`row_norms`.
    """
    uv, vv = value_of(u), value_of(v)
    _require_matrix(uv, "cosine_similarity_matrix", "u")
    _require_matrix(vv, "cosine_similarity_matrix", "v")
    if uv.shape[1] != vv.shape[1]:
        raise DimensionError(
            f"cosine_similarity_matrix: feature dims differ, {uv.shape} vs {vv.shape}"
        )
    un = row_norms(uv, "cosine_similarity_matrix: u")
    vn = row_norms(vv, "cosine_similarity_matrix: v")
    uhat = uv / un[:, None]
    vhat = vv / vn[:, None]
    s = uhat @ vhat.T

    def vjp_u(g):
        return (g @ vhat - np.add.reduce(g * s, axis=1)[:, None] * uhat) / un[:, None]

    def vjp_v(g):
        return (g.T @ uhat - np.add.reduce(g * s, axis=0)[:, None] * vhat) / vn[:, None]

    return custom_node("cosine_similarity_matrix", s, ((u, vjp_u), (v, vjp_v)))


def add(a, b):
    av, bv = value_of(a), value_of(b)
    edges = ()
    if type(a) is Var or type(b) is Var:
        sa, sb = av.shape, bv.shape
        edges = (
            (a, lambda g: _unbroadcast(g, sa)),
            (b, lambda g: _unbroadcast(g, sb)),
        )
    return custom_node("add", av + bv, edges)


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    out, sa, sb = av - bv, av.shape, bv.shape
    return custom_node(
        "sub",
        out,
        (
            (a, lambda g: _unbroadcast(g, sa)),
            (b, lambda g: _unbroadcast(-g, sb)),
        ),
    )


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    edges = ()
    if type(a) is Var or type(b) is Var:
        sa, sb = av.shape, bv.shape
        edges = (
            (a, lambda g: _unbroadcast(g * bv, sa)),
            (b, lambda g: _unbroadcast(g * av, sb)),
        )
    return custom_node("mul", av * bv, edges)


def div(a, b):
    av, bv = value_of(a), value_of(b)
    out, sa, sb = av / bv, av.shape, bv.shape
    return custom_node(
        "div",
        out,
        (
            (a, lambda g: _unbroadcast(g / bv, sa)),
            (b, lambda g: _unbroadcast(-g * out / bv, sb)),
        ),
    )


def log(a):
    av = value_of(a)
    return custom_node("log", np.log(av), ((a, lambda g: g / av),))


def tanh(a):
    av = value_of(a)
    out = np.tanh(av)
    edges = ()
    if type(a) is Var:

        def vjp(g):
            # g * (1 - out * out) in one new buffer: each entry takes the
            # three roundings of the plain expression, in its order
            buf = np.multiply(out, out)
            np.subtract(1.0, buf, out=buf)
            return np.multiply(g, buf, out=buf)

        edges = ((a, vjp),)
    return custom_node("tanh", out, edges)


def xlogx(a):
    """Elementwise x*log(x) with the convention 0*log(0) = 0."""
    av = value_of(a)
    safe = np.where(av > 0.0, av, 1.0)
    out = np.where(av > 0.0, av * np.log(safe), 0.0)

    def vjp(g):
        return g * np.where(av > 0.0, np.log(safe) + 1.0, 0.0)

    return custom_node("xlogx", out, ((a, vjp),))


def total_sum(a):
    """Sum of all entries, as a scalar."""
    av = value_of(a)
    sa = av.shape
    return custom_node(
        "total_sum",
        np.add.reduce(av, axis=None),
        ((a, lambda g: np.broadcast_to(g, sa).copy()),),
    )


def squared_norm(a):
    """Sum of squared entries, as a scalar."""
    av = value_of(a)
    return custom_node(
        "squared_norm", np.add.reduce(av * av, axis=None), ((a, lambda g: 2.0 * g * av),)
    )


def sum_axis(a, axis: int):
    """Sum along one axis, which is dropped."""
    av = value_of(a)
    sa = av.shape

    def vjp(g):
        return np.broadcast_to(np.expand_dims(g, axis), sa).copy()

    return custom_node("sum_axis", np.add.reduce(av, axis=axis), ((a, vjp),))


def mean_axis(a, axis: int):
    """Mean along one axis, which is dropped."""
    av = value_of(a)
    sa = av.shape
    n = av.shape[axis]

    def vjp(g):
        return np.broadcast_to(np.expand_dims(g / n, axis), sa).copy()

    # ndarray.mean's own sum-then-divide, without its wrapper
    return custom_node("mean_axis", np.add.reduce(av, axis=axis) / n, ((a, vjp),))


def transpose(a):
    """Swap the last two axes. A view: tape values are never mutated."""
    av = value_of(a)
    if av.ndim < 2:
        raise DimensionError(f"transpose: input must be at least 2-D, got shape {av.shape}")
    edges = ((a, lambda g: g.swapaxes(-1, -2)),) if type(a) is Var else ()
    return custom_node("transpose", av.swapaxes(-1, -2), edges)


def reshape(a, shape):
    av = value_of(a)
    sa = av.shape
    return custom_node("reshape", av.reshape(shape), ((a, lambda g: g.reshape(sa)),))


def diag_part(a):
    """Main diagonal of a square matrix, as a vector."""
    av = value_of(a)
    _require_matrix(av, "diag_part", "a")
    if av.shape[0] != av.shape[1]:
        raise DimensionError(f"diag_part: matrix must be square, got {av.shape}")

    def vjp(g):
        out = np.zeros_like(av)  # av's layout: a reduction over the gradient may round by it
        np.fill_diagonal(out, g)
        return out

    return custom_node("diag_part", av.diagonal().copy(), ((a, vjp),))
