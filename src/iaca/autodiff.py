"""Dense 2-D float64 tensors with reverse-mode automatic differentiation.

Payloads are plain numpy arrays of shape (rows, cols), row-major, float64.
One rule shapes the engine: a graph node holds no value. A
:class:`Tensor` is what a caller holds, one payload plus the node behind
it; the node keeps the op's tag, the output shape, its inputs' nodes and
the vjps mapping its grad to theirs, and each vjp closes over only the
arrays its formula reads. So a value no vjp reads, such as a product that
only feeds a softmax, is freed during the forward as soon as the last
Tensor naming it goes. ``Tensor.parents`` yields nodes, which carry
``op``, ``shape``, ``parents`` and ``grad``.

Graphs are acyclic by construction and single-use: build the forward pass
with the op functions below, call ``backward()`` once on a 1x1 output, read
gradients off the leaves, then rebuild for the next pass. A function with a
closed-form gradient can be one node, built as ``Tensor(value, op=...,
parents=..., vjps=...)``, as ``metrics.ccc_loss`` is. A Tensor built with
``requires_grad=False`` is a constant (input data) and has no node. Every
op computes its value first; if no input has a node, it returns a constant
of that value and builds no vjp and no node, so a pass built only from
constants costs no graph bookkeeping and keeps no graph behind its output.
Otherwise it links only the inputs that have a node, so backward never
reaches a constant, and ``backward()`` on a constant does nothing.
Backward allocates grads only for the nodes it reaches and frees each
interior node's grad once it has passed it on, so only leaves keep
theirs; everywhere else ``grad`` is None.

Values are treated as immutable once wrapped, but for one exception:
attention's ``softmax(z, out=z.value)`` normalizes each L x L product z
in its own buffer, which is safe only because the caller drops z and no
vjp reads it. Sharing values across threads is safe. A graph itself
belongs to one thread from construction through backward.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "matmul",
    "add",
    "scale",
    "transpose",
    "tanh",
    "relu",
    "softmax",
    "concat_rows",
    "concat_cols",
    "add_col",
    "gate_mix",
]

class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _as_value(data) -> np.ndarray:
    v = np.asarray(data, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1, 1)
    if v.ndim != 2:
        raise ShapeError(f"expected a 2-D value, got shape {v.shape}")
    if v.shape[0] < 1 or v.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got shape {v.shape}")
    return np.ascontiguousarray(v)


class _Node:
    """What backward walks: an op's tag, output shape, input nodes (only
    those that require a gradient) and their vjps, and the grad backward
    leaves (on leaves only). No value."""

    __slots__ = ("op", "shape", "parents", "_vjps", "grad", "_used")

    def __init__(self, op: str, shape: tuple, parents: tuple, vjps: tuple):
        self.op = op
        self.shape = shape
        self.parents = parents
        self._vjps = vjps
        self.grad = None
        self._used = False


def _link(op: str, shape: tuple, parents, vjps) -> _Node | None:
    # the node over the input Tensors `parents`, linking only those that have
    # a node; None when some are given but none has one (no parents: a leaf)
    for p in parents:
        if p._node is None:
            for q in parents:
                if q._node is not None:
                    kept = [(r._node, f) for r, f in zip(parents, vjps) if r._node is not None]
                    return _Node(op, shape, tuple([n for n, _ in kept]),
                                 tuple([f for _, f in kept]))
            return None
    return _Node(op, shape, tuple([p._node for p in parents]), tuple(vjps))


class Tensor:
    """A (rows, cols) payload, ``value``, and the graph node behind it.

    ``op`` is the producing operation's tag ("constant" for a Tensor with
    no node), ``requires_grad`` whether it has a node, ``grad`` the array
    backward() leaves on a leaf it reaches (None elsewhere), and
    ``parents`` the ordered input nodes that require a gradient (empty for
    leaves and constants).
    """

    __slots__ = ("value", "_node")

    def __init__(self, value, op: str = "leaf", parents: tuple = (), vjps: tuple = (),
                 requires_grad: bool = True):
        self.value = _as_value(value)
        self._node = _link(op, self.value.shape, parents, vjps) if requires_grad else None

    @property
    def op(self) -> str:
        return "constant" if self._node is None else self._node.op

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def parents(self) -> tuple:
        return () if self._node is None else self._node.parents

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 value, got shape {self.value.shape}")
        return float(self.value[0, 0])

    def backward(self) -> None:
        """Reverse-mode accumulation from this node into every reachable leaf.

        The seed must be 1x1; its grad is seeded with ones, and a constant
        seed reaches nothing. A node's grad is its first contribution, and
        later contributions are added to it in the order the reverse
        topological walk produces them. An interior node's grad is set
        back to None once passed to its parents, so only leaves keep
        theirs. Each graph may be differentiated once, a second call on
        any overlapping graph raises.
        """
        if self.value.shape != (1, 1):
            raise ValueError(f"backward needs a 1x1 scalar seed, got shape {self.value.shape}")
        if self._node is None:
            return
        order = _topo_order(self._node)
        if any(node._used for node in order):
            raise RuntimeError("graph already differentiated; rebuild it before calling backward again")
        self._node.grad = np.ones((1, 1))
        for node in reversed(order):
            g = node.grad
            for parent, vjp in zip(node.parents, node._vjps):
                c = vjp(g)
                if parent.grad is None:
                    # Some vjps hand back g itself or a view of it, so grads
                    # are never updated in place. A leaf's grad is read by
                    # callers and gets memory of its own. Every grad is
                    # C-contiguous: BLAS rounds differently on transposed
                    # operands, and the result must not depend on layout.
                    if not c.flags.c_contiguous or (
                            not parent.parents and (c is g or c.base is not None)):
                        c = c.copy()
                    parent.grad = c
                else:
                    parent.grad = parent.grad + c
            if node.parents:
                node.grad = None
            node._used = True

    # + only; every other op is called by name
    def __add__(self, other):
        return add(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, op={self.op!r})"


def _result(value: np.ndarray, op: str, parents: tuple, vjps: tuple) -> Tensor:
    # an op's output is float64, 2-D and C-contiguous by construction: no check
    t = object.__new__(Tensor)
    t.value = value
    t._node = _link(op, value.shape, parents, vjps)
    return t


def _constant(value: np.ndarray) -> Tensor:
    # an op's output when no input has a node: no vjps built, no node linked
    t = object.__new__(Tensor)
    t.value = value
    t._node = None
    return t


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _topo_order(root: _Node) -> list[_Node]:
    """Iterative post-order: every node appears after all of its parents."""
    order: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def matmul(a, b) -> Tensor:
    """Standard matrix product (m,k) @ (k,n) -> (m,n)."""
    a, b = _coerce(a), _coerce(b)
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.value.shape} @ {b.value.shape}")
    av, bv = a.value, b.value
    value = av @ bv
    if a._node is None and b._node is None:
        return _constant(value)
    return _result(value, "matmul", (a, b), (lambda g: g @ bv.T, lambda g: av.T @ g))


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes differ, {a.value.shape} vs {b.value.shape}")
    value = a.value + b.value
    if a._node is None and b._node is None:
        return _constant(value)
    return _result(value, "add", (a, b), (lambda g: g, lambda g: g))


def scale(a, c: float) -> Tensor:
    """Multiply by a compile-time constant (not differentiated through c)."""
    a = _coerce(a)
    c = float(c)
    value = a.value * c
    if a._node is None:
        return _constant(value)
    return _result(value, "scale", (a,), (lambda g: g * c,))


def transpose(a) -> Tensor:
    a = _coerce(a)
    value = np.ascontiguousarray(a.value.T)
    if a._node is None:
        return _constant(value)
    return _result(value, "transpose", (a,), (lambda g: g.T,))


def tanh(a) -> Tensor:
    a = _coerce(a)
    y = np.tanh(a.value)
    if a._node is None:
        return _constant(y)
    return _result(y, "tanh", (a,), (lambda g: g * (1.0 - y * y),))


def relu(a) -> Tensor:
    """Entrywise max(x, 0); the subgradient at exactly 0 is taken as 0."""
    a = _coerce(a)
    mask = a.value > 0.0
    value = a.value * mask
    if a._node is None:
        return _constant(value)
    return _result(value, "relu", (a,), (lambda g: g * mask,))


def softmax(a, temperature: float = 1.0, out: np.ndarray | None = None) -> Tensor:
    """Temperature softmax of every column, max-subtracted for stability.

    Each column becomes a probability vector; a row softmax is
    ``transpose(softmax(transpose(x)))``. Logits are divided by the
    temperature first, so smaller temperatures sharpen toward each column's
    argmax. The result goes into ``out`` if given, which may be ``a.value``.
    """
    a = _coerce(a)
    if not temperature > 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == a.value.shape and out.flags.c_contiguous):
        raise ShapeError(f"softmax out must be a C-contiguous float64 {a.value.shape} array")
    z = a.value
    if temperature != 1.0:  # x / 1.0 == x exactly
        # into out, or one fresh buffer that the rest then normalizes in place
        z = out = np.divide(z, temperature, out=out)
    y = np.subtract(z, z.max(axis=0, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=0, keepdims=True)
    if a._node is None:
        return _constant(y)

    def vjp(g):
        gz = g * y
        np.subtract(g, gz.sum(axis=0, keepdims=True), out=gz)
        gz *= y
        return gz / temperature if temperature != 1.0 else gz

    return _result(y, "softmax", (a,), (vjp,))


def _concat(op: str, parts, axis: int) -> Tensor:
    if len(parts) < 2:
        raise ValueError(f"{op} needs at least two inputs")
    ts = [_coerce(p) for p in parts]
    if len({t.value.shape[1 - axis] for t in ts}) != 1:
        raise ShapeError(f"{op}: {('row', 'column')[1 - axis]} counts differ, "
                         f"{[t.value.shape for t in ts]}")
    value = np.concatenate([t.value for t in ts], axis=axis)
    if all(t._node is None for t in ts):
        return _constant(value)
    vjps = []
    offset = 0
    for t in ts:
        n = t.value.shape[axis]
        vjps.append(lambda g, i=(slice(None),) * axis + (slice(offset, offset + n),): g[i])
        offset += n
    return _result(value, op, tuple(ts), tuple(vjps))


def concat_rows(*parts) -> Tensor:
    """Stack matrices vertically; every input must have the same column count."""
    return _concat("concat_rows", parts, 0)


def concat_cols(*parts) -> Tensor:
    """Stack matrices horizontally; every input must have the same row count."""
    return _concat("concat_cols", parts, 1)


def add_col(a, col) -> Tensor:
    """a + col, the rx1 column added to every column of the rxn matrix a."""
    a, col = _coerce(a), _coerce(col)
    if col.value.shape != (a.value.shape[0], 1):
        raise ShapeError(f"add_col needs a {a.value.shape[0]}x1 column, got shape {col.value.shape}")
    value = a.value + col.value
    if a._node is None and col._node is None:
        return _constant(value)
    return _result(value, "add_col", (a, col),
                   (lambda g: g, lambda g: g.sum(axis=1, keepdims=True)))


def gate_mix(gate, candidates: Sequence) -> Tensor:
    """Mix K candidates clip by clip: column l is sum_j gate[j, l] * candidates[j][:, l].

    gate is K x L, one column per clip, so row j scales candidate j; the K
    candidates share one d x L shape. Terms are added left to right, j = 0 first.
    """
    gate = _coerce(gate)
    xs = [_coerce(x) for x in candidates]
    k, n_clips = gate.value.shape
    if len(xs) != k:
        raise ShapeError(f"gate_mix: {k} gate rows for {len(xs)} candidates")
    shape = xs[0].value.shape
    if shape[1] != n_clips or any(x.value.shape != shape for x in xs):
        raise ShapeError(f"gate_mix: candidates must share one shape with {n_clips} "
                         f"columns, got {[x.value.shape for x in xs]}")
    rows = gate.value
    value = xs[0].value * rows[0]  # a fresh buffer, so the sum builds in place
    for j in range(1, k):
        value += xs[j].value * rows[j]
    if gate._node is None and all(x._node is None for x in xs):
        return _constant(value)

    def gate_vjp(g):
        out = np.empty((k, n_clips))
        for j, x in enumerate(xs):
            out[j] = (g * x.value).sum(axis=0)
        return out

    vjps = [lambda g, r=rows[j]: g * r for j in range(k)]
    return _result(value, "gate_mix", (*xs, gate), (*vjps, gate_vjp))
