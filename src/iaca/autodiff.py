"""Dense 2-D float64 tensors with reverse-mode automatic differentiation.

Values enter 2-D, as float64 numpy arrays of shape (rows, cols), row-major;
a scalar raises ShapeError. Every op, ``add`` too, is called by name.
One rule shapes the engine: a graph node holds no value. A
:class:`Tensor` is what a caller holds, one payload plus the node behind
it; the node keeps the op's tag, the output shape, its inputs' nodes and
the vjps mapping its grad to theirs, and each vjp closes over only the
arrays its formula reads. So a value no vjp reads, such as a product that
only feeds a softmax, is freed during the forward as soon as the last
Tensor naming it goes. Nor does a vjp keep a value that is cheap to make
again: a layout copy (a Tensor made by ``transpose`` or a concat) and a
``matmul`` product with a parameter leaf among its operands carry a recipe
that rebuilds the value bit for bit from what their own vjps keep, their
inputs' values or an input's own recipe (a concat fills one buffer, a
concat part its own slice of it). The vjps of ``matmul`` and ``gate_mix``
keep the recipe instead of the value and run it when they run. A product
of two activations carries none, so no L x L product is computed twice;
a copy of a constant is a plain array and stays.
``matmul``'s vjps drop the operand each read, and ``softmax``'s vjp its
output, once run; so a spent graph no longer holds the L x L attention
maps, only the per-clip arrays that the vjps of ``tanh``, ``relu``,
``gate_mix`` and ``metrics.ccc_loss`` read.
``Tensor.parents`` yields nodes, which carry ``op``, ``shape``,
``parents`` and ``grad``.

Graphs are acyclic by construction and single-use: build the forward pass
with the op functions below, call ``backward()`` once on a 1x1 output, read
gradients off the leaves, then rebuild for the next pass. A function with a
closed-form gradient can be one node, built as ``Tensor(value, op=...,
parents=..., vjps=...)``, as ``metrics.ccc_loss`` is. A constant (input
data) is a plain array: every op takes Tensors or arrays, checks and
converts an array input as ``Tensor`` does its value, and links only the
Tensors, so backward never reaches a constant. An op with no Tensor input
returns its bare value and builds no vjp and no node, so a pass over arrays
alone costs no graph bookkeeping and keeps no graph. Every Tensor has a
node; only ``Tensor(x)`` makes a leaf.
Backward allocates grads only for the nodes it reaches and frees each
interior node's grad once it has passed it on, so only leaves keep
theirs; everywhere else ``grad`` is None. At the model's sizes a node's
fixed Python cost is a visible share of its op, so the bookkeeping stays
lean: linking a node is one pass over its inputs, the topological walk
hashes nodes themselves, and ops call numpy's ufunc reductions directly
rather than the ndarray method wrappers.

Values are treated as immutable once wrapped, but for one exception:
attention's ``softmax(z, in_place=True)`` normalizes each L x L product
z in its own buffer, which is safe only because the caller drops z and no
vjp reads it, not even through a kept recipe. A recipe reads only what its
own op's vjps read, so rebuilding never reads a buffer this rule does not
already protect. Sharing values across threads is safe. A graph itself
belongs to one thread from construction through backward.

A training step frees megabytes of maps and per-clip arrays that the next
step allocates again. At glibc's defaults the heap gives back its top once
128 KiB lie free there, and a block past a threshold that rises as such
blocks are freed gets an mmap of its own, so every step faulted those pages
in again. On import the engine sets glibc's ``mallopt`` trim threshold
(1 GiB) and mmap threshold (32 MiB, glibc's largest). Both: setting either
one stops the mmap threshold rising, wherever it stands, and with the trim
threshold alone a long gated RJCA fit still took 52k minor faults. Without
``mallopt`` nothing is set.
"""

from __future__ import annotations

import ctypes
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
    "gate_mix",
]

class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_FLOAT64 = np.dtype(np.float64)


def _keep_heap() -> None:
    # the heap keeps what a step frees (module docstring); glibc only
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt, or no C library handle (Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_keep_heap()


def _as_value(data) -> np.ndarray:
    # a float64 C-contiguous array, the data itself when it is one; every
    # inference op runs this on each array input, so it is one numpy call
    v = np.asarray(data, _FLOAT64, "C")
    if v.ndim != 2:
        raise ShapeError(f"expected a 2-D value, got shape {v.shape}")
    if not v.size:
        raise ShapeError(f"matrix dimensions must be positive, got shape {v.shape}")
    return v


def _value(x) -> np.ndarray:
    # an op input's value: a Tensor's own, or the array as _as_value checks it
    return x.value if isinstance(x, Tensor) else _as_value(x)


class _Node:
    """What backward walks: an op's tag, output shape, the nodes of its
    Tensor inputs and their vjps, and the grad backward leaves (on leaves
    only). No value."""

    __slots__ = ("op", "shape", "parents", "_vjps", "grad", "_used")

    def __init__(self, op: str, shape: tuple, parents: tuple, vjps: tuple):
        self.op = op
        self.shape = shape
        self.parents = parents
        self._vjps = vjps
        self.grad = None
        self._used = False


def _link(op: str, shape: tuple, parents, vjps) -> _Node:
    # the node over the Tensors among the inputs `parents`, each with its vjp,
    # in one pass; arrays are constants and are not linked
    nodes, kept = [], []
    for p, f in zip(parents, vjps):
        if isinstance(p, Tensor):
            nodes.append(p._node)
            kept.append(f)
    return _Node(op, shape, tuple(nodes), tuple(kept))


class Tensor:
    """A (rows, cols) payload, ``value``, and the graph node behind it.

    ``op`` is the producing operation's tag ("leaf" for a leaf), ``grad``
    the array backward() leaves on a leaf it reaches (None elsewhere), and
    ``parents`` the ordered nodes of the Tensor inputs (empty for a leaf).
    The constructor's ``parents`` are the inputs, Tensors or arrays, one
    vjp each; only the Tensors are linked.
    """

    __slots__ = ("value", "_node", "_recipe")

    def __init__(self, value, op: str = "leaf", parents: tuple = (), vjps: tuple = ()):
        self.value = _as_value(value)
        self._node = _link(op, self.value.shape, parents, vjps)
        self._recipe = None

    @property
    def op(self) -> str:
        return self._node.op

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @property
    def parents(self) -> tuple:
        return self._node.parents

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 value, got shape {self.value.shape}")
        return float(self.value[0, 0])

    def backward(self) -> None:
        """Reverse-mode accumulation from this node into every reachable leaf.

        The seed must be 1x1; its grad is seeded with ones. A node's grad is
        its first contribution, and later contributions are added to it in
        the order the reverse topological walk produces them. An interior
        node's grad is set back to None once passed to its parents, so only
        leaves keep theirs. Each graph may be differentiated once, a second
        call on any overlapping graph raises.
        """
        if self.value.shape != (1, 1):
            raise ValueError(f"backward needs a 1x1 scalar seed, got shape {self.value.shape}")
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

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, op={self.op!r})"


def _result(value: np.ndarray, op: str, parents: tuple, vjps: tuple, recipe=None) -> Tensor:
    # an op's output over at least one Tensor input, and its recipe if it has one;
    # its value is float64, 2-D and C-contiguous by construction: no check
    t = object.__new__(Tensor)
    t.value = value
    t._node = _link(op, value.shape, parents, vjps)
    t._recipe = recipe
    return t


def _keep(x, v):
    # what a vjp keeps of input x, whose value is v: its recipe, if it has one,
    # so that the value goes with its last Tensor, else a function returning v
    return (isinstance(x, Tensor) and x._recipe) or (lambda: v)


def _is_leaf(x) -> bool:
    return isinstance(x, Tensor) and x._node.op == "leaf"


def _topo_order(root: _Node) -> list[_Node]:
    """Iterative post-order: every node appears after all of its parents."""
    order: list[_Node] = []
    visited: set[_Node] = set()  # nodes hash by identity
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent not in visited:
                stack.append((parent, False))
    return order


def matmul(a, b) -> Tensor | np.ndarray:
    """Standard matrix product (m,k) @ (k,n) -> (m,n).

    A product with a parameter leaf among its operands (a correlation's
    x^T W, TCA's q and v) carries a recipe, ``keep_a() @ keep_b()`` over what
    its own vjps keep, so a consumer that keeps it rebuilds it bit for bit
    at the cost of one product with a d x d parameter. A product of two
    activations (each L x L correlation, each attended product) carries
    none: its consumers keep its value, and no O(d L^2) product runs twice.
    """
    av, bv = _value(a), _value(b)
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {av.shape} @ {bv.shape}")
    value = av @ bv
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return value
    keep_a, keep_b = _keep(a, av), _keep(b, bv)

    def vjp_a(g):  # each vjp drops the operand it read once run: the graph is single-use
        nonlocal keep_b
        ga, keep_b = g @ keep_b().T, None
        return ga

    def vjp_b(g):
        nonlocal keep_a
        gb, keep_a = keep_a().T @ g, None
        return gb

    return _result(value, "matmul", (a, b), (vjp_a, vjp_b),
                   (lambda: keep_a() @ keep_b()) if _is_leaf(a) or _is_leaf(b) else None)


def add(a, b) -> Tensor | np.ndarray:
    """a + b, for b of a's shape or an rx1 column added to every column of a."""
    av, bv = _value(a), _value(b)
    same = av.shape == bv.shape
    if not same and bv.shape != (av.shape[0], 1):
        raise ShapeError(f"add needs b of shape {av.shape} or {av.shape[0]}x1, got {bv.shape}")
    value = av + bv
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return value
    return _result(value, "add", (a, b), (lambda g: g, (lambda g: g) if same
                                          else lambda g: np.add.reduce(g, axis=1, keepdims=True)))


def scale(a, c: float) -> Tensor | np.ndarray:
    """Multiply by a compile-time constant (not differentiated through c)."""
    c = float(c)
    value = _value(a) * c
    if not isinstance(a, Tensor):
        return value
    return _result(value, "scale", (a,), (lambda g: g * c,))


def transpose(a) -> Tensor | np.ndarray:
    av = _value(a)
    value = np.ascontiguousarray(av.T)
    if not isinstance(a, Tensor):
        return value
    keep = _keep(a, av)
    return _result(value, "transpose", (a,), (lambda g: g.T,),
                   lambda: np.ascontiguousarray(keep().T))


def tanh(a) -> Tensor | np.ndarray:
    y = np.tanh(_value(a))
    if not isinstance(a, Tensor):
        return y
    return _result(y, "tanh", (a,), (lambda g: g * (1.0 - y * y),))


def relu(a) -> Tensor | np.ndarray:
    """Entrywise max(x, 0); the subgradient at exactly 0 is taken as 0."""
    av = _value(a)
    mask = av > 0.0
    value = av * mask
    if not isinstance(a, Tensor):
        return value
    return _result(value, "relu", (a,), (lambda g: g * mask,))


def softmax(a, temperature: float = 1.0, in_place: bool = False) -> Tensor | np.ndarray:
    """Temperature softmax of every column, max-subtracted for stability.

    Each column becomes a probability vector; a row softmax is
    ``transpose(softmax(transpose(x)))``. Logits are divided by the
    temperature first, so smaller temperatures sharpen toward each column's
    argmax. With ``in_place`` the result is written over a's value, which
    no vjp may then read, directly or through a kept copy's recipe.
    """
    z = _value(a)
    if not temperature > 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    out = z if in_place else None
    if temperature != 1.0:  # x / 1.0 == x exactly
        # over z, or into one fresh buffer that the rest then normalizes in place
        z = out = np.divide(z, temperature, out=out)
    y = np.subtract(z, np.maximum.reduce(z, axis=0, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=0, keepdims=True)
    if not isinstance(a, Tensor):
        return y

    def vjp(g):  # drops the map y once run: the graph is single-use
        nonlocal y
        gz = g * y
        np.subtract(g, np.add.reduce(gz, axis=0, keepdims=True), out=gz)
        gz *= y
        y = None
        if temperature != 1.0:
            gz /= temperature
        return gz

    return _result(y, "softmax", (a,), (vjp,))


def _concat(op: str, parts: tuple, axis: int) -> Tensor | np.ndarray:
    if len(parts) < 2:
        raise ValueError(f"{op} needs at least two inputs")
    values = [_value(p) for p in parts]
    if len({v.shape[1 - axis] for v in values}) != 1:
        raise ShapeError(f"{op}: {('row', 'column')[1 - axis]} counts differ, "
                         f"{[v.shape for v in values]}")
    value = np.concatenate(values, axis=axis)
    if not any(isinstance(p, Tensor) for p in parts):
        return value
    index, offset = [], 0
    for v in values:
        n = v.shape[axis]
        index.append((slice(None),) * axis + (slice(offset, offset + n),))
        offset += n
    keeps = [_keep(p, v) for p, v in zip(parts, values)]
    nested = [isinstance(p, Tensor) and p._node.op in ("concat_rows", "concat_cols")
              for p in parts]
    shape = value.shape

    def rebuild(out=None):
        # one buffer filled part by part; a part that is itself a concat
        # fills its own slice, so no inner copy is built on its own
        out = np.empty(shape) if out is None else out
        for keep, i, inner in zip(keeps, index, nested):
            if inner:
                keep(out[i])
            else:
                out[i] = keep()
        return out

    return _result(value, op, parts, tuple(lambda g, i=i: g[i] for i in index), rebuild)


def concat_rows(*parts) -> Tensor | np.ndarray:
    """Stack matrices vertically; every input must have the same column count."""
    return _concat("concat_rows", parts, 0)


def concat_cols(*parts) -> Tensor | np.ndarray:
    """Stack matrices horizontally; every input must have the same row count."""
    return _concat("concat_cols", parts, 1)


def gate_mix(gate, candidates: Sequence) -> Tensor | np.ndarray:
    """Mix K candidates clip by clip: column l is sum_j gate[j, l] * candidates[j][:, l].

    gate is K x L, one column per clip, so row j scales candidate j; the K
    candidates share one d x L shape. Terms are added left to right, j = 0 first.
    """
    parents = (*candidates, gate)
    rows = _value(gate)
    xs = [_value(x) for x in parents[:-1]]
    k, n_clips = rows.shape
    if len(xs) != k:
        raise ShapeError(f"gate_mix: {k} gate rows for {len(xs)} candidates")
    shape = xs[0].shape
    if shape[1] != n_clips or any(x.shape != shape for x in xs):
        raise ShapeError(f"gate_mix: candidates must share one shape with {n_clips} "
                         f"columns, got {[x.shape for x in xs]}")
    value = xs[0] * rows[0]  # a fresh buffer, so the sum builds in place
    for j in range(1, k):
        value += xs[j] * rows[j]
    if not any(isinstance(p, Tensor) for p in parents):
        return value
    keeps = [_keep(x, v) for x, v in zip(parents, xs)]

    def gate_vjp(g):
        out = np.empty((k, n_clips))
        for j, keep in enumerate(keeps):
            out[j] = np.add.reduce(g * keep(), axis=0)
        return out

    vjps = [lambda g, r=rows[j]: g * r for j in range(k)]
    return _result(value, "gate_mix", parents, (*vjps, gate_vjp))
