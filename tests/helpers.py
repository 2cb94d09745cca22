"""Shared helpers for the test suite.

Besides the error metric, a bitwise fingerprint of arrays and a walker
that finds the arrays a set of objects keeps alive, this holds the graph
ops only tests need: the scalar probes (sum_all, mean_all), sub and
hadamard for building test graphs, and the finite-difference oracle. The
ops are built on the public
``Tensor(value, op=..., parents=..., vjps=...)`` constructor, so they enter
a graph the way any library op does, and they keep the library's contract:
they take Tensors or arrays, and with no Tensor input they return the bare
value. ``ops`` gathers them with the library's ops for tests that call
every op as ``ad.<name>``.
"""

from types import FunctionType, SimpleNamespace

import numpy as np

from iaca import autodiff
from iaca.autodiff import ShapeError, Tensor, _value, scale


def bits(*arrays):
    """Dtype, shape and raw bytes of each array, for bitwise comparisons
    that tell -0.0 from 0.0 and one NaN payload from another."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def relative_error(a, b, floor=1e-8):
    """Norm-relative disagreement between two same-shaped arrays.

    Falls back to the absolute scale when both sides are tiny, so a pair of
    all-zero gradients compares as exactly equal instead of 0/0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return np.linalg.norm(a - b) / denom


def live_arrays(*roots):
    """The arrays kept alive by roots: through containers, every slot of a
    Tensor or graph node, and the closure cells and defaults of a vjp. A
    view counts as the array it views."""
    found, seen, stack = {}, set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
        elif isinstance(obj, FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
            stack += obj.__defaults__ or ()
        else:
            stack += [getattr(obj, name, None) for cls in type(obj).__mro__
                      for name in getattr(cls, "__slots__", ())]
    return list(found.values())


def _result(value, op: str, parents: tuple, vjps: tuple):
    # a node over the Tensor inputs, or the bare value when there is none
    if any(isinstance(p, Tensor) for p in parents):
        return Tensor(value, op=op, parents=parents, vjps=vjps)
    return value


def _same_shape(op: str, a, b) -> tuple[np.ndarray, np.ndarray]:
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ShapeError(f"{op}: shapes differ, {av.shape} vs {bv.shape}")
    return av, bv


def sub(a, b):
    av, bv = _same_shape("sub", a, b)
    return _result(av - bv, "sub", (a, b), (lambda g: g, lambda g: -g))


def hadamard(a, b):
    """Entrywise product of two same-shaped matrices (no broadcasting)."""
    av, bv = _same_shape("hadamard", a, b)
    return _result(av * bv, "hadamard", (a, b), (lambda g: g * bv, lambda g: g * av))


def sum_all(a):
    """Sum every entry into a 1x1 matrix."""
    av = _value(a)
    shape = av.shape
    return _result(np.array([[av.sum()]]), "sum_all", (a,),
                   (lambda g: np.full(shape, g[0, 0]),))


def mean_all(a):
    return scale(sum_all(a), 1.0 / _value(a).size)


def finite_diff(f, x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function, per entry.

    The oracle side of every gradient check: f is re-evaluated from scratch
    at x +/- eps*e_ij, so it must be deterministic and finite near x.
    """
    if eps <= 0:
        raise ValueError(f"finite_diff eps must be positive, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2.0 * eps)
    return grad


ops = SimpleNamespace(**{name: getattr(autodiff, name) for name in autodiff.__all__},
                      sub=sub, hadamard=hadamard, sum_all=sum_all, mean_all=mean_all,
                      finite_diff=finite_diff)
