import math
import weakref

import numpy as np
import pytest

from iaca import autodiff
from iaca.autodiff import ShapeError, Tensor

import reference as ref
from helpers import ops as ad, relative_error


def test_matmul_identity():
    b = np.arange(8.0).reshape(2, 4)
    out = ad.matmul(np.eye(2), b)
    np.testing.assert_array_equal(out.value, b)


def test_matmul_hand_case():
    out = ad.matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
    np.testing.assert_array_equal(out.value, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    assert "(2, 3)" in str(exc.value)


def test_matmul_grad_of_sum_is_ones_times_bt():
    rng = np.random.default_rng(0)
    a_val = rng.normal(size=(3, 4))
    b_val = rng.normal(size=(4, 2))

    a = Tensor(a_val)
    out = ad.sum_all(ad.matmul(a, b_val))
    out.backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b_val.T, atol=1e-12)

    fd = ad.finite_diff(lambda x: ad.matmul(Tensor(x), b_val).value.sum(), a_val, eps=1e-6)
    assert relative_error(a.grad, fd) < 1e-7


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    a, b, c = rng.normal(size=(5, 4)), rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
    left = ad.matmul(ad.matmul(a, b), c).value
    right = ad.matmul(a, ad.matmul(b, c)).value
    np.testing.assert_allclose(left, right, atol=1e-9)


def test_softmax_uniform_on_constant_column():
    out = ad.softmax(np.zeros((4, 1)))
    np.testing.assert_allclose(out.value, np.full((4, 1), 0.25), atol=1e-15)


def test_softmax_hand_case():
    out = ad.softmax(np.array([[math.log(1.0)], [math.log(3.0)]]))
    np.testing.assert_allclose(out.value, [[0.25], [0.75]], atol=1e-12)


def test_softmax_sharpening_limit():
    out = ad.softmax(np.array([[1.0], [2.0]]), temperature=0.01)
    np.testing.assert_allclose(out.value, [[0.0], [1.0]], atol=1e-8)


def test_softmax_rejects_bad_temperature():
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            ad.softmax(np.ones((2, 2)), temperature=t)


def test_softmax_slices_sum_to_one_over_wide_range():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.uniform(-700.0, 700.0, size=rng.integers(1, 9, size=2))
        cols = ad.softmax(m).value
        rows = ad.transpose(ad.softmax(ad.transpose(m))).value
        np.testing.assert_allclose(cols.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(cols >= 0.0) and np.all(rows >= 0.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 5))
    base = ad.softmax(m).value
    shifted = ad.softmax(m + 13.5).value
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_tanh_and_relu_basic():
    np.testing.assert_array_equal(ad.tanh(np.zeros((3, 3))).value, np.zeros((3, 3)))
    np.testing.assert_array_equal(ad.relu(np.array([[-1.0, 2.0]])).value, [[0.0, 2.0]])
    assert abs(ad.tanh(np.array([[1.0]])).value[0, 0] - 0.761594) < 1e-6


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor(np.array([[0.0, -2.0, 3.0]]))
    out = ad.sum_all(ad.relu(x))
    out.backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_hadamard_identity_and_shape_error():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 4))
    np.testing.assert_array_equal(ad.hadamard(m, np.ones((3, 4))).value, m)
    with pytest.raises(ShapeError):
        ad.hadamard(np.ones((3, 4)), np.ones((4, 3)))


def test_concat_and_transpose_shapes():
    a, b = np.ones((3, 5)), np.zeros((3, 5))
    assert ad.concat_rows(a, b).shape == (6, 5)
    m = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(ad.transpose(ad.transpose(m)).value, m)


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
    ad.sum_all(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_sum_tanh_at_zero_gives_ones():
    x = Tensor(np.zeros((2, 5)))
    ad.sum_all(ad.tanh(x)).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 5)))


def test_backward_rejects_non_scalar_seed():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (x + x).backward()


def test_backward_rejects_second_pass():
    x = Tensor(np.ones((2, 2)))
    out = ad.sum_all(ad.tanh(x))
    out.backward()
    with pytest.raises(RuntimeError):
        out.backward()
    # a fresh graph over the same leaf is also rejected: grads would double up
    with pytest.raises(RuntimeError):
        ad.sum_all(x).backward()


def test_backward_on_a_constant_seed_does_nothing():
    c = ad.sum_all(Tensor(np.ones((2, 2)), requires_grad=False))
    c.backward()
    assert c.grad is None and not c.requires_grad


def test_parents_are_nodes_without_values():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    y = ad.tanh(ad.matmul(x, w))
    (product,) = y.parents
    assert product.op == "matmul" and product.shape == (2, 4)
    assert product.parents == (x._node, w._node) and x._node.op == "leaf"
    assert not hasattr(product, "value")
    ad.sum_all(y).backward()
    assert product.grad is None and x._node.grad is x.grad


def test_a_value_no_vjp_reads_goes_with_its_last_tensor():
    # softmax's vjp reads its output, not its input: the product is freed
    # once the caller drops it, with the graph still to be differentiated
    rng = np.random.default_rng(13)
    a, b = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(3, 6)))
    z = ad.matmul(a, b)
    product = weakref.ref(z.value)
    y = ad.softmax(z)
    del z
    assert product() is None
    upstream = rng.normal(size=(5, 6))
    ad.sum_all(ad.hadamard(y, upstream)).backward()
    inner = (upstream * y.value).sum(axis=0, keepdims=True)
    np.testing.assert_array_equal(a.grad, (y.value * (upstream - inner)) @ b.value.T)


def test_grads_are_allocated_by_backward_for_reached_nodes_only():
    x, unused = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))
    hidden = ad.tanh(x)
    out = ad.sum_all(hidden)
    assert x.grad is None and hidden.grad is None
    out.backward()
    # a leaf keeps its grad; an interior node's is freed once passed on
    assert x.grad.shape == (2, 3) and hidden.grad is None
    assert unused.grad is None


def test_shared_leaf_accumulates_every_use():
    rng = np.random.default_rng(7)
    x_val = rng.normal(size=(3, 4))
    x = Tensor(x_val)
    out = ad.sum_all(x) + ad.sum_all(ad.hadamard(x, x)) + ad.sum_all(ad.tanh(x))
    out.backward()
    expected = 1.0 + 2.0 * x_val + (1.0 - np.tanh(x_val) ** 2)
    np.testing.assert_allclose(x.grad, expected, atol=1e-12)


def test_grads_own_c_contiguous_memory():
    # add passes its incoming grad through, transpose and concat pass views
    # of it; still no two leaves share memory, and every grad is
    # C-contiguous, since BLAS rounds differently on transposed operands
    a, b, c = (Tensor(np.full((2, 2), v)) for v in (1.0, 2.0, 3.0))
    # hidden is freed after backward, so its vjp records the grad it is handed
    received = []
    y = np.tanh(c.value)

    def hidden_vjp(g):
        received.append(g)
        return g * (1.0 - y * y)

    hidden = Tensor(y, "tanh", (c,), (hidden_vjp,))
    joined = ad.concat_cols(ad.add(a, b), ad.transpose(hidden))
    ad.sum_all(ad.tanh(joined)).backward()
    grads = [a.grad, b.grad, c.grad]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    assert len(received) == 1
    for g in grads + received:
        assert g.flags.c_contiguous


def _check_grads(build, values):
    leaves = [Tensor(v) for v in values]
    out = ad.sum_all(ad.tanh(build(*leaves)))
    out.backward()
    for k, v in enumerate(values):
        def f(x, k=k):
            trial = [Tensor(x if i == k else values[i]) for i in range(len(values))]
            return ad.sum_all(ad.tanh(build(*trial))).item()
        assert relative_error(leaves[k].grad, ad.finite_diff(f, v)) < 1e-7


def test_add_col_broadcasts_and_matches_finite_diff():
    rng = np.random.default_rng(8)
    a, col = rng.normal(size=(3, 5)), rng.normal(size=(3, 1))
    out = ad.add_col(a, col)
    np.testing.assert_array_equal(out.value, a + col)
    _check_grads(ad.add_col, [a, col])


def test_add_col_rejects_bad_column():
    for bad in (np.ones((2, 1)), np.ones((3, 2)), np.ones((1, 5))):
        with pytest.raises(ShapeError):
            ad.add_col(np.ones((3, 5)), bad)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gate_mix_matches_loop_and_finite_diff(k):
    rng = np.random.default_rng(9 + k)
    gate = rng.uniform(size=(k, 5))  # K x L: row j scales candidate j
    xs = [rng.normal(size=(4, 5)) for _ in range(k)]
    out = ad.gate_mix(gate, xs)
    expected = np.zeros((4, 5))
    for l in range(5):
        for j in range(k):
            expected[:, l] += gate[j, l] * xs[j][:, l]
    np.testing.assert_allclose(out.value, expected, atol=1e-14)
    _check_grads(lambda g, *cands: ad.gate_mix(g, cands), [gate, *xs])


def test_gate_mix_rejects_mis_shaped_gates():
    xs = [np.ones((4, 5)), np.ones((4, 5))]
    with pytest.raises(ShapeError, match="3 gate rows for 2 candidates"):
        ad.gate_mix(np.ones((3, 5)), xs)
    with pytest.raises(ShapeError, match="1 gate rows for 2 candidates"):
        ad.gate_mix(np.ones((1, 5)), xs)
    # a wrong column count, and the L x K layout
    for gate in (np.ones((2, 4)), np.ones((5, 2))):
        with pytest.raises(ShapeError):
            ad.gate_mix(gate, xs)
    with pytest.raises(ShapeError):
        ad.gate_mix(np.ones((2, 5)), [np.ones((4, 5)), np.ones((3, 5))])


def test_finite_diff_sum_and_squares():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 3))
    np.testing.assert_allclose(ad.finite_diff(lambda v: v.sum(), x), np.ones((3, 3)), atol=1e-9)
    fd = ad.finite_diff(lambda v: (v * v).sum(), np.array([[1.0, 2.0]]), eps=1e-5)
    np.testing.assert_allclose(fd, [[2.0, 4.0]], atol=1e-6)


# Randomized composite graphs: every leaf's backward gradient must agree with
# the finite-difference oracle. The program is generated once per case and
# re-executed from scratch for every probe, keeping the oracle independent.

_UNARY = ("tanh", "relu", "transpose", "softmax_cols", "softmax_rows")
_BINARY = ("add", "sub", "hadamard", "matmul", "concat_rows")


def _make_program(rng, n_leaves, n_ops):
    shapes = [tuple(rng.integers(1, 17, size=2)) for _ in range(n_leaves)]
    program = []
    pool = list(shapes)
    for _ in range(n_ops):
        op = rng.choice(_UNARY + _BINARY)
        if op in _UNARY:
            i = int(rng.integers(len(pool)))
            r, c = pool[i]
            program.append((op, i))
            pool.append((c, r) if op == "transpose" else (r, c))
        elif op == "matmul":
            pairs = [(i, j) for i, (_, ci) in enumerate(pool) for j, (rj, _) in enumerate(pool) if ci == rj]
            if not pairs:
                continue
            i, j = pairs[int(rng.integers(len(pairs)))]
            program.append((op, i, j))
            pool.append((pool[i][0], pool[j][1]))
        elif op == "concat_rows":
            pairs = [(i, j) for i, (_, ci) in enumerate(pool) for j, (_, cj) in enumerate(pool) if ci == cj]
            if not pairs:
                continue
            i, j = pairs[int(rng.integers(len(pairs)))]
            program.append((op, i, j))
            pool.append((pool[i][0] + pool[j][0], pool[i][1]))
        else:
            pairs = [(i, j) for i, si in enumerate(pool) for j, sj in enumerate(pool) if si == sj]
            if not pairs:
                continue
            i, j = pairs[int(rng.integers(len(pairs)))]
            program.append((op, i, j))
            pool.append(pool[i])
    return shapes, program


def _run_program(program, leaf_values):
    leaves = [Tensor(v) for v in leaf_values]
    pool = list(leaves)
    for op, *args in program:
        if op == "tanh":
            pool.append(ad.tanh(pool[args[0]]))
        elif op == "relu":
            pool.append(ad.relu(pool[args[0]]))
        elif op == "transpose":
            pool.append(ad.transpose(pool[args[0]]))
        elif op == "softmax_cols":
            pool.append(ad.softmax(pool[args[0]]))
        elif op == "softmax_rows":
            pool.append(ad.transpose(ad.softmax(ad.transpose(pool[args[0]]))))
        elif op == "add":
            pool.append(ad.add(pool[args[0]], pool[args[1]]))
        elif op == "sub":
            pool.append(ad.sub(pool[args[0]], pool[args[1]]))
        elif op == "hadamard":
            pool.append(ad.hadamard(pool[args[0]], pool[args[1]]))
        elif op == "matmul":
            pool.append(ad.matmul(pool[args[0]], pool[args[1]]))
        elif op == "concat_rows":
            pool.append(ad.concat_rows(pool[args[0]], pool[args[1]]))
    total = ad.sum_all(ad.tanh(pool[-1]))
    for node in pool[:-1]:
        total = ad.add(total, ad.sum_all(ad.tanh(node)))
    return total, leaves


@pytest.mark.parametrize("case_seed", range(12))
def test_backward_matches_finite_diff_on_random_graphs(case_seed):
    rng = np.random.default_rng(1000 + case_seed)
    shapes, program = _make_program(rng, n_leaves=3, n_ops=6)
    leaf_values = [rng.normal(size=s) for s in shapes]

    out, leaves = _run_program(program, leaf_values)
    out.backward()

    for k in range(len(leaf_values)):
        def f(x, k=k):
            vals = [x if i == k else leaf_values[i] for i in range(len(leaf_values))]
            return _run_program(program, vals)[0].item()

        fd = ad.finite_diff(f, leaf_values[k], eps=1e-5)
        assert relative_error(leaves[k].grad, fd) < 1e-4


def test_constants_are_pruned_from_the_graph():
    c1, c2 = (Tensor(np.ones((2, 2)), requires_grad=False) for _ in range(2))
    x = Tensor(np.ones((2, 2)))
    only_constants = ad.matmul(c1, c2)
    assert only_constants.parents == () and not only_constants.requires_grad
    assert only_constants.op == "constant"
    mixed = ad.hadamard(only_constants, x)
    assert mixed.parents == (x._node,) and mixed.requires_grad
    ad.sum_all(mixed).backward()
    assert c1.grad is None and only_constants.grad is None
    np.testing.assert_array_equal(x.grad, only_constants.value)


# every op the model runs, over inputs of the given shapes: (shapes, call on
# the input Tensors, whether the op may write its first input: softmax's out)
_OP_CASES = {
    "matmul": ([(3, 4), (4, 2)], lambda t: autodiff.matmul(*t), False),
    "add": ([(3, 4), (3, 4)], lambda t: autodiff.add(*t), False),
    "scale": ([(3, 4)], lambda t: autodiff.scale(t[0], 0.3), False),
    "transpose": ([(3, 4)], lambda t: autodiff.transpose(t[0]), False),
    "tanh": ([(3, 4)], lambda t: autodiff.tanh(t[0]), False),
    "relu": ([(3, 4)], lambda t: autodiff.relu(t[0]), False),
    "concat_rows": ([(2, 4), (3, 4), (1, 4)], lambda t: autodiff.concat_rows(*t), False),
    "concat_cols": ([(3, 2), (3, 4)], lambda t: autodiff.concat_cols(*t), False),
    "add_col": ([(3, 4), (3, 1)], lambda t: autodiff.add_col(*t), False),
    "gate_mix": ([(3, 4), (2, 4), (2, 4), (2, 4)],
                 lambda t: autodiff.gate_mix(t[0], t[1:]), False),
}
for _t in (1.0, 0.5, 0.3):
    _OP_CASES[f"softmax-T{_t}"] = (
        [(4, 5)], lambda t, _t=_t: autodiff.softmax(t[0], temperature=_t), False)
    _OP_CASES[f"softmax-T{_t}-out"] = (
        [(4, 5)], lambda t, _t=_t: autodiff.softmax(t[0], temperature=_t, out=t[0].value), True)


def test_the_constant_cases_cover_every_op_the_model_runs():
    ops = {name.split("-")[0] for name in _OP_CASES}
    assert ops == set(autodiff.__all__) - {"ShapeError", "Tensor"}


@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_an_op_over_constants_returns_a_constant_and_builds_no_node(monkeypatch, case):
    shapes, call, writes_first = _OP_CASES[case]
    rng = np.random.default_rng(8)
    values = [rng.normal(size=shape) for shape in shapes]
    expected = call([Tensor(v.copy()) for v in values]).value

    def no_graph(*args):
        raise AssertionError("an op over constants built a node or linked its inputs")

    inputs = [Tensor(v.copy(), requires_grad=False) for v in values]
    monkeypatch.setattr(autodiff._Node, "__init__", no_graph)
    monkeypatch.setattr(autodiff, "_result", no_graph)  # where vjps are handed over
    out = call(inputs)
    assert out.op == "constant" and out.parents == () and not out.requires_grad
    assert out.value.shape == expected.shape and out.value.tobytes() == expected.tobytes()
    if writes_first:
        assert out.value is inputs[0].value
    for i, (t, v) in enumerate(zip(inputs, values)):
        if not (writes_first and i == 0):
            assert t.value.tobytes() == v.tobytes(), f"input {i} was written"


# 0.5 divides exactly, 0.3 does not, so it also pins the order of operations
@pytest.mark.parametrize("temperature", [1.0, 0.5, 0.3])
def test_softmax_and_its_vjp_bitwise_equal_the_out_of_place_formulas(temperature):
    rng = np.random.default_rng(3)
    z, upstream = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
    expected = ref.ref_softmax(z, "columns", temperature)
    inner = (upstream * expected).sum(axis=0, keepdims=True)
    # out= (attention's maps) writes the same result over the input's buffer
    for in_place in (False, True):
        x = Tensor(z.copy())
        y = ad.softmax(x, temperature=temperature, out=x.value if in_place else None)
        assert (y.value is x.value) == in_place
        assert np.array_equal(y.value, expected)
        # sum(y * upstream) hands softmax's vjp exactly `upstream`
        ad.sum_all(ad.hadamard(y, upstream)).backward()
        assert np.array_equal(x.grad, expected * (upstream - inner) / temperature)


@pytest.mark.parametrize("out", [np.zeros((4, 3)), np.zeros((3, 4), dtype=np.float32),
                                 np.zeros((4, 3)).T, [[0.0] * 4] * 3],
                         ids=["wrong-shape", "float32", "transposed-view", "list"])
def test_softmax_rejects_a_bad_out_before_writing_it(out):
    before = np.array(out, copy=True)
    with pytest.raises(ShapeError, match="out"):
        ad.softmax(np.ones((3, 4)), out=out)
    assert np.array_equal(np.asarray(out), before)


def test_tanh_vjp_bitwise_equals_the_out_of_place_formula():
    rng = np.random.default_rng(4)
    v, upstream = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    x = Tensor(v)
    ad.sum_all(ad.hadamard(ad.tanh(x), upstream)).backward()
    y = np.tanh(v)
    assert np.array_equal(x.grad, upstream * (1.0 - y * y))
