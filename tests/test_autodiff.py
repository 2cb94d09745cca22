import math
import weakref

import numpy as np
import pytest

from iaca import autodiff
from iaca.autodiff import ShapeError, Tensor

import reference as ref
from helpers import bits, live_arrays, ops as ad, relative_error


def test_matmul_identity():
    b = np.arange(8.0).reshape(2, 4)
    out = ad.matmul(np.eye(2), b)
    np.testing.assert_array_equal(out, b)


def test_matmul_hand_case():
    out = ad.matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
    np.testing.assert_array_equal(out, [[3.0], [7.0]])


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
    left = ad.matmul(ad.matmul(a, b), c)
    right = ad.matmul(a, ad.matmul(b, c))
    np.testing.assert_allclose(left, right, atol=1e-9)


def test_softmax_uniform_on_constant_column():
    out = ad.softmax(np.zeros((4, 1)))
    np.testing.assert_allclose(out, np.full((4, 1), 0.25), atol=1e-15)


def test_softmax_hand_case():
    out = ad.softmax(np.array([[math.log(1.0)], [math.log(3.0)]]))
    np.testing.assert_allclose(out, [[0.25], [0.75]], atol=1e-12)


def test_softmax_sharpening_limit():
    out = ad.softmax(np.array([[1.0], [2.0]]), temperature=0.01)
    np.testing.assert_allclose(out, [[0.0], [1.0]], atol=1e-8)


def test_softmax_rejects_bad_temperature():
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            ad.softmax(np.ones((2, 2)), temperature=t)


def test_softmax_slices_sum_to_one_over_wide_range():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.uniform(-700.0, 700.0, size=rng.integers(1, 9, size=2))
        cols = ad.softmax(m)
        rows = ad.transpose(ad.softmax(ad.transpose(m)))
        np.testing.assert_allclose(cols.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(cols >= 0.0) and np.all(rows >= 0.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 5))
    base = ad.softmax(m)
    shifted = ad.softmax(m + 13.5)
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_tanh_and_relu_basic():
    np.testing.assert_array_equal(ad.tanh(np.zeros((3, 3))), np.zeros((3, 3)))
    np.testing.assert_array_equal(ad.relu(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])
    assert abs(ad.tanh(np.array([[1.0]]))[0, 0] - 0.761594) < 1e-6


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor(np.array([[0.0, -2.0, 3.0]]))
    out = ad.sum_all(ad.relu(x))
    out.backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_hadamard_identity_and_shape_error():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 4))
    np.testing.assert_array_equal(ad.hadamard(m, np.ones((3, 4))), m)
    with pytest.raises(ShapeError):
        ad.hadamard(np.ones((3, 4)), np.ones((4, 3)))


def test_concat_and_transpose_shapes():
    a, b = np.ones((3, 5)), np.zeros((3, 5))
    assert ad.concat_rows(a, b).shape == (6, 5)
    m = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(ad.transpose(ad.transpose(m)), m)


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
        ad.add(x, x).backward()


def test_backward_rejects_second_pass():
    x = Tensor(np.ones((2, 2)))
    out = ad.sum_all(ad.tanh(x))
    out.backward()
    with pytest.raises(RuntimeError):
        out.backward()
    # a fresh graph over the same leaf is also rejected: grads would double up
    with pytest.raises(RuntimeError):
        ad.sum_all(x).backward()


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


# each op whose output a consumer rebuilds, the layout ops and a product with
# a parameter leaf, as (its inputs' shapes, the op, its value from the input
# values, and the input grads from the copy's grad g and the input values);
# every copy is 4 x 6
LAYOUT_OPS = {
    "transpose": ([(6, 4)], ad.transpose, lambda x: np.ascontiguousarray(x.T),
                  lambda g, *_: [g.T]),
    "concat_rows": ([(1, 6), (3, 6)], ad.concat_rows, lambda x, y: np.concatenate([x, y]),
                    lambda g, *_: [g[:1], g[1:]]),
    "concat_cols": ([(4, 2), (4, 4)], ad.concat_cols, lambda x, y: np.concatenate([x, y], 1),
                    lambda g, *_: [g[:, :2], g[:, 2:]]),
    "parameter_product": ([(4, 3), (3, 6)], ad.matmul, lambda x, w: x @ w,
                          lambda g, x, w: [g @ w.T, x.T @ g]),
}

# each consumer that keeps a layout copy's recipe, as (the other operand's
# shape, the op over (copy, other), and the grads of copy and other from the
# copy's value c, the other's value o and the output's grad u)
CONSUMERS = {
    "matmul_a": ((6, 5), ad.matmul, lambda c, o, u: (u @ o.T, c.T @ u)),
    "matmul_b": ((5, 4), lambda c, o: ad.matmul(o, c), lambda c, o, u: (o.T @ u, u @ c.T)),
    "affine": ((5, 4), lambda c, o: ad.affine(o, c, np.ones((5, 1))),
               lambda c, o, u: (o.T @ u, u @ c.T)),
    "gate_scores": ((4, 2), lambda c, o: ad.gate_scores(o, c, 0.5),
                    lambda c, o, u: _scores_grads(c, o, u, 0.5)),
    "gate_blend": ((2, 6), lambda c, o: ad.gate_blend(o, (c, np.ones((4, 6)))),
                   lambda c, o, u: _blend_grads(c, o, u)),
}


def _scores_grads(c, o, u, temperature):
    # the scores softmax(o^T c / T): grads of the scorer c and the weight o
    wt = np.ascontiguousarray(o.T)
    y = ref.ref_softmax(wt @ c, "columns", temperature)
    gz = y * (u - (u * y).sum(axis=0, keepdims=True)) / temperature
    return wt.T @ gz, np.ascontiguousarray((gz @ c.T).T)


def _blend_grads(c, o, u):
    # the blend relu(o[0] c + o[1] 1): grads of the candidate c and the scores o
    mix = c * o[0] + np.ones((4, 6)) * o[1]
    m = u * (mix > 0.0)
    return m * o[0], np.stack([(m * c).sum(axis=0), m.sum(axis=0)])


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("layout", LAYOUT_OPS)
def test_a_layout_copy_goes_with_its_last_tensor(layout, consumer):
    # the consumer's vjp keeps the copy's recipe, not the copy: the copy is
    # freed once the caller drops it, and backward rebuilds it bit for bit;
    # so is a product with a parameter leaf (here both operands are leaves)
    rng = np.random.default_rng(17)
    shapes, op, copy_of, split = LAYOUT_OPS[layout]
    other_shape, consume, grads_of = CONSUMERS[consumer]
    inputs = [Tensor(rng.normal(size=shape)) for shape in shapes]
    other = Tensor(rng.normal(size=other_shape))
    c = op(*inputs)
    copy = weakref.ref(c.value)
    out = consume(c, other)
    del c
    assert copy() is None
    upstream = rng.normal(size=out.shape)
    ad.sum_all(ad.hadamard(out, upstream)).backward()
    values = [x.value for x in inputs]
    grad_c, grad_other = grads_of(copy_of(*values), other.value, upstream)
    assert bits(*(x.grad for x in inputs), other.grad) == bits(*split(grad_c, *values), grad_other)


def test_a_product_of_two_activations_is_kept_not_rebuilt():
    # only a product with a parameter leaf carries a recipe; the consumer of
    # one of two activations (an L x L correlation, an attended product)
    # keeps its value, so backward never multiplies it out again
    rng = np.random.default_rng(29)
    x, y, w = (Tensor(rng.normal(size=shape)) for shape in ((4, 3), (3, 6), (6, 5)))
    c = ad.matmul(ad.tanh(x), ad.tanh(y))
    assert c._recipe is None
    product = c.value
    out = ad.matmul(c, w)
    del c
    assert any(a is product for a in live_arrays(out))
    upstream = rng.normal(size=out.shape)
    ad.sum_all(ad.hadamard(out, upstream)).backward()
    assert bits(w.grad) == bits(product.T @ upstream)


def test_a_copy_of_a_copy_keeps_its_input_as_a_recipe():
    rng = np.random.default_rng(23)
    x, w = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(5, 16)))
    inner = ad.concat_cols(x, x)
    outer = ad.transpose(inner)
    stack = ad.concat_rows(x, x, outer)
    copies = [weakref.ref(c.value) for c in (inner, outer, stack)]
    out = ad.matmul(w, stack)
    del inner, outer, stack
    assert [copy() is None for copy in copies] == [True, True, True]
    upstream = rng.normal(size=out.shape)
    ad.sum_all(ad.hadamard(out, upstream)).backward()
    stack = np.concatenate([x.value, x.value, np.ascontiguousarray(
        np.concatenate([x.value, x.value], axis=1).T)])
    assert bits(w.grad) == bits(upstream @ stack.T)


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
    out = ad.add(ad.add(ad.sum_all(x), ad.sum_all(ad.hadamard(x, x))), ad.sum_all(ad.tanh(x)))
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


def test_add_broadcasts_a_column_and_matches_finite_diff():
    rng = np.random.default_rng(8)
    a, col = rng.normal(size=(3, 5)), rng.normal(size=(3, 1))
    out = ad.add(a, col)
    np.testing.assert_array_equal(out, a + col)
    _check_grads(ad.add, [a, col])


def test_add_rejects_a_b_of_neither_shape():
    for bad in (np.ones((2, 1)), np.ones((3, 2)), np.ones((1, 5))):
        with pytest.raises(ShapeError):
            ad.add(np.ones((3, 5)), bad)
    with pytest.raises(ShapeError, match=r"^add needs b of shape \(3, 5\) or 3x1, got \(1, 5\)$"):
        ad.add(np.ones((3, 5)), np.ones((1, 5)))
    # only b broadcasts: a column is not added to a matrix b
    with pytest.raises(ShapeError, match=r"^add needs b of shape \(3, 1\) or 3x1, got \(3, 5\)$"):
        ad.add(np.ones((3, 1)), np.ones((3, 5)))
    # values enter 2-D: a scalar is not taken for a 1 x 1 column
    with pytest.raises(ShapeError, match=r"expected a 2-D value, got shape \(\)"):
        ad.add(np.ones((1, 5)), 1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gate_blend_matches_loop_and_finite_diff(k):
    rng = np.random.default_rng(9 + k)
    gate = rng.uniform(size=(k, 5))  # K x L: row j scales candidate j
    xs = [rng.normal(size=(4, 5)) for _ in range(k)]
    out = ad.gate_blend(gate, xs)
    expected = np.zeros((4, 5))
    for l in range(5):
        for j in range(k):
            expected[:, l] += gate[j, l] * xs[j][:, l]
    np.testing.assert_allclose(out, np.maximum(expected, 0.0), atol=1e-14)
    _check_grads(lambda g, *cands: ad.gate_blend(g, cands), [gate, *xs])


def test_gate_blend_rejects_mis_shaped_gates():
    xs = [np.ones((4, 5)), np.ones((4, 5))]
    with pytest.raises(ShapeError, match="3 gate rows for 2 candidates"):
        ad.gate_blend(np.ones((3, 5)), xs)
    with pytest.raises(ShapeError, match="1 gate rows for 2 candidates"):
        ad.gate_blend(np.ones((1, 5)), xs)
    # a wrong column count, and the L x K layout
    for gate in (np.ones((2, 4)), np.ones((5, 2))):
        with pytest.raises(ShapeError):
            ad.gate_blend(gate, xs)
    with pytest.raises(ShapeError):
        ad.gate_blend(np.ones((2, 5)), [np.ones((4, 5)), np.ones((3, 5))])


def test_affine_attend_and_scores_match_finite_diff():
    rng = np.random.default_rng(31)
    w, x, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(3, 1))
    _check_grads(ad.affine, [w, x, b])
    m = ad.softmax(rng.normal(size=(5, 5)))
    _check_grads(ad.attend, [x, m])
    _check_grads(lambda w, s: ad.gate_scores(w, s, 0.3), [rng.normal(size=(4, 3)), x])


def test_affine_and_attend_reject_mis_shaped_inputs():
    with pytest.raises(ShapeError, match="affine"):
        ad.affine(np.ones((3, 4)), np.ones((5, 2)), np.ones((3, 1)))
    for b in (np.ones((2, 1)), np.ones((3, 2))):  # a bias is an r x 1 column
        with pytest.raises(ShapeError, match="affine"):
            ad.affine(np.ones((3, 4)), np.ones((4, 2)), b)
    for m in (np.ones((4, 4)), np.ones((5, 4))):  # the map is L x L
        with pytest.raises(ShapeError, match="attend"):
            ad.attend(np.ones((3, 5)), m)
    with pytest.raises(ShapeError, match="gate_scores"):
        ad.gate_scores(np.ones((4, 2)), np.ones((3, 5)), 1.0)
    with pytest.raises(ValueError, match="temperature"):
        ad.gate_scores(np.ones((3, 2)), np.ones((3, 5)), 0.0)


# each fused op and the chain of ops it replaces, over leaves of the given
# shapes; an L x L map enters as a softmax, as attention's maps do
_CHAINS = {
    "affine": ([(3, 4), (4, 5), (3, 1)], lambda t: ad.affine(*t),
               lambda t: ad.add(ad.matmul(t[0], t[1]), t[2])),
    "attend": ([(3, 5), (5, 5)], lambda t: ad.attend(t[0], ad.softmax(t[1])),
               lambda t: ad.tanh(ad.add(t[0], ad.matmul(t[0], ad.softmax(t[1]))))),
    "gate_blend": ([(3, 5), (3, 5), (3, 5), (3, 5)],
                   lambda t: ad.gate_blend(ad.softmax(t[0]), t[1:]),
                   lambda t: ad.relu(ad.gate_mix(ad.softmax(t[0]), t[1:]))),
}
for _t in (1.0, 0.5, 0.3):
    _CHAINS[f"gate_scores-T{_t}"] = (
        [(6, 3), (6, 5)], lambda t, _t=_t: ad.gate_scores(t[0], t[1], _t),
        lambda t, _t=_t: ad.softmax(ad.matmul(ad.transpose(t[0]), t[1]), temperature=_t))


@pytest.mark.parametrize("case", sorted(_CHAINS))
def test_a_fused_op_bitwise_equals_the_chain_it_replaces(case):
    # the value, and every input's grad under a random upstream; each input
    # also feeds a tanh probe that backward reaches first, so a grad sums
    # several contributions and its bits pin the order in which the op hands
    # them over
    shapes, fused, chain = _CHAINS[case]
    rng = np.random.default_rng(37)
    values = [rng.normal(size=shape) for shape in shapes]
    probes = [rng.normal(size=shape) for shape in shapes]

    def run(build):
        leaves = [Tensor(v) for v in values]
        out = build(leaves)
        upstream = np.random.default_rng(41).normal(size=out.shape)
        loss = ad.sum_all(ad.hadamard(out, upstream))
        for leaf, probe in zip(leaves, probes):
            loss = ad.add(ad.sum_all(ad.hadamard(ad.tanh(leaf), probe)), loss)
        loss.backward()
        return [out.value, *(leaf.grad for leaf in leaves)]

    assert bits(*run(fused)) == bits(*run(chain))


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
    # a constant is a plain array: an op over arrays alone returns an array,
    # and a node links only the nodes of its Tensor inputs
    c1, c2 = np.ones((2, 2)), np.ones((2, 2))
    x = Tensor(np.ones((2, 2)))
    only_constants = ad.matmul(c1, c2)
    assert type(only_constants) is np.ndarray
    mixed = ad.hadamard(only_constants, x)
    assert mixed.parents == (x._node,)
    ad.sum_all(mixed).backward()
    np.testing.assert_array_equal(x.grad, only_constants)


# every op the model runs, over inputs of the given shapes: (shapes, call on
# the inputs, whether the op writes over its first input: softmax's
# in_place, whose cases keep the id suffix "out")
_OP_CASES = {
    "matmul": ([(3, 4), (4, 2)], lambda t: autodiff.matmul(*t), False),
    "add": ([(3, 4), (3, 4)], lambda t: autodiff.add(*t), False),
    "scale": ([(3, 4)], lambda t: autodiff.scale(t[0], 0.3), False),
    "transpose": ([(3, 4)], lambda t: autodiff.transpose(t[0]), False),
    "tanh": ([(3, 4)], lambda t: autodiff.tanh(t[0]), False),
    "relu": ([(3, 4)], lambda t: autodiff.relu(t[0]), False),
    "concat_rows": ([(2, 4), (3, 4), (1, 4)], lambda t: autodiff.concat_rows(*t), False),
    "concat_cols": ([(3, 2), (3, 4)], lambda t: autodiff.concat_cols(*t), False),
    "add-col": ([(3, 4), (3, 1)], lambda t: autodiff.add(*t), False),
    "affine": ([(3, 4), (4, 2), (3, 1)], lambda t: autodiff.affine(*t), False),
    "attend": ([(3, 4), (4, 4)], lambda t: autodiff.attend(*t), False),
    "gate_blend": ([(3, 4), (2, 4), (2, 4), (2, 4)],
                   lambda t: autodiff.gate_blend(t[0], t[1:]), False),
}
for _t in (1.0, 0.5, 0.3):
    _OP_CASES[f"gate_scores-T{_t}"] = (
        [(4, 3), (4, 5)], lambda t, _t=_t: autodiff.gate_scores(t[0], t[1], _t), False)
    _OP_CASES[f"softmax-T{_t}"] = (
        [(4, 5)], lambda t, _t=_t: autodiff.softmax(t[0], temperature=_t), False)
    _OP_CASES[f"softmax-T{_t}-out"] = (
        [(4, 5)], lambda t, _t=_t: autodiff.softmax(t[0], temperature=_t, in_place=True), True)


def test_the_constant_cases_cover_every_op_the_model_runs():
    ops = {name.split("-")[0] for name in _OP_CASES}
    assert ops == set(autodiff.__all__) - {"ShapeError", "Tensor"}


@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_an_op_over_constants_returns_a_constant_and_builds_no_node(monkeypatch, case):
    # a constant is a plain array: an op over float64 arrays alone returns a
    # bare array, bitwise the value of the same op on leaves
    shapes, call, writes_first = _OP_CASES[case]
    rng = np.random.default_rng(8)
    values = [rng.normal(size=shape) for shape in shapes]
    expected = call([Tensor(v.copy()) for v in values]).value

    def no_graph(*args):
        raise AssertionError("an op over constants built a node or linked its inputs")

    monkeypatch.setattr(autodiff._Node, "__init__", no_graph)
    monkeypatch.setattr(autodiff, "_result", no_graph)  # where vjps are handed over
    inputs = [v.copy() for v in values]
    out = call(inputs)
    assert type(out) is np.ndarray
    assert bits(out) == bits(expected)
    if writes_first:
        assert out is inputs[0]
    for i, (x, v) in enumerate(zip(inputs, values)):
        if not (writes_first and i == 0):
            assert x.tobytes() == v.tobytes(), f"input {i} was written"


_CONVERSIONS = {
    "float32": lambda v: v.astype(np.float32),
    "fortran": np.asfortranarray,
    "nested-list": lambda v: v.tolist(),
}


@pytest.mark.parametrize("form", sorted(_CONVERSIONS))
@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_an_op_reads_a_converted_input_as_its_float64_copy(case, form):
    # an array that is not float64 and C-contiguous is converted as Tensor
    # converts its value; the caller's array is never written
    shapes, call, _ = _OP_CASES[case]
    rng = np.random.default_rng(9)
    values = [rng.normal(size=shape) for shape in shapes]
    for i in range(len(values)):
        given = _CONVERSIONS[form](values[i])
        copy = np.ascontiguousarray(given, dtype=np.float64)
        before = bits(np.asarray(given))
        out = call([given if j == i else v.copy() for j, v in enumerate(values)])
        expected = call([copy if j == i else v.copy() for j, v in enumerate(values)])
        assert bits(out) == bits(expected), f"input {i}"
        assert bits(np.asarray(given)) == before, f"input {i} was written"


@pytest.mark.parametrize("bad", [np.ones(4), np.float64(1.0)], ids=["1-D", "0-d"])
@pytest.mark.parametrize("case", sorted(_OP_CASES))
def test_an_op_rejects_an_input_that_is_not_2d(case, bad):
    shapes, call, _ = _OP_CASES[case]
    for i in range(len(shapes)):
        inputs = [np.ones(shape) for shape in shapes]
        inputs[i] = bad
        with pytest.raises(ShapeError, match="expected a 2-D value"):
            call(inputs)


def test_plain_arrays_beside_a_leaf_enter_the_graph_as_constants():
    # the arrays are linked nowhere, and an array the op converts first
    # (Fortran-ordered here) leaves the same graph and the same grads
    rng = np.random.default_rng(14)
    x_value = rng.normal(size=(3, 4))
    w, col, gate, other, probe = (rng.normal(size=shape) for shape in
                                  [(3, 3), (3, 1), (2, 4), (3, 4), (6, 4)])

    def loss(wrap):
        x = Tensor(x_value.copy())
        h = ad.add(ad.matmul(wrap(w), x), wrap(col))
        mixed = ad.gate_blend(wrap(gate), [ad.softmax(h, temperature=0.5), wrap(other)])
        out = ad.sum_all(ad.hadamard(ad.concat_rows(ad.tanh(mixed), wrap(other)), wrap(probe)))
        return x, out

    x_raw, raw = loss(lambda v: v)
    x_conv, conv = loss(np.asfortranarray)
    ops = [[node.op for node in autodiff._topo_order(t._node)] for t in (raw, conv)]
    assert ops[0] == ops[1] and ops[0].count("leaf") == 1
    raw.backward()
    conv.backward()
    assert bits(x_raw.grad) == bits(x_conv.grad)


# 0.5 divides exactly, 0.3 does not, so it also pins the order of operations
@pytest.mark.parametrize("temperature", [1.0, 0.5, 0.3])
def test_softmax_and_its_vjp_bitwise_equal_the_out_of_place_formulas(temperature):
    rng = np.random.default_rng(3)
    z, upstream = rng.normal(size=(5, 7)), rng.normal(size=(5, 7))
    expected = ref.ref_softmax(z, "columns", temperature)
    inner = (upstream * expected).sum(axis=0, keepdims=True)
    # in_place (attention's maps) writes the same result over the input's buffer
    for in_place in (False, True):
        x = Tensor(z.copy())
        y = ad.softmax(x, temperature=temperature, in_place=in_place)
        assert (y.value is x.value) == in_place
        assert np.array_equal(y.value, expected)
        # sum(y * upstream) hands softmax's vjp exactly `upstream`
        ad.sum_all(ad.hadamard(y, upstream)).backward()
        assert np.array_equal(x.grad, expected * (upstream - inner) / temperature)


def test_tanh_vjp_bitwise_equals_the_out_of_place_formula():
    rng = np.random.default_rng(4)
    v, upstream = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    x = Tensor(v)
    ad.sum_all(ad.hadamard(ad.tanh(x), upstream)).backward()
    y = np.tanh(v)
    assert np.array_equal(x.grad, upstream * (1.0 - y * y))
