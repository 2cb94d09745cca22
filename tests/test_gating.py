import numpy as np
import pytest

from iaca import autodiff as ad
from iaca.autodiff import ShapeError, Tensor, concat_cols
from iaca.gating import (
    FusionModel,
    HeadParams,
    JointParams,
    ModelFlags,
    joint_representation,
    predict,
    stage1_gate,
    stage2_gate,
)
from iaca.metrics import ccc_loss

import reference as ref
from helpers import finite_diff, hadamard, mean_all, relative_error, sub, sum_all

ALL_VARIANTS = ["CA", "TCA", "JCA", "RJCA"]


def _features(rng, d=4, n_clips=5):
    return rng.normal(size=(d, n_clips)), rng.normal(size=(d, n_clips))


# ---------------------------------------------------------------- stage 1

def test_stage1_identical_candidates_reduce_to_relu():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 2))
    out, _ = stage1_gate(Tensor(x), Tensor(x), Tensor(w), temperature=0.1)
    assert np.allclose(out.value, np.maximum(x, 0.0), atol=1e-12)


def test_stage1_zero_weights_average_candidates():
    rng = np.random.default_rng(21)
    xb = rng.normal(size=(3, 4))
    xt = rng.normal(size=(3, 4))
    out, g = stage1_gate(Tensor(xb), Tensor(xt), Tensor(np.zeros((3, 2))), 0.1)
    assert np.allclose(g.value, 0.5, atol=1e-12)
    assert np.allclose(out.value, np.maximum((xb + xt) / 2.0, 0.0), atol=1e-12)


def test_stage1_low_temperature_selects_attended():
    # logits for the single clip are exactly [1, 2]
    x_att = Tensor([[1.0]])
    w = Tensor([[1.0, 2.0]])
    out, g = stage1_gate(Tensor([[5.0]]), x_att, w, temperature=0.01)
    assert g.value[0, 1] > 1.0 - 1e-8
    assert abs(out.value[0, 0] - 1.0) < 1e-8


def test_stage1_matches_oracle():
    rng = np.random.default_rng(22)
    xb = rng.normal(size=(4, 3))
    xt = rng.normal(size=(4, 3))
    w = rng.normal(size=(4, 2))
    out, g = stage1_gate(Tensor(xb), Tensor(xt), Tensor(w), 0.1)
    r_out, r_g = ref.ref_stage1(xb, xt, w, 0.1)
    assert relative_error(out.value, r_out) < 1e-12
    assert relative_error(g.value, r_g) < 1e-12


def test_stage1_rejects_bad_inputs():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        stage1_gate(Tensor(np.zeros((3, 5))), x, Tensor(np.zeros((3, 2))), 0.1)
    with pytest.raises(ShapeError):
        stage1_gate(x, x, Tensor(np.zeros((3, 3))), 0.1)
    with pytest.raises(ValueError):
        stage1_gate(x, x, Tensor(np.zeros((3, 2))), 0.0)


def test_stage1_scores_shift_invariant():
    # adding the same offset to both gate columns shifts every row's
    # logits by a per-clip constant and must not move the scores
    rng = np.random.default_rng(23)
    xb, xt = _features(rng)
    w = rng.normal(size=(4, 2))
    u = rng.normal(size=(4, 1))
    _, g = stage1_gate(Tensor(xb), Tensor(xt), Tensor(w), 0.1)
    _, g_shifted = stage1_gate(Tensor(xb), Tensor(xt),
                               Tensor(w + u @ np.ones((1, 2))), 0.1)
    assert np.allclose(g.value, g_shifted.value, atol=1e-9)


# ---------------------------------------------------------- joint + stage 2

def test_joint_representation_projection_case():
    rng = np.random.default_rng(24)
    xa, xv = _features(rng, 3, 5)
    w = np.hstack([np.eye(3), np.zeros((3, 3))])
    out = joint_representation(Tensor(xa), Tensor(xv),
                               JointParams(Tensor(w), Tensor(np.zeros((3, 1)))))
    assert out.shape == (3, 5)
    assert np.allclose(out.value, xa, atol=1e-12)


def test_joint_representation_matches_oracle():
    rng = np.random.default_rng(25)
    xa, xv = _features(rng, 4, 6)
    w = rng.normal(size=(4, 8))
    b = rng.normal(size=(4, 1))
    out = joint_representation(Tensor(xa), Tensor(xv),
                               JointParams(Tensor(w), Tensor(b)))
    assert relative_error(out.value, ref.ref_joint(xa, xv, w, b)) < 1e-12


def test_stage2_identical_candidates_reduce_to_relu():
    rng = np.random.default_rng(26)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(9, 3))
    out, _ = stage2_gate(Tensor(x), Tensor(x), Tensor(x), Tensor(w), 0.1)
    assert np.allclose(out.value, np.maximum(x, 0.0), atol=1e-12)


def test_stage2_zero_weights_uniform_gate():
    rng = np.random.default_rng(27)
    xa, xv = _features(rng, 3, 4)
    xj = rng.normal(size=(3, 4))
    _, g = stage2_gate(Tensor(xa), Tensor(xv), Tensor(xj),
                       Tensor(np.zeros((9, 3))), 0.1)
    assert np.allclose(g.value, 1.0 / 3.0, atol=1e-12)


def test_stage2_matches_oracle():
    rng = np.random.default_rng(28)
    xa, xv = _features(rng, 4, 5)
    xj = rng.normal(size=(4, 5))
    w = rng.normal(size=(12, 3))
    out, g = stage2_gate(Tensor(xa), Tensor(xv), Tensor(xj), Tensor(w), 0.1)
    r_out, r_g = ref.ref_stage2(xa, xv, xj, w, 0.1)
    assert relative_error(out.value, r_out) < 1e-12
    assert relative_error(g.value, r_g) < 1e-12


def test_stage2_rejects_bad_shapes():
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        stage2_gate(x, x, Tensor(np.zeros((3, 5))), Tensor(np.zeros((9, 3))), 0.1)
    with pytest.raises(ShapeError):
        stage2_gate(x, x, x, Tensor(np.zeros((8, 3))), 0.1)
    # a joint candidate a row short, with weights sized to the stacked rows:
    # only gate_mix sees that the candidates differ
    with pytest.raises(ShapeError):
        stage2_gate(x, x, Tensor(np.zeros((2, 4))), Tensor(np.zeros((8, 3))), 0.1)


@pytest.mark.parametrize("stage", [1, 2])
def test_gates_bitwise_equal_the_public_op_composition(stage):
    # stage 1 scores the attended candidate, stage 2 all three stacked
    rng = np.random.default_rng(46)
    d, n_clips, k = 4, 6, stage + 1
    values = [rng.normal(size=(d, n_clips)) for _ in range(k)]
    w = rng.normal(size=(d if stage == 1 else 3 * d, k))
    up_out, up_g = rng.normal(size=(d, n_clips)), rng.normal(size=(n_clips, k))

    def run(public):
        leaves = [Tensor(v) for v in (*values, w)]
        *cands, w_t = leaves
        if public:
            scorer = cands[1] if stage == 1 else ad.concat_rows(*cands)
            scores = ad.softmax(ad.matmul(ad.transpose(w_t), scorer), "columns", 0.5)
            out, g = ad.relu(ad.gate_mix(scores, cands)), ad.transpose(scores)
        else:
            out, g = (stage1_gate if stage == 1 else stage2_gate)(*cands, w_t, 0.5)
        (sum_all(hadamard(out, up_out)) + sum_all(hadamard(g, up_g))).backward()
        return out, g, leaves

    (out, g, leaves), (ref_out, ref_g, ref_leaves) = run(False), run(True)
    assert np.array_equal(out.value, ref_out.value)
    assert np.array_equal(g.value, ref_g.value)
    for leaf, ref_leaf in zip(leaves, ref_leaves):
        assert np.array_equal(leaf.grad, ref_leaf.grad)


def test_gate_rows_live_on_simplex():
    rng = np.random.default_rng(29)
    for _ in range(5):
        xb, xt = _features(rng, 4, 7)
        _, g1 = stage1_gate(Tensor(xb), Tensor(xt),
                            Tensor(rng.normal(size=(4, 2))), 0.1)
        s1 = g1.value
        assert np.allclose(s1.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(s1 >= 0.0) and np.all(s1 <= 1.0)
        xj = rng.normal(size=(4, 7))
        _, g2 = stage2_gate(Tensor(xb), Tensor(xt), Tensor(xj),
                            Tensor(rng.normal(size=(12, 3))), 0.1)
        s2 = g2.value
        assert np.allclose(s2.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(s2 >= 0.0)


def test_gate_outputs_nonnegative():
    rng = np.random.default_rng(30)
    xb, xt = _features(rng, 5, 6)
    out1, _ = stage1_gate(Tensor(xb), Tensor(xt), Tensor(rng.normal(size=(5, 2))), 0.1)
    assert np.all(out1.value >= 0.0)
    xj = rng.normal(size=(5, 6))
    out2, _ = stage2_gate(Tensor(xb), Tensor(xt), Tensor(xj),
                          Tensor(rng.normal(size=(15, 3))), 0.1)
    assert np.all(out2.value >= 0.0)


def test_temperature_sharpens_toward_argmax():
    rng = np.random.default_rng(31)
    xb, xt = _features(rng, 4, 6)
    w = rng.normal(size=(4, 2))
    prev_max = None
    for temperature in (2.0, 0.5, 0.1, 0.01):
        _, g = stage1_gate(Tensor(xb), Tensor(xt), Tensor(w), temperature)
        cur_max = g.value.max(axis=1)
        if prev_max is not None:
            assert np.all(cur_max >= prev_max - 1e-12)
        prev_max = cur_max
    logits = xt.T @ w
    onehot = np.zeros_like(logits)
    onehot[np.arange(len(logits)), logits.argmax(axis=1)] = 1.0
    _, g = stage1_gate(Tensor(xb), Tensor(xt), Tensor(w), 1e-4)
    assert np.allclose(g.value, onehot, atol=1e-9)


def test_tied_logits_stay_uniform_at_any_temperature():
    x = np.ones((3, 4))
    w = np.ones((3, 2))
    for temperature in (1.0, 0.01):
        _, g = stage1_gate(Tensor(x), Tensor(x), Tensor(w), temperature)
        assert np.allclose(g.value, 0.5, atol=1e-12)


# ----------------------------------------------------------------- MLP head

def test_predict_shape_and_range():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(4, 7))
    head = HeadParams(Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(6, 1))),
                      Tensor(rng.normal(size=(1, 6))), Tensor(rng.normal(size=(1, 1))))
    out = predict(Tensor(x), head)
    assert out.shape == (1, 7)
    assert np.all(np.abs(out.value) <= 1.0)
    r = ref.ref_predict(x, head.w1.value, head.b1.value, head.w2.value, head.b2.value)
    assert relative_error(out.value, r) < 1e-12


def test_predict_zero_weights_constant_output():
    x = Tensor(np.random.default_rng(33).normal(size=(3, 5)))
    head = HeadParams(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 1))),
                      Tensor(np.zeros((1, 4))), Tensor([[0.7]]))
    out = predict(x, head)
    assert np.allclose(out.value, np.tanh(0.7), atol=1e-12)


# -------------------------------------------------------------- full model

def test_create_validates_arguments():
    with pytest.raises(ValueError):
        FusionModel.create(0, "CA", True)
    with pytest.raises(ValueError):
        FusionModel.create(4, "XCA", True)
    with pytest.raises(ValueError):
        FusionModel.create(4, "CA", True, ModelFlags(temperature=-1.0))
    # the gates divide their logits by the temperature: at 1e-320 they
    # overflow to inf and every prediction is NaN; 1e-300 still predicts
    with pytest.raises(ValueError, match="temperature"):
        FusionModel.create(4, "CA", True, ModelFlags(temperature=1e-320))
    FusionModel.create(4, "CA", True, ModelFlags(temperature=1e-300))
    with pytest.raises(ValueError, match="temperature"):
        FusionModel.create(4, "CA", True, ModelFlags(temperature=10**400))


def test_param_inventory_tracks_configuration():
    base = FusionModel.create(4, "CA", iaca=False, seed=0)
    gated = FusionModel.create(4, "CA", iaca=True, seed=0)
    extra = {"gate_a.w", "gate_v.w", "gate_av.w"}
    assert set(gated.params) - set(base.params) == extra
    sizes = [sum(v.size for v in m.params.values()) for m in (gated, base)]
    assert sizes[0] == sizes[1] + 4 * 2 + 4 * 2 + 12 * 3

    shared = FusionModel.create(4, "RJCA", iaca=True)
    assert any(k.startswith("jca.") for k in shared.params)
    assert not any(k.startswith("rjca") for k in shared.params)


def test_bind_produces_fresh_leaves():
    model = FusionModel.create(3, "CA", iaca=True, seed=1)
    a = model.bind()
    b = model.bind()
    assert set(a) == set(model.params)
    for k in a:
        assert a[k] is not b[k]
        assert np.array_equal(a[k].value, model.params[k])


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("iaca", [False, True])
def test_forward_shape_and_diagnostics(variant, iaca):
    rng = np.random.default_rng(34)
    xa, xv = _features(rng, 4, 6)
    model = FusionModel.create(4, variant, iaca=iaca, seed=2)
    pred, diag = model.forward(xa, xv)
    assert pred.shape == (1, 6)
    assert np.all(np.abs(pred) <= 1.0)
    assert diag.audio_weights.shape == (6, 6)
    assert diag.visual_weights.shape == (6, 6)
    if iaca:
        assert diag.stage1_audio.shape == (6, 2)
        assert diag.stage1_visual.shape == (6, 2)
        assert diag.stage2.shape == (6, 3)
    else:
        assert diag.stage1_audio is None
        assert diag.stage2 is None


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("iaca", [False, True])
def test_forward_matches_straight_line_oracle(variant, iaca):
    rng = np.random.default_rng(35)
    xa, xv = _features(rng, 4, 6)
    model = FusionModel.create(4, variant, iaca=iaca, seed=3)
    pred, _ = model.forward(xa, xv)
    r = ref.ref_full_forward(xa, xv, model.params, variant, iaca)
    assert relative_error(pred, r) < 1e-12


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_prediction_permutation_equivariance(variant):
    rng = np.random.default_rng(38)
    xa, xv = _features(rng, 4, 6)
    model = FusionModel.create(4, variant, iaca=True, seed=6)
    perm = rng.permutation(6)
    base, _ = model.forward(xa, xv)
    shuffled, _ = model.forward(xa[:, perm], xv[:, perm])
    assert np.allclose(shuffled, base[:, perm], atol=1e-12)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_zeroed_modality_keeps_forward_finite(variant):
    rng = np.random.default_rng(39)
    xa, xv = _features(rng, 4, 6)
    model = FusionModel.create(4, variant, iaca=True, seed=7)
    for pair in ((np.zeros_like(xa), xv), (xa, np.zeros_like(xv))):
        pred, _ = model.forward(*pair)
        assert np.all(np.isfinite(pred))


def test_forward_graph_builds_on_given_leaves():
    rng = np.random.default_rng(40)
    xa, xv = _features(rng, 3, 4)
    model = FusionModel.create(3, "CA", iaca=True, seed=8)
    leaves = model.bind()
    pred, _ = model.forward_graph(Tensor(xa), Tensor(xv), leaves)
    loss = mean_all(pred)
    loss.backward()
    assert any(np.any(leaves[k].grad != 0.0) for k in leaves)


@pytest.mark.parametrize("iaca", [False, True])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_predict_values_is_bitwise_the_graph_forward(variant, iaca):
    rng = np.random.default_rng(42)
    xa, xv = _features(rng, 5, 7)
    model = FusionModel.create(5, variant, iaca=iaca, seed=10)
    pred, diag = model.forward_graph(Tensor(xa), Tensor(xv), model.bind())
    assert pred.parents
    values = model.predict_values(xa, xv)
    assert values.tobytes() == pred.value.tobytes()
    _, value_diag = model.forward(xa, xv)
    for name in ("audio_weights", "visual_weights", "stage1_audio", "stage2"):
        a, b = getattr(diag, name), getattr(value_diag, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("iaca", [False, True])
def test_forward_keeps_no_graph(monkeypatch, iaca):
    built = []
    forward_graph = FusionModel.forward_graph

    def recording(model, xa, xv, leaves):
        out = forward_graph(model, xa, xv, leaves)
        built.append(out[0])
        return out

    monkeypatch.setattr(FusionModel, "forward_graph", recording)
    rng = np.random.default_rng(43)
    xa, xv = _features(rng, 4, 6)
    FusionModel.create(4, "CA", iaca=iaca, seed=12).forward(xa, xv)
    (pred,) = built
    assert pred.parents == () and not pred.requires_grad


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_every_parameter_group_gets_finite_difference_checked(variant):
    # one sequence through forward_graph, then a batch of two sequences of
    # different lengths through batch_graph
    rng = np.random.default_rng(41)
    d, n_clips = 3, 4
    xa, xv = _features(rng, d, n_clips)
    model = FusionModel.create(d, variant, iaca=True, seed=9)
    for v in model.params.values():
        # zero-initialized biases park ReLU pre-activations exactly on the
        # kink, where central differences and the subgradient disagree;
        # a small shake moves every unit cleanly on or off
        v += rng.normal(0.0, 0.05, size=v.shape)
    target = rng.uniform(-0.5, 0.5, size=(1, n_clips))
    batch = [_features(rng, d, 4), _features(rng, d, 5)]
    batch_target = rng.uniform(-0.5, 0.5, size=(1, 9))

    def single(leaves):
        return model.forward_graph(Tensor(xa), Tensor(xv), leaves)[0], target

    def batched(leaves):
        inputs = [(Tensor(a), Tensor(v)) for a, v in batch]
        return model.batch_graph(inputs, leaves), batch_target

    def loss_graph(graph, leaves):
        pred, gold = graph(leaves)
        err = sub(pred, Tensor(gold))
        return mean_all(hadamard(err, err))

    for graph in (single, batched):
        leaves = model.bind()
        loss = loss_graph(graph, leaves)
        loss.backward()
        for name in model.params:
            def f(v, name=name, graph=graph):
                trial = model.bind()
                trial[name] = Tensor(v)
                return loss_graph(graph, trial).item()
            numeric = finite_diff(f, model.params[name])
            if np.linalg.norm(numeric) == 0.0 and np.linalg.norm(leaves[name].grad) == 0.0:
                continue
            assert relative_error(leaves[name].grad, numeric) < 1e-4, (graph.__name__, name)


@pytest.mark.parametrize("iaca", [False, True])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_batch_graph_matches_per_sequence_graphs(variant, iaca):
    # the batch graph runs the per-clip tail once over the joined clips;
    # its prediction must be the per-sequence inference forwards side by
    # side, and its grads those of per-sequence graphs joined before the loss
    rng = np.random.default_rng(44)
    seqs = [_features(rng, 4, n) for n in (3, 6, 5)]
    gold = rng.uniform(-0.5, 0.5, size=(1, 14))
    model = FusionModel.create(4, variant, iaca=iaca, seed=13,
                               flags=ModelFlags(temperature=0.5))
    leaves = model.bind()
    pred = model.batch_graph([(Tensor(a), Tensor(v)) for a, v in seqs], leaves)
    expected = np.hstack([model.predict_values(a, v) for a, v in seqs])
    np.testing.assert_allclose(pred.value, expected, rtol=0.0, atol=1e-12)
    ccc_loss(pred, gold).backward()

    per_sequence = model.bind()
    parts = [model.forward_graph(Tensor(a), Tensor(v), per_sequence)[0] for a, v in seqs]
    ccc_loss(concat_cols(*parts), gold).backward()
    for name in model.params:
        assert relative_error(leaves[name].grad, per_sequence[name].grad) < 1e-12, name


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_gated_batch_graph_transposes_only_the_gate_scores(variant):
    # the gating layer scores clips as K x N, one column per clip like the
    # features, so no d x N feature is copied transposed; the only transposes
    # with N = sum(L) rows or columns are the returned N x K score copies
    rng = np.random.default_rng(47)
    seqs = [_features(rng, 4, n) for n in range(3, 11)]
    n = sum(a.shape[1] for a, _ in seqs)
    model = FusionModel.create(4, variant, iaca=True, seed=15,
                               flags=ModelFlags(temperature=0.5))
    pred, _, gates = model._graph([(Tensor(a), Tensor(v)) for a, v in seqs], model.bind())
    score_nodes = [g._node for g in gates]
    seen, stack, wide = set(), [pred._node, *score_nodes], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
            if node.op == "transpose" and n in node.shape:
                wide.append(node)
    assert sorted(map(id, wide)) == sorted(map(id, score_nodes))
    assert [g.shape for g in gates] == [(n, 2), (n, 2), (n, 3)]
    assert all(g.parents[0].op == "softmax" for g in gates)


def test_the_model_runs_every_exported_op_and_no_other():
    # the engine exports the ops the model runs: the ops of every training
    # graph, over all variants and settings, are autodiff.__all__'s ops
    rng = np.random.default_rng(48)
    seqs = [_features(rng, 4, n) for n in (5, 6)]
    gold = rng.uniform(-1.0, 1.0, size=(1, 11))
    tags = set()
    for variant in ALL_VARIANTS:
        for iaca in (False, True):
            model = FusionModel.create(4, variant, iaca=iaca, seed=16)
            pred = model.batch_graph([(Tensor(a), Tensor(v)) for a, v in seqs], model.bind())
            seen, stack = set(), [ccc_loss(pred, gold)]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    tags.add(node.op)
                    stack.extend(node.parents)
    assert tags - {"leaf", "ccc_loss"} == set(ad.__all__) - {"ShapeError", "Tensor"}
