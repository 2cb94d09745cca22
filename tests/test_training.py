import csv
import dataclasses
import platform
import resource
import sys
import weakref

import numpy as np
import pytest

from iaca import attention, autodiff, gating, training
from iaca.attention import RJCA_ITERATIONS, VARIANTS
from iaca.autodiff import Tensor, add, gate_blend, matmul
from iaca.experiments import save_history
from iaca.gating import FusionModel, ModelFlags, param_schema
from iaca.metrics import ccc
from iaca.synth import Regime, SyntheticSequence, generate
from iaca.training import (
    OPTIMIZERS,
    Adam,
    EpochRecord,
    Sgd,
    TrainConfig,
    TrainingDivergence,
    evaluate,
    fit,
)

import reference as ref
from helpers import bits, live_arrays


def _small_data(seed=0, n=8, d=6, n_clips=10):
    seqs = generate(Regime("strong_complementary"), d=d, n_clips=n_clips,
                    n_sequences=n + 4, seed=seed)
    return seqs[:n], seqs[n:]


def _small_model(seed=0, d=6):
    return FusionModel.create(d, "CA", iaca=True, seed=seed)


def test_config_validation():
    for bad in (TrainConfig(epochs=0), TrainConfig(batch_size=0),
                TrainConfig(lr=-0.1), TrainConfig(optimizer="momentum"),
                TrainConfig(patience=-1)):
        with pytest.raises(ValueError):
            bad.validate()
    TrainConfig(lr=0.0).validate()  # a no-op fit is allowed


@pytest.mark.parametrize("field,value", [("epochs", 2.5), ("batch_size", 8.0), ("seed", 1.5),
                                         ("patience", True), ("epochs", "3")])
def test_validate_rejects_an_int_field_of_another_type(field, value):
    # each would pass the range checks and fail, or mistrain, inside fit
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        TrainConfig(**{field: value}).validate()
    TrainConfig(**{field: np.int64(2)}).validate()


@pytest.mark.parametrize("config,field", [
    (TrainConfig(lr="0.1"), "lr"), (ModelFlags(temperature="0.5"), "temperature"),
    (Regime(noise_sigma="1"), "noise_sigma"), (TrainConfig(lr=True), "lr"),
    (Regime(corrupt_fraction=True), "corrupt_fraction"), (ModelFlags(temperature=None), "temperature"),
], ids=["str-lr", "str-temperature", "str-noise", "bool-lr", "bool-corrupt", "none-temperature"])
def test_validate_rejects_a_float_field_of_another_type(config, field):
    # a string would fail a range check with TypeError, a bool pass it as 0 or 1
    with pytest.raises(ValueError, match=f"^{field} must be a number"):
        config.validate()


def test_validate_takes_ints_and_numpy_scalars_for_float_fields():
    for config in (TrainConfig(lr=1), TrainConfig(lr=np.float64(0.1)),
                   ModelFlags(temperature=np.int64(2)), ModelFlags(temperature=np.float32(0.5)),
                   Regime(noise_sigma=1, corrupt_fraction=0),
                   Regime(noise_sigma=np.float64(0.5), corrupt_fraction=np.float64(0.2))):
        config.validate()


@pytest.mark.parametrize("bad,field", [
    (TrainConfig(lr=float("nan")), "lr"), (TrainConfig(lr=float("inf")), "lr"),
    (ModelFlags(temperature=float("nan")), "temperature"),
    (Regime(noise_sigma=float("nan")), "noise_sigma"),
    (TrainConfig(lr=10**400), "lr"), (Regime("weak_conflicting", noise_sigma=10**400), "noise_sigma"),
], ids=["nan-lr", "inf-lr", "nan-temperature", "nan-noise", "huge-int-lr", "huge-int-noise"])
def test_validate_rejects_non_finite_values(bad, field):
    # an int past the float range would pass a range check, then fail inside
    # fit or generate with an untyped OverflowError
    with pytest.raises(ValueError, match=f"^{field} must be") as exc:
        bad.validate()
    assert len(str(exc.value)) < 80  # the echo is cut, not 401 digits


def test_sgd_step_moves_against_gradient():
    params = {"w": np.array([[1.0, 2.0]])}
    Sgd(lr=0.5).step(params, {"w": np.array([[2.0, -4.0]])})
    assert np.array_equal(params["w"], [[0.0, 4.0]])


def test_adam_zero_gradient_leaves_parameters():
    params = {"w": np.array([[3.0]])}
    opt = Adam(lr=0.1)
    for _ in range(5):
        opt.step(params, {"w": np.zeros((1, 1))})
    assert params["w"][0, 0] == 3.0


def test_adam_first_step_magnitude_is_lr():
    params = {"w": np.array([[0.0]])}
    Adam(lr=0.01).step(params, {"w": np.array([[1.0]])})
    # bias correction makes m_hat = v_hat = 1 on step one
    assert params["w"][0, 0] == pytest.approx(-0.01, rel=1e-6)


@pytest.mark.parametrize("iaca", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_flat_adam_is_bitwise_the_per_parameter_formula(variant, iaca):
    rng = np.random.default_rng(60)
    schema = param_schema(4, variant, iaca, ModelFlags())
    params = {name: rng.normal(size=(rows, cols)) for name, (rows, cols, _) in schema.items()}
    # gradients over many magnitudes, some exactly zero
    steps = [{name: rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 3, size=p.shape)
              * (rng.random(p.shape) > 0.1) for name, p in params.items()} for _ in range(5)]
    expected = ref.ref_adam(params, steps, lr=0.02)
    opt = Adam(lr=0.02)
    for grads in steps:
        opt.step(params, grads)
    assert list(params) == list(expected)
    for name, value in params.items():
        assert value.tobytes() == expected[name].tobytes(), name


def test_adam_rejects_a_step_with_another_layout():
    grads = {"a": np.ones((2, 3)), "b": np.ones((1, 1))}
    params = {name: np.zeros_like(g) for name, g in grads.items()}
    opt = Adam(lr=0.1)
    opt.step(params, grads)
    for other in ({"b": grads["b"], "a": grads["a"]},  # same sizes, another order
                  {"a": np.ones((3, 2)), "b": grads["b"]},  # same size, another shape
                  {"a": grads["a"]},
                  {**grads, "c": np.ones((1, 1))}):
        before = {name: value.copy() for name, value in params.items()}
        with pytest.raises(ValueError, match="laid out"):
            opt.step(params, other)
        assert all(np.array_equal(params[k], before[k]) for k in params)
    assert opt.t == 1


def test_optimizer_factory():
    assert OPTIMIZERS == {"sgd": Sgd, "adaptive-moment": Adam}


def test_zero_learning_rate_keeps_parameters():
    train, val = _small_data()
    model = _small_model()
    before = {k: v.copy() for k, v in model.params.items()}
    fit(model, train, val, TrainConfig(epochs=2, lr=0.0, patience=0))
    for k in before:
        assert np.array_equal(model.params[k], before[k])


def test_history_covers_every_epoch_without_early_stop():
    train, val = _small_data()
    model = _small_model()
    result = fit(model, train, val, TrainConfig(epochs=3, patience=0))
    assert [r.epoch for r in result.history] == [0, 1, 2]
    assert all(np.isfinite([r.train_ccc, r.val_ccc, r.loss]).all()
               for r in result.history)


def test_fit_runs_no_forward_over_the_training_split(monkeypatch):
    # training forwards are one model run per batch;
    # predict_values is only the per-epoch validation score
    train, val = _small_data(n=6)
    val = val[:3]
    model = _small_model()
    calls = []
    real = FusionModel.predict_values

    def counted(self, xa, xv):
        calls.append(1)
        return real(self, xa, xv)

    monkeypatch.setattr(FusionModel, "predict_values", counted)
    result = fit(model, train, val, TrainConfig(epochs=4, batch_size=4, patience=0))
    assert len(result.history) == 4
    assert len(calls) == 4 * len(val)


def test_train_ccc_scores_the_pre_step_predictions():
    # lr 0 freezes the parameters, so the pre-step predictions of every
    # batch are the end-of-epoch model's, and only summation order differs
    train, val = _small_data()
    model = _small_model()
    result = fit(model, train, val, TrainConfig(epochs=3, batch_size=3, lr=0.0,
                                                patience=0))
    expected = evaluate(model, train)
    for r in result.history:
        assert r.train_ccc == pytest.approx(expected, abs=1e-12)


def test_early_stop_cuts_history_short():
    train, val = _small_data()
    model = _small_model()
    # lr 0 freezes val ccc, so the first epoch is the only improvement
    result = fit(model, train, val, TrainConfig(epochs=10, lr=0.0, patience=2))
    assert result.stopped_early
    assert len(result.history) == 3
    assert result.best_epoch == 0


def test_early_stop_counts_from_the_latest_improvement(monkeypatch):
    # 0.3 then 0.5 each reset the count; the second 0.4 is the 2nd epoch
    # without a new best, so the run stops there
    scores = iter([0.1, 0.3, 0.2, 0.5, 0.4, 0.4])
    monkeypatch.setattr(training, "evaluate", lambda model, seqs: next(scores))
    train, val = _small_data()
    result = fit(_small_model(), train, val, TrainConfig(epochs=10, patience=2))
    assert result.stopped_early
    assert len(result.history) == 6
    assert result.best_epoch == 3 and result.best_val_ccc == 0.5


def test_best_parameters_are_restored():
    train, val = _small_data()
    model = _small_model()
    result = fit(model, train, val, TrainConfig(epochs=6, patience=0, seed=3))
    assert evaluate(model, val) == pytest.approx(result.best_val_ccc, abs=1e-12)


def test_fit_is_deterministic_given_seed():
    train, val = _small_data()
    runs = []
    for _ in range(2):
        model = _small_model(seed=4)
        fit(model, train, val, TrainConfig(epochs=3, seed=7, patience=0))
        runs.append({k: v.copy() for k, v in model.params.items()})
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k])


def test_divergence_raises_structured_error():
    train, val = _small_data()
    model = _small_model()
    model.params["head.b2"][:] = np.nan
    with pytest.raises(TrainingDivergence):
        fit(model, train, val, TrainConfig(epochs=1))


def test_non_finite_gradient_names_epoch_batch_and_parameter(monkeypatch):
    train, val = _small_data()
    model = _small_model()
    real_loss = training.ccc_loss

    def poisoned_loss(pred, gold):
        # finite value, NaN gradient into every parameter
        poison = Tensor([[0.0]], "poison", (pred,), (lambda g: np.full(pred.shape, np.nan),))
        return add(real_loss(pred, gold), poison)

    monkeypatch.setattr(training, "ccc_loss", poisoned_loss)
    with pytest.raises(TrainingDivergence) as exc:
        fit(model, train, val, TrainConfig(epochs=1, batch_size=4))
    message = str(exc.value)
    assert "gradient" in message and "epoch 0" in message
    assert "batch starting at 0" in message and next(iter(model.params)) in message

    # a NaN confined to the last parameter's gradient is named as that one
    bound, real_bind = [], FusionModel.bind

    def recording_bind(model):
        bound.append(real_bind(model))
        return bound[-1]

    def poisoned_b2(pred, gold):
        b2 = bound[-1]["head.b2"]
        poison = Tensor([[0.0]], "poison", (b2,), (lambda g: np.full(b2.shape, np.nan),))
        return add(real_loss(pred, gold), poison)

    monkeypatch.setattr(FusionModel, "bind", recording_bind)
    monkeypatch.setattr(training, "ccc_loss", poisoned_b2)
    with pytest.raises(TrainingDivergence, match="^non-finite gradient for head.b2 at epoch 0, "
                                                 "batch starting at 0$"):
        fit(_small_model(), train, val, TrainConfig(epochs=1, batch_size=4))


def test_non_finite_validation_ccc_names_the_epoch(monkeypatch):
    # a NaN never beats the best score, so fit would return the init as "best"
    monkeypatch.setattr(training, "evaluate", lambda model, seqs: float("nan"))
    train, val = _small_data()
    with pytest.raises(TrainingDivergence, match="^non-finite validation CCC nan at epoch 0$"):
        fit(_small_model(), train, val, TrainConfig(epochs=3))


def test_training_improves_validation_ccc():
    train, val = _small_data(seed=11)
    model = _small_model(seed=5)
    before = evaluate(model, val)
    result = fit(model, train, val, TrainConfig(epochs=10, lr=0.02, patience=0))
    assert result.best_val_ccc > before


def test_predict_values_after_fit_is_a_model_rebuilt_from_the_parameters():
    # the best epoch is not the last, so fit's restore replaces every array
    # after evaluate has bound the last epoch's
    train, val = _small_data()
    model = _small_model()
    result = fit(model, train, val, TrainConfig(epochs=6, lr=0.2, patience=0))
    assert result.best_epoch < len(result.history) - 1
    rebuilt = FusionModel(model.d, model.variant, model.iaca, model.flags,
                          {name: value.copy() for name, value in model.params.items()})
    for s in val:
        assert (model.predict_values(s.xa, s.xv).tobytes()
                == rebuilt.predict_values(s.xa, s.xv).tobytes())
    assert evaluate(model, val) == result.best_val_ccc


def test_evaluate_concatenates_all_clips():
    train, _ = _small_data()
    model = _small_model()
    preds = np.hstack([model.predict_values(s.xa, s.xv) for s in train])
    golds = np.hstack([s.target for s in train])
    assert evaluate(model, train) == pytest.approx(ccc(preds, golds), abs=1e-12)


def test_fit_rejects_empty_splits():
    train, val = _small_data()
    with pytest.raises(ValueError):
        fit(_small_model(), [], val, TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        fit(_small_model(), train, [], TrainConfig(epochs=1))


def test_evaluate_rejects_an_empty_split_by_name():
    with pytest.raises(ValueError, match="empty evaluation set"):
        evaluate(_small_model(), [])


def test_fit_rejects_a_non_finite_validation_sequence():
    # one NaN would make every val_ccc NaN, so no epoch could beat -inf and
    # fit would return the initial parameters with best_epoch -1
    train, val = _small_data()
    val[1].xv[2, 3] = np.nan
    model = _small_model()
    before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(ValueError, match="validation sequence 1 holds a non-finite"):
        fit(model, train, val, TrainConfig(epochs=2))
    for name, value in before.items():
        assert np.array_equal(model.params[name], value)


def _short(seq, name):
    # drop a target's last clip, or a feature matrix's last row
    value = getattr(seq, name)
    setattr(seq, name, value[:, :-1] if name == "target" else value[:-1])


@pytest.mark.parametrize("corrupt,message", [
    (lambda train, val: _short(train[2], "target"),
     r"training sequence 2 has 9 target entries for features of shape \(6, 10\)"),
    (lambda train, val: _short(val[1], "xv"),
     r"validation sequence 1 has features of shapes \(6, 10\) \(audio\) and "
     r"\(5, 10\) \(visual\); the model takes 6 x 10"),
    (lambda train, val: _short(train[-1], "xa"),
     r"training sequence 7 has features of shapes \(5, 10\) \(audio\) and "
     r"\(6, 10\) \(visual\); the model takes 6 x 10"),
    (lambda train, val: [_short(val[0], name) for name in ("xa", "xv")],
     r"validation sequence 0 has features of shapes \(5, 10\) \(audio\) and "
     r"\(5, 10\) \(visual\); the model takes 6 x 10"),
], ids=["short-target", "val-visual-short-d", "last-train-audio-short-d", "val-both-short-d"])
def test_fit_rejects_a_target_shorter_than_its_sequence(corrupt, message):
    # every mis-shaped sequence is named before any step moves a parameter
    train, val = _small_data()
    corrupt(train, val)
    model = _small_model()
    before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(ValueError, match=message):
        fit(model, train, val, TrainConfig(epochs=1))
    assert all(np.array_equal(model.params[k], v) for k, v in before.items())


def test_history_round_trips_through_csv(tmp_path):
    history = [EpochRecord(0, 0.1, 0.2, 0.9), EpochRecord(1, 0.30001, -0.25, 0.7)]
    path = tmp_path / "history.csv"
    save_history(history, path)
    with open(path, newline="") as fh:
        loaded = list(csv.DictReader(fh))
    assert [int(r["epoch"]) for r in loaded] == [0, 1]
    for a, b in zip(history, loaded):
        assert float(b["train_ccc"]) == pytest.approx(a.train_ccc, abs=1e-6)
        assert float(b["val_ccc"]) == pytest.approx(a.val_ccc, abs=1e-6)
        assert float(b["loss"]) == pytest.approx(a.loss, abs=1e-6)
    header = path.read_text().splitlines()[0]
    assert header == "epoch,train_ccc,val_ccc,loss"


def test_history_csv_bytes_are_pinned(tmp_path):
    # the exact bytes, which a parsed round trip cannot see: the header,
    # 6 rounded decimals with the sign kept, and the csv module's \r\n ends
    path = tmp_path / "history.csv"
    save_history([EpochRecord(0, 0.1, -0.25, 0.9),
                  EpochRecord(12, 0.30001, 0.1234565, 1.0000004)], path)
    assert path.read_bytes() == (b"epoch,train_ccc,val_ccc,loss\r\n"
                                 b"0,0.100000,-0.250000,0.900000\r\n"
                                 b"12,0.300010,0.123456,1.000000\r\n")


# --------------------------------------------------- pinned learning checks

def test_default_training_on_easy_regime_reaches_high_ccc():
    # Pinned regression: CA with gating, all-default config, clean redundant
    # data. Observed best val CCC 0.97+; 0.8 leaves slack for optimizer noise.
    seqs = generate(Regime("strong_complementary"), d=32, n_clips=64,
                    n_sequences=32, seed=0)
    model = FusionModel.create(32, "CA", iaca=True, seed=0)
    result = fit(model, seqs[:24], seqs[24:], TrainConfig())
    assert result.best_val_ccc > 0.8


def test_train_loss_moving_average_decreases_early():
    # Smoothed over 5 epochs to ignore mini-batch jitter; raw per-epoch loss
    # is allowed to wiggle.
    seqs = generate(Regime("strong_complementary"), d=32, n_clips=64,
                    n_sequences=32, seed=0)
    model = FusionModel.create(32, "CA", iaca=True, seed=0)
    result = fit(model, seqs[:24], seqs[24:], TrainConfig(epochs=20, patience=0))
    losses = [r.loss for r in result.history]
    ma = [np.mean(losses[i:i + 5]) for i in range(len(losses) - 4)]
    assert all(b <= a + 1e-12 for a, b in zip(ma, ma[1:]))


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_constant_data_leaves_parameter_grads_bitwise_unchanged(monkeypatch, variant, gated):
    # _batch_loss passes the data as plain arrays, constants that backward
    # never reaches; with them as leaves instead, every parameter grad must
    # come out bit for bit the same
    seqs = generate(Regime("weak_conflicting", noise_sigma=2.0), d=8, n_clips=12,
                    n_sequences=3, seed=5)
    model = FusionModel.create(8, variant, iaca=gated, seed=1,
                               flags=ModelFlags(temperature=0.5))

    def parameter_grads():
        loss, leaves, *_ = training._batch_loss(model, seqs)
        loss.backward()
        return {name: leaf.grad for name, leaf in leaves.items()}

    constant = parameter_grads()
    made = []

    real_run = FusionModel.run

    def on_leaves(model, inputs, leaves):
        pairs = [(Tensor(xa), Tensor(xv)) for xa, xv in inputs]
        made.extend(t for pair in pairs for t in pair)
        return real_run(model, pairs, leaves)

    monkeypatch.setattr(FusionModel, "run", on_leaves)
    full = parameter_grads()
    assert len(made) == 2 * len(seqs)  # xa, xv per sequence
    assert all(t.grad is not None for t in made)
    assert constant.keys() == full.keys()
    for name, g in constant.items():
        assert np.array_equal(g, full[name]), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_reads_list_and_float32_features_as_their_float64_copies(variant):
    # the data reaches the ops as given, and each op converts it as a
    # Tensor converts its value
    train, val = _small_data(n=4)
    as_given = [dataclasses.replace(s, xa=s.xa.tolist(), xv=s.xv.astype(np.float32))
                for s in train + val]
    copies = [dataclasses.replace(s, xa=np.asarray(s.xa), xv=s.xv.astype(np.float64))
              for s in as_given]
    fits = []
    for seqs in (as_given, copies):
        model = FusionModel.create(6, variant, iaca=True, seed=0)
        result = fit(model, seqs[:4], seqs[4:], TrainConfig(epochs=2, batch_size=3))
        fits.append((result.history, bits(*model.params.values())))
    assert fits[0] == fits[1]


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_one_batch_backward_reaches_every_parameter(variant, gated):
    # fit zero-fills a missing grad, so a schema entry that run stopped
    # reading would otherwise train on silently as a constant
    seqs = generate(Regime("weak_conflicting"), d=4, n_clips=6, n_sequences=2, seed=2)
    model = FusionModel.create(4, variant, iaca=gated, seed=1)
    loss, leaves, *_ = training._batch_loss(model, seqs)
    loss.backward()
    assert leaves.keys() == model.params.keys()
    assert [name for name, leaf in leaves.items() if leaf.grad is None] == []


def _batch(d, n_clips, n_seqs):
    rng = np.random.default_rng(19)
    return [SyntheticSequence(rng.normal(size=(d, n_clips)), rng.normal(size=(d, n_clips)),
                              rng.uniform(-1.0, 1.0, size=(1, n_clips)), 0)
            for _ in range(n_seqs)]


# one batch graph's nodes per cell, 2 sequences at d=3, L=5: each layer is
# one node (affine, attend, gate_scores, gate_blend) where it was a chain
_GRAPH_NODES = {("CA", False): 30, ("CA", True): 40, ("TCA", False): 85, ("TCA", True): 95,
                ("JCA", False): 37, ("JCA", True): 47, ("RJCA", False): 61, ("RJCA", True): 71}


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_batch_graph_has_one_node_per_layer(variant, gated):
    model = FusionModel.create(3, variant, gated)
    loss = training._batch_loss(model, _batch(3, 5, 2))[0]
    assert len(autodiff._topo_order(loss._node)) == _GRAPH_NODES[variant, gated]


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_spent_training_graph_holds_no_lxl_array(variant, gated):
    # the matmul and softmax vjps drop what they read once run, so after
    # backward nothing the caller holds keeps a weight map alive
    d, n_clips, n_seqs = 3, 5, 2
    model = FusionModel.create(d, variant, gated)
    held = training._batch_loss(model, _batch(d, n_clips, n_seqs))
    loss = held[0]
    loss.backward()
    assert [a for a in live_arrays(held) if a.shape == (n_clips, n_clips)] == []
    with pytest.raises(RuntimeError):
        loss.backward()


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_training_graph_holds_no_stack_copy(variant, gated):
    # the joint layer's and the stage-2 gate's stacks over all clips are
    # layout copies: their consumers keep recipes, so the graph waiting for
    # backward holds the stacked candidates but not the stacks
    d, n_clips, n_seqs = 3, 5, 2
    model = FusionModel.create(d, variant, gated)
    held = training._batch_loss(model, _batch(d, n_clips, n_seqs))
    stacks = [(k * d, n_clips * n_seqs) for k in (2, 3)]
    assert [a.shape for a in live_arrays(held) if a.shape in stacks] == []


@pytest.mark.parametrize("gated", [False, True], ids=["plain", "gated"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_training_graph_holds_no_parameter_product(variant, gated, monkeypatch):
    # each correlation's x^T W and TCA's q and v are products with a
    # parameter leaf: their consumers keep recipes that rebuild them, so the
    # graph waiting for backward holds none of them
    d, n_clips, n_seqs = 3, 5, 2
    calls = []

    def recording(a, b):
        out = matmul(a, b)
        calls.append((a, b, out))
        return out

    monkeypatch.setattr(attention, "matmul", recording)
    model = FusionModel.create(d, variant, gated)
    held = training._batch_loss(model, _batch(d, n_clips, n_seqs))
    params = [id(leaf) for leaf in held[1].values()]
    products = [out.value for a, b, out in calls if id(a) in params or id(b) in params]
    # per sequence: CA's one correlation, JCA's two, RJCA's two per pass;
    # TCA's q, k and v in both directions
    per_seq = {"CA": 1, "TCA": 6, "JCA": 2, "RJCA": 2 * RJCA_ITERATIONS}[variant]
    assert sum(p.shape == ((d, n_clips) if variant == "TCA" else (n_clips, d))
               for p in products) >= n_seqs * per_seq
    live = {id(a) for a in live_arrays(held)}
    assert [p.shape for p in products if id(p) in live] == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_stage2_stack_is_not_alive_when_its_gate_mixes(variant, monkeypatch):
    # the stage-2 scores are built before the blend, so the (3d, N) stack the
    # scorer read is freed with its scores node, which keeps only its recipe:
    # at the blend, no frame of the pass holds it
    d, n_clips, n_seqs = 3, 5, 2
    stacks = []

    def spying(g, candidates):
        frames, f = [], sys._getframe(1)
        while f.f_globals["__name__"].startswith("iaca."):
            frames.append(dict(f.f_locals))
            f = f.f_back
        if len(candidates) == 3:
            stacks.append([a.shape for a in live_arrays(frames)
                           if a.shape == (3 * d, n_clips * n_seqs)])
        return gate_blend(g, candidates)

    monkeypatch.setattr(gating, "gate_blend", spying)
    model = FusionModel.create(d, variant, True)
    training._batch_loss(model, _batch(d, n_clips, n_seqs))
    assert stacks == [[]]


def test_a_steps_graph_is_gone_before_the_next_is_built(monkeypatch):
    # fit drops its spent graph after the optimizer step; the loss value is
    # an array that only the graph holds
    train, val = _small_data()
    real, spent, calls = training._batch_loss, [], []

    def watched(model, batch):
        calls.append([ref() is None for ref in spent])
        held = real(model, batch)
        spent.append(weakref.ref(held[0].value))
        return held

    monkeypatch.setattr(training, "_batch_loss", watched)
    fit(_small_model(), train, val, TrainConfig(epochs=2, batch_size=3, patience=0))
    assert len(calls) == 6
    assert all(all(dead) for dead in calls)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setup is glibc's")
def test_a_long_prediction_faults_no_page_back_in():
    # glibc keeps the heap that one call frees for the next: at its default
    # trim threshold each call faulted its maps back in (576 minor faults)
    seq = generate(Regime("weak_conflicting", noise_sigma=2.0), d=32, n_clips=256,
                   n_sequences=1, seed=1)[0]
    model = FusionModel.create(32, "RJCA", True, seed=1)
    for _ in range(2):
        model.predict_values(seq.xa, seq.xv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        model.predict_values(seq.xa, seq.xv)
    assert (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10 <= 20


def test_the_heap_setup_is_skipped_without_mallopt(monkeypatch):
    monkeypatch.setattr(autodiff.ctypes, "CDLL", lambda name: object())
    assert autodiff._keep_heap() is None
