import csv
import json
import re
import sys
from dataclasses import asdict, fields, is_dataclass
from functools import reduce
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest

from iaca import autodiff, experiments
from iaca.attention import VARIANTS
from iaca.experiments import (
    OUTPUT_DIMS,
    ExperimentConfig,
    dump_attention,
    missing_modality_sweep,
    prepare_splits,
    relative_improvement,
    run_ablation,
    save_ablation,
    save_attention_dump,
    save_sweep,
    train_one,
)
from iaca.gating import FusionModel, ModelFlags
from iaca.metrics import ccc
from iaca.synth import REGIME_KINDS, Regime, generate
from iaca.training import TrainConfig, evaluate

import reference as ref
from helpers import bits


def _tiny_cfg(**overrides):
    base = dict(
        variant="CA", iaca=True, regime=Regime("strong_complementary"),
        d=6, n_clips=10, n_train=6, n_val=3, seed=13,
        train=TrainConfig(epochs=2, batch_size=4, patience=0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------- deltas

def test_relative_improvement_matches_published_arithmetic():
    assert relative_improvement(0.541, 0.632) == pytest.approx(16.8, abs=0.05)
    assert relative_improvement(0.721, 0.749) == pytest.approx(3.9, abs=0.05)
    assert relative_improvement(1.0, 0.5) == pytest.approx(-50.0)
    assert np.isnan(relative_improvement(0.0, 0.5))


def test_relative_improvement_sign_follows_the_change_for_a_negative_base():
    assert relative_improvement(-0.2, 0.1) == pytest.approx(150.0)
    assert relative_improvement(-0.2, -0.3) == pytest.approx(-50.0)


# ------------------------------------------------------------------- config

def test_config_json_round_trip():
    cfg = _tiny_cfg(variant="RJCA", iaca=False,
                    regime=Regime("weak_conflicting", 0.5, 0.2))
    again = ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
    assert again == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"variannt": "CA"})
    with pytest.raises(ValueError, match="regime.bogus"):
        ExperimentConfig.from_dict({"regime": {"bogus": 1}})


@pytest.mark.parametrize("data,message", [
    ([], "config must be an object, got list"),
    ({"regime": 5}, "regime must be an object, got int"),
    ({"train": None}, "train must be an object, got NoneType"),
], ids=["top", "regime", "train"])
def test_config_that_is_not_an_object_is_named_by_its_path(data, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(data)


def test_config_validation_recurses():
    with pytest.raises(ValueError):
        _tiny_cfg(variant="ABC").validate()
    with pytest.raises(ValueError):
        _tiny_cfg(regime=Regime("nope")).validate()
    with pytest.raises(ValueError):
        _tiny_cfg(train=TrainConfig(epochs=0)).validate()
    with pytest.raises(ValueError):
        _tiny_cfg(n_val=0).validate()
    with pytest.raises(ValueError, match="^regime must be a Regime, got 'weak_conflicting'"):
        _tiny_cfg(regime="weak_conflicting").validate()


@pytest.mark.parametrize("field,value", [("seed", 1.5), ("d", 4.0), ("n_clips", True),
                                         ("n_train", "3"), ("n_val", None)])
def test_config_validation_rejects_an_int_field_of_another_type(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        _tiny_cfg(**{field: value}).validate()


@pytest.mark.parametrize("value", ["no", 1, None, np.int64(0)])
def test_config_validation_rejects_a_non_bool_iaca(value):
    # "no" and 1 are truthy, so either would build a gated model
    with pytest.raises(ValueError, match="^iaca must be a bool"):
        _tiny_cfg(iaca=value).validate()
    _tiny_cfg(iaca=np.bool_(False)).validate()


def _scalar_fields(kind=ExperimentConfig, path=()):
    # (dotted path, annotated type) of every scalar field in the config tree
    for name, hint in get_type_hints(kind).items():
        if is_dataclass(hint):
            yield from _scalar_fields(hint, path + (name,))
        else:
            yield path + (name,), hint


# each annotated type's name in the message, and values of other types
_WRONG_VALUES = {bool: ("a bool", [1]), int: ("an int", [True, 2.5]),
                 float: ("a number", ["0.5"]), str: ("a string", [["sgd"], 5])}


@pytest.mark.parametrize("path,noun,value", [
    pytest.param(path, noun, value, id=f"{'.'.join(path)}-{type(value).__name__}")
    for path, hint in _scalar_fields() for noun, values in [_WRONG_VALUES[hint]]
    for value in values])
def test_every_scalar_config_field_rejects_a_value_of_another_type(path, noun, value):
    # one check reads the annotations and names the dotted field, for a config
    # read from JSON and for one built in Python; a list in a str field used
    # to escape as TypeError
    *sections, name = path
    data = value
    for section in reversed(path):
        data = {section: data}
    built = ExperimentConfig()
    setattr(reduce(getattr, sections, built), name, value)
    for cfg in (ExperimentConfig.from_dict(data), built):
        with pytest.raises(ValueError, match=f"^{re.escape('.'.join(path))} must be {noun}, got "):
            cfg.validate()


# every range or choice a config field declares; ExperimentConfig.seed takes
# every int (derive_seed defines them all), and the temperature every normal
# positive double, whose reciprocal the gates can take
_LIMITS = {
    "variant": {"choices": VARIANTS}, "d": {"lo": 2}, "n_clips": {"lo": 2},
    "n_train": {"lo": 1}, "n_val": {"lo": 1},
    "regime.kind": {"choices": REGIME_KINDS}, "regime.noise_sigma": {"lo": 0},
    "regime.corrupt_fraction": {"lo": 0, "hi": 1},
    "train.epochs": {"lo": 1}, "train.batch_size": {"lo": 1}, "train.lr": {"lo": 0},
    "train.optimizer": {"choices": ("sgd", "adaptive-moment")}, "train.seed": {"lo": 0},
    "train.patience": {"lo": 0}, "flags.temperature": {"lo": sys.float_info.min},
}


def _declared_limits(kind=ExperimentConfig, prefix=""):
    # (dotted path, limits) of every field of the config tree that declares some
    hints = get_type_hints(kind)
    for f in fields(kind):
        if is_dataclass(hints[f.name]):
            yield from _declared_limits(hints[f.name], f"{prefix}{f.name}.")
        elif f.metadata:
            yield f"{prefix}{f.name}", dict(f.metadata)


def test_every_config_limit_is_declared_on_its_field():
    assert dict(_declared_limits()) == _LIMITS


def _limit_cases():
    # (dotted field, value, its message, or None where the value is taken)
    hints = dict(_scalar_fields())
    for path, limits in _LIMITS.items():
        if "choices" in limits:
            yield from ((path, choice, None) for choice in limits["choices"])
            yield path, "nope", f"{path} must be one of {limits['choices']}, got 'nope'"
            continue
        is_int = hints[tuple(path.split("."))] is int
        lo, hi = limits["lo"], limits.get("hi")
        bound = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi}]"
        for edge, step in ((lo, -1), (hi, 1)):
            if edge is not None:
                past = edge + step if is_int else float(np.nextafter(edge, edge + step))
                yield path, edge, None
                yield path, past, f"{path} must {bound}, got {past}"


@pytest.mark.parametrize("path,value,message", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _limit_cases()])
def test_every_declared_limit_rejects_a_value_past_it_and_takes_the_bound(path, value, message):
    # a config built in Python and one read from JSON meet the one check
    *sections, name = path.split(".")
    built = ExperimentConfig()
    setattr(reduce(getattr, sections, built), name, value)
    data = value
    for section in reversed(path.split(".")):
        data = {section: data}
    for cfg in (built, ExperimentConfig.from_dict(json.loads(json.dumps(data)))):
        if message is None:
            cfg.validate()
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cfg.validate()


# ------------------------------------------------------------------- splits

def _ridge_ccc(train, val, modalities, lam=1e-3):
    """Validation CCC of a ridge readout, bias included, from each clip's
    stacked `modalities` features ("xa", "xv") to its target, fitted on
    train and clipped to [-1, 1]: what a line scores with no fusion at all."""
    def design(seqs):
        x = np.hstack([np.vstack([getattr(s, m) for m in modalities]) for s in seqs]).T
        return np.hstack([x, np.ones((len(x), 1))])

    x, y = design(train), np.hstack([s.target for s in train]).ravel()
    w = np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ y)
    return ccc(np.clip(design(val) @ w, -1.0, 1.0), np.hstack([s.target for s in val]).ravel())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_linear_readout_solves_criterion_5s_splits_from_audio(seed):
    # read a fusion gain against what a simple readout already scores
    # (Hessel & Lee, EMNLP 2020): on criterion 5's splits audio alone and
    # [xa; xv] read 1.0000, the conflicting visual stream alone -0.081..0.039
    cfg = ExperimentConfig(regime=Regime("weak_conflicting", noise_sigma=2.0),
                           d=32, n_clips=64, n_train=12, n_val=8, seed=seed)
    for dim in OUTPUT_DIMS:
        train, val = prepare_splits(cfg, dim)
        assert _ridge_ccc(train, val, ("xa",)) >= 0.999
        assert _ridge_ccc(train, val, ("xa", "xv")) >= 0.999
        assert _ridge_ccc(train, val, ("xv",)) <= 0.1


def test_a_linear_readout_solves_criterion_6s_splits():
    # criterion 6's training audio is partly zeroed, yet [xa; xv] reads 1.0000
    cfg = ExperimentConfig(regime=Regime("strong_complementary", noise_sigma=0.5,
                                         corrupt_fraction=0.2),
                           d=32, n_clips=64, n_train=12, n_val=8, seed=1)
    for dim in OUTPUT_DIMS:
        assert _ridge_ccc(*prepare_splits(cfg, dim), ("xa", "xv")) >= 0.999


@pytest.mark.parametrize("dim", OUTPUT_DIMS)
def test_prepare_splits_is_bitwise_the_reference(dim):
    # the generator, the data stream labels and the per-sequence audio
    # masks against tests/reference.py, computed on the same machine
    cfg = ExperimentConfig(regime=Regime("weak_conflicting", noise_sigma=2.0,
                                         corrupt_fraction=0.2),
                           d=16, n_clips=40, n_train=5, n_val=3, seed=9)
    splits = prepare_splits(cfg, dim)
    expected = ref.ref_prepare_splits("weak_conflicting", 2.0, 0.2, 16, 40, 5, 3, 9,
                                      OUTPUT_DIMS.index(dim))
    for split, ref_split in zip(splits, expected):
        assert len(split) == len(ref_split)
        for s, (xa, xv, target, seq_seed) in zip(split, ref_split):
            assert bits(s.xa, s.xv, s.target) == bits(xa, xv, target)
            assert s.seed == seq_seed
    assert any((s.xa == 0).all(axis=0).any() for s in splits[0])  # masks applied


def test_prepare_splits_deterministic_and_dimension_specific():
    cfg = _tiny_cfg()
    t1, v1 = prepare_splits(cfg, "valence")
    t2, v2 = prepare_splits(cfg, "valence")
    assert len(t1) == 6 and len(v1) == 3
    for a, b in zip(t1 + v1, t2 + v2):
        assert np.array_equal(a.xa, b.xa)
        assert np.array_equal(a.target, b.target)
    ta, _ = prepare_splits(cfg, "arousal")
    assert not np.array_equal(t1[0].target, ta[0].target)
    with pytest.raises(ValueError):
        prepare_splits(cfg, "dominance")


@pytest.mark.parametrize("field,value,message", [
    ("n_val", -3, "n_val must be >= 1, got -3"),
    ("n_train", "5", "n_train must be an int, got '5'"),
    ("regime", {"kind": "x"}, "regime must be a Regime, got {'kind': 'x'}"),
], ids=["negative-n_val", "str-n_train", "dict-regime"])
def test_prepare_splits_validates_its_config_before_generating(monkeypatch, field, value,
                                                               message):
    # each used to slip through: an empty validation split, an untyped
    # TypeError, an AttributeError
    monkeypatch.setattr("iaca.experiments.generate", lambda *a: pytest.fail("generated"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        prepare_splits(_tiny_cfg(**{field: value}), "valence")


def test_corrupt_fraction_zeroes_training_audio_only():
    cfg = _tiny_cfg(regime=Regime("strong_complementary", corrupt_fraction=0.4))
    train, val = prepare_splits(cfg, "valence")
    for s in train:
        zero_cols = int((s.xa == 0).all(axis=0).sum())
        assert zero_cols == int(0.4 * cfg.n_clips)
        assert not np.any((s.xv == 0).all(axis=0))
    for s in val:
        assert not np.any((s.xa == 0).all(axis=0))


def test_train_one_returns_scored_model():
    model, result, val = train_one(_tiny_cfg(), "valence")
    assert isinstance(model, FusionModel)
    assert len(result.history) == 2
    assert evaluate(model, val) == result.best_val_ccc


# ----------------------------------------------------------------- ablation

def test_ablation_rows_structure_and_delta(tmp_path):
    rows = run_ablation(_tiny_cfg(), variants=("CA",))
    assert [r.iaca for r in rows] == ["no", "yes", "delta_pct"]
    base, with_gate, delta = rows
    assert delta.valence == pytest.approx(
        relative_improvement(base.valence, with_gate.valence), abs=1e-9)
    assert delta.arousal == pytest.approx(
        relative_improvement(base.arousal, with_gate.arousal), abs=1e-9)

    path = tmp_path / "ablation.csv"
    save_ablation(rows, path)
    with open(path, newline="") as fh:
        loaded = list(csv.DictReader(fh))
    assert [r["iaca"] for r in loaded] == ["no", "yes", "delta_pct"]
    assert float(loaded[0]["valence_ccc"]) == pytest.approx(base.valence, abs=5e-4)
    header = path.read_text().splitlines()[0]
    assert header == "variant,iaca,valence_ccc,arousal_ccc"


def test_ablation_covers_requested_variants():
    rows = run_ablation(_tiny_cfg(), variants=("CA", "JCA"))
    assert len(rows) == 6
    assert [r.variant for r in rows] == ["CA"] * 3 + ["JCA"] * 3


def test_ablation_is_deterministic():
    a = run_ablation(_tiny_cfg(), variants=("CA",))
    b = run_ablation(_tiny_cfg(), variants=("CA",))
    for x, y in zip(a, b):
        assert x == y


def test_ablation_records_divergence_and_continues(capsys):
    # an absurd learning rate overflows the parameters within a step or
    # two, which must surface as NaN cells rather than a crash
    cfg = _tiny_cfg(train=TrainConfig(epochs=2, batch_size=4, lr=1e308,
                                      patience=0))
    with np.errstate(all="ignore"):
        rows = run_ablation(cfg, variants=("CA",))
    assert len(rows) == 3
    assert all(np.isnan(r.valence) and np.isnan(r.arousal) for r in rows)
    assert "diverged" in capsys.readouterr().err


def test_ablation_delta_is_nan_for_a_nan_cell_or_a_zero_base(monkeypatch):
    # one variant per case: a diverged gated cell, a diverged ungated cell,
    # and an ungated CCC of exactly 0, where no relative change exists
    scores = {("CA", False): 0.5, ("CA", True): float("nan"),
              ("TCA", False): float("nan"), ("TCA", True): 0.5,
              ("JCA", False): 0.0, ("JCA", True): 0.5}

    def fake_train_one(cell, dim):
        return None, SimpleNamespace(best_val_ccc=scores[cell.variant, cell.iaca]), None

    monkeypatch.setattr(experiments, "train_one", fake_train_one)
    rows = run_ablation(_tiny_cfg(), variants=("CA", "TCA", "JCA"))
    deltas = [r for r in rows if r.iaca == "delta_pct"]
    assert [r.variant for r in deltas] == ["CA", "TCA", "JCA"]
    assert all(np.isnan(r.valence) and np.isnan(r.arousal) for r in deltas)


# -------------------------------------------------------------------- sweep

def _trained_pair():
    cfg = _tiny_cfg()
    val_model, _, val_split = train_one(cfg, "valence")
    aro_model, _, aro_split = train_one(cfg, "arousal")
    return val_model, aro_model, val_split, aro_split


def test_sweep_anchor_row_equals_plain_evaluation(tmp_path):
    val_model, aro_model, val_split, aro_split = _trained_pair()
    rows = missing_modality_sweep(val_model, aro_model, val_split, aro_split,
                                  fractions=(0.4, 0.0))
    assert [r.fraction for r in rows] == [0.0, 0.4]
    assert rows[0].valence == evaluate(val_model, val_split)
    assert rows[0].arousal == evaluate(aro_model, aro_split)

    path = tmp_path / "sweep.csv"
    save_sweep(rows, path)
    with open(path, newline="") as fh:
        loaded = list(csv.DictReader(fh))
    assert [float(r["fraction"]) for r in loaded] == [0.0, 0.4]
    assert float(loaded[1]["valence_ccc"]) == pytest.approx(rows[1].valence, abs=5e-4)


def test_ablation_and_sweep_csv_bytes_are_pinned(tmp_path):
    # the exact bytes, which a parsed round trip cannot see: the headers,
    # 3 decimals for a CCC and 1 for a delta, %g fractions, NaN as "nan",
    # a negative that rounds to zero keeping its sign, and \r\n line ends
    nan = float("nan")
    ablation, sweep = tmp_path / "ablation.csv", tmp_path / "sweep.csv"
    save_ablation([experiments.AblationRow("CA", "no", 0.4321, -0.0004),
                   experiments.AblationRow("CA", "yes", 0.5, nan),
                   experiments.AblationRow("CA", "delta_pct", 15.7137, nan)], ablation)
    save_sweep([experiments.SweepRow(0.0, 0.81234, -0.1),
                experiments.SweepRow(0.1, 0.8, 0.0005),
                experiments.SweepRow(0.25, nan, 1.0)], sweep)
    assert ablation.read_bytes() == (b"variant,iaca,valence_ccc,arousal_ccc\r\n"
                                     b"CA,no,0.432,-0.000\r\n"
                                     b"CA,yes,0.500,nan\r\n"
                                     b"CA,delta_pct,15.7,nan\r\n")
    assert sweep.read_bytes() == (b"fraction,valence_ccc,arousal_ccc\r\n"
                                  b"0,0.812,-0.100\r\n"
                                  b"0.1,0.800,0.001\r\n"
                                  b"0.25,nan,1.000\r\n")


@pytest.mark.parametrize("empty", ["valence", "arousal"])
def test_sweep_rejects_an_empty_split_by_name(empty):
    model = FusionModel.create(4, "CA", iaca=True, seed=1)
    split = generate(Regime(), d=4, n_clips=6, n_sequences=2, seed=3)
    splits = {dim: [] if dim == empty else split for dim in ("valence", "arousal")}
    with pytest.raises(ValueError, match=f"empty {empty} validation set"):
        missing_modality_sweep(model, model, splits["valence"], splits["arousal"])


def test_missing_audio_evaluation_is_seeded():
    val_model, aro_model, val_split, aro_split = _trained_pair()
    a = missing_modality_sweep(val_model, aro_model, val_split, aro_split, (0.5,))
    b = missing_modality_sweep(val_model, aro_model, val_split, aro_split, (0.5,))
    assert a == b


# -------------------------------------------------------------- attn dumps

def test_dump_scores_normalized_and_simplex(tmp_path):
    cfg = _tiny_cfg()
    model, _, val = train_one(cfg, "valence")
    dump = dump_attention(model, val[0])
    n = cfg.n_clips
    for key in ("audio_attention", "visual_attention"):
        arr = np.array(dump[key])
        assert arr.shape == (n,)
        assert arr.min() >= 0.0 and arr.max() <= 1.0
    for key, width in (("stage1_audio", 2), ("stage1_visual", 2), ("stage2", 3)):
        scores = np.array(dump[key])
        assert scores.shape == (n, width)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(scores >= 0.0)

    path = tmp_path / "attn.json"
    save_attention_dump(dump, path)
    with open(path) as fh:
        assert json.load(fh) == dump
    # a model create accepts may hold a numpy bool, written as the JSON one
    gated = FusionModel.create(4, "CA", np.True_, seed=1)
    save_attention_dump(dump_attention(gated, generate(Regime(), 4, 8, 1, 0)[0]), path)
    assert json.loads(path.read_text())["iaca"] is True


@pytest.mark.parametrize("variant", ["TCA", "CA"])
def test_dump_uses_each_maps_normalization_axis(variant):
    # Near-uniform maps: the row sums of the column-stochastic maps lie within
    # 1e-8 of one, so the axis cannot be told from the sums. The pull of each
    # source clip is its row sum, never the column sum that is one by design.
    model = FusionModel.create(4, variant, iaca=False, seed=3)
    for name in model.params:
        if name.endswith((".wq", "cross.w")):
            model.params[name] *= 1e-7
    seq = generate(Regime(), d=4, n_clips=8, n_sequences=1, seed=2)[0]
    _, (pair,), _ = model.forward(seq.xa, seq.xv)
    for key, weights in (("audio_attention", pair.audio_weights),
                         ("visual_attention", pair.visual_weights)):
        pull = weights.sum(axis=1)
        expected = (pull - pull.min()) / (pull.max() - pull.min())
        assert np.allclose(dump_attention(model, seq)[key], expected, atol=1e-6)


@pytest.mark.parametrize("iaca", [False, True])
@pytest.mark.parametrize("variant", ["CA", "TCA", "JCA", "RJCA"])
def test_inference_builds_no_graph_node(monkeypatch, variant, iaca):
    model = FusionModel.create(4, variant, iaca=iaca, seed=5)
    seqs = generate(Regime(), d=4, n_clips=6, n_sequences=2, seed=4)

    def no_graph(*args):
        raise AssertionError("inference built a node or linked an op's inputs")

    monkeypatch.setattr(autodiff._Node, "__init__", no_graph)
    monkeypatch.setattr(autodiff, "_result", no_graph)
    model.predict_values(seqs[0].xa, seqs[0].xv)
    assert type(model.forward(seqs[0].xa, seqs[0].xv).prediction) is np.ndarray
    dump_attention(model, seqs[0])
    evaluate(model, seqs)


def test_dump_without_gating_omits_gate_fields():
    cfg = _tiny_cfg(iaca=False)
    model, _, val = train_one(cfg, "valence")
    dump = dump_attention(model, val[0])
    assert "stage2" not in dump
    assert "audio_attention" in dump


def test_gate_prefers_audio_candidate_when_audio_dominates():
    # Pinned regression: when only audio carries signal, the trained stage-2
    # gate should route mass to the audio candidate over the visual one.
    cfg = ExperimentConfig(
        variant="CA", iaca=True,
        regime=Regime("dominating_audio", noise_sigma=0.5),
        d=32, n_clips=64, n_train=12, n_val=8, seed=1,
        train=TrainConfig(epochs=40, batch_size=8, lr=0.02, patience=10),
        flags=ModelFlags(temperature=0.5),
    )
    model, _, val = train_one(cfg, "valence")
    dump = dump_attention(model, val[0])
    stage2 = np.array(dump["stage2"])
    assert stage2[:, 0].mean() > stage2[:, 1].mean()
