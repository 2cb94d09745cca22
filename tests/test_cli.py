import csv
import json
import pkgutil
import re
import shlex
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from iaca.checkpoint import load_checkpoint, save_checkpoint
from iaca.cli import build_parser, main
from iaca.experiments import ExperimentConfig, prepare_splits
from iaca.gating import FusionModel, ModelFlags
from iaca.synth import Regime

def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


TINY = ["--d", "6", "--clips", "8", "--n-train", "4", "--n-val", "2",
        "--epochs", "2", "--batch-size", "4", "--seed", "21", "--patience", "0"]


def test_train_writes_checkpoint_and_history(tmp_path, capsys):
    rc = main(["train", *TINY, "--variant", "CA", "--iaca",
               "--dims", "valence", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "best val CCC" in capsys.readouterr().out
    ckpt = load_checkpoint(tmp_path / "ca_iaca_valence.ckpt")
    assert ckpt.model.variant == "CA"
    assert ckpt.model.iaca
    assert ckpt.meta["output_dim"] == "valence"
    assert ckpt.meta["experiment"]["d"] == 6
    history = _csv_rows(tmp_path / "ca_iaca_valence_history.csv")
    assert len(history) == 2


def test_train_respects_name_and_no_iaca(tmp_path):
    rc = main(["train", *TINY, "--variant", "JCA", "--no-iaca",
               "--dims", "valence", "--name", "probe",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    ckpt = load_checkpoint(tmp_path / "probe.ckpt")
    assert not ckpt.model.iaca
    assert ckpt.model.variant == "JCA"


def test_ablation_csv(tmp_path):
    rc = main(["ablation", *TINY, "--variants", "CA",
               "--out-dir", str(tmp_path), "--out", "ab.csv"])
    assert rc == 0
    rows = _csv_rows(tmp_path / "ab.csv")
    assert [r["iaca"] for r in rows] == ["no", "yes", "delta_pct"]


def test_sweep_needs_matched_pair(tmp_path, capsys):
    main(["train", *TINY, "--variant", "CA", "--iaca", "--out-dir", str(tmp_path)])
    rc = main(["sweep",
               "--checkpoint-valence", str(tmp_path / "ca_iaca_arousal.ckpt"),
               "--checkpoint-arousal", str(tmp_path / "ca_iaca_valence.ckpt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("variant", "TCA"), ("iaca", False), ("d", 4),
                                         ("flags", ModelFlags(temperature=0.5))],
                         ids=["variant", "iaca", "d", "flags"])
def test_sweep_rejects_a_mixed_model_pair(tmp_path, capsys, field, value):
    paths = {}
    for dim, spec in (("valence", {}), ("arousal", {field: value})):
        spec = {"d": 6, "variant": "CA", "iaca": True, **spec}
        model = FusionModel.create(seed=1, **spec)
        experiment = asdict(ExperimentConfig(n_clips=8, n_train=4, n_val=2, **spec))
        paths[dim] = tmp_path / f"{dim}.ckpt"
        save_checkpoint(model, paths[dim],
                        extra_meta={"experiment": experiment, "output_dim": dim})
    rc = main(["sweep", "--checkpoint-valence", str(paths["valence"]),
               "--checkpoint-arousal", str(paths["arousal"]),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: checkpoints must be one model "
                                              f"pair; their {field} differs")
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_a_pair_from_two_experiment_configs(tmp_path, capsys):
    model = FusionModel.create(6, "CA", iaca=True, seed=1)
    paths = {}
    for dim, kind in (("valence", "strong_complementary"), ("arousal", "weak_conflicting")):
        experiment = asdict(ExperimentConfig(d=6, n_clips=8, n_train=4, n_val=2,
                                             regime=Regime(kind)))
        paths[dim] = tmp_path / f"{dim}.ckpt"
        save_checkpoint(model, paths[dim],
                        extra_meta={"experiment": experiment, "output_dim": dim})
    rc = main(["sweep", "--checkpoint-valence", str(paths["valence"]),
               "--checkpoint-arousal", str(paths["arousal"]),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoints must share one experiment config; "
                          "their regime differs")
    assert "strong_complementary" in err and "weak_conflicting" in err
    assert not (tmp_path / "out").exists()


def test_sweep_takes_a_pair_trained_into_two_directories(tmp_path, capsys):
    for dim, out_dir in (("valence", tmp_path / "a"), ("arousal", tmp_path / "b")):
        assert main(["train", *TINY, "--variant", "CA", "--iaca", "--dims", dim,
                     "--out-dir", str(out_dir)]) == 0
    rc = main(["sweep", "--checkpoint-valence", str(tmp_path / "a" / "ca_iaca_valence.ckpt"),
               "--checkpoint-arousal", str(tmp_path / "b" / "ca_iaca_arousal.ckpt"),
               "--fractions", "0,0.5", "--out", "sweep.csv"])
    assert rc == 0, capsys.readouterr().err
    # with no --out-dir, output follows the valence checkpoint's config
    assert len(_csv_rows(tmp_path / "a" / "sweep.csv")) == 2


def test_sweep_and_dump_from_checkpoints(tmp_path):
    rc = main(["train", *TINY, "--variant", "CA", "--iaca",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rc = main(["sweep",
               "--checkpoint-valence", str(tmp_path / "ca_iaca_valence.ckpt"),
               "--checkpoint-arousal", str(tmp_path / "ca_iaca_arousal.ckpt"),
               "--fractions", "0,0.5", "--out-dir", str(tmp_path),
               "--out", "sweep.csv"])
    assert rc == 0
    rows = _csv_rows(tmp_path / "sweep.csv")
    assert [float(r["fraction"]) for r in rows] == [0.0, 0.5]
    ckpt = load_checkpoint(tmp_path / "ca_iaca_valence.ckpt")
    assert float(rows[0]["valence_ccc"]) == pytest.approx(ckpt.meta["best_val_ccc"], abs=5e-4)

    rc = main(["dump-attn", "--checkpoint", str(tmp_path / "ca_iaca_valence.ckpt"),
               "--index", "1", "--out-dir", str(tmp_path), "--out", "attn.json"])
    assert rc == 0
    with open(tmp_path / "attn.json") as fh:
        dump = json.load(fh)
    assert dump["variant"] == "CA"
    assert len(dump["audio_attention"]) == 8
    assert np.array(dump["stage2"]).shape == (8, 3)


def test_dump_attn_index_out_of_range(tmp_path, capsys):
    main(["train", *TINY, "--variant", "CA", "--iaca", "--dims", "valence",
          "--out-dir", str(tmp_path)])
    rc = main(["dump-attn", "--checkpoint", str(tmp_path / "ca_iaca_valence.ckpt"),
               "--index", "99", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_dump_attn_runs_on_the_checkpoint_dimension(tmp_path):
    # an arousal checkpoint is dumped on the arousal split, with no flag
    main(["train", *TINY, "--variant", "CA", "--iaca", "--dims", "arousal",
          "--out-dir", str(tmp_path)])
    ckpt = load_checkpoint(tmp_path / "ca_iaca_arousal.ckpt")
    rc = main(["dump-attn", "--checkpoint", str(tmp_path / "ca_iaca_arousal.ckpt"),
               "--index", "1", "--out-dir", str(tmp_path), "--out", "attn.json"])
    assert rc == 0
    with open(tmp_path / "attn.json") as fh:
        dump = json.load(fh)
    cfg = ExperimentConfig.from_dict(ckpt.meta["experiment"])
    (_, arousal_val), (_, valence_val) = (prepare_splits(cfg, dim)
                                          for dim in ("arousal", "valence"))
    assert dump["target"] == arousal_val[1].target.ravel().tolist()
    assert dump["target"] != valence_val[1].target.ravel().tolist()
    assert dump["prediction"] == ckpt.model.predict_values(
        arousal_val[1].xa, arousal_val[1].xv).ravel().tolist()


@pytest.mark.parametrize("output_dim", [None, "dominance", 1])
def test_dump_attn_needs_a_valid_output_dim(tmp_path, capsys, output_dim):
    model = FusionModel.create(6, "CA", iaca=True, seed=1)
    meta = {"experiment": asdict(ExperimentConfig(d=6, n_clips=8, n_train=4, n_val=2))}
    if output_dim is not None:
        meta["output_dim"] = output_dim
    save_checkpoint(model, tmp_path / "m.ckpt", extra_meta=meta)
    rc = main(["dump-attn", "--checkpoint", str(tmp_path / "m.ckpt"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "output_dim" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing", ["head.w1", "experiment"])
def test_dump_attn_on_incomplete_checkpoint(tmp_path, capsys, missing):
    model = FusionModel.create(6, "CA", iaca=True, seed=1)
    meta = {"experiment": asdict(ExperimentConfig(d=6, n_clips=8, n_train=4, n_val=2)),
            "output_dim": "valence"}
    (model.params if missing == "head.w1" else meta).pop(missing)
    path = tmp_path / "partial.ckpt"
    save_checkpoint(model, path, extra_meta=meta)
    rc = main(["dump-attn", "--checkpoint", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err


@pytest.mark.parametrize("command", ["sweep", "dump-attn"])
def test_invalid_stored_experiment_exits_with_error(tmp_path, capsys, command):
    # unvalidated, n_train=-3 would carve the validation split as seqs[-3:]
    model = FusionModel.create(6, "CA", iaca=True, seed=1)
    experiment = asdict(ExperimentConfig(d=6, n_clips=8, n_train=-3, n_val=5))
    paths = {}
    for dim in ("valence", "arousal"):
        paths[dim] = tmp_path / f"{dim}.ckpt"
        save_checkpoint(model, paths[dim],
                        extra_meta={"experiment": experiment, "output_dim": dim})
    if command == "sweep":
        argv = ["sweep", "--checkpoint-valence", str(paths["valence"]),
                "--checkpoint-arousal", str(paths["arousal"])]
    else:
        argv = ["dump-attn", "--checkpoint", str(paths["valence"])]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: both splits")
    assert not (tmp_path / "out").exists()


def test_env_var_sets_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("IACA_RESULTS_DIR", str(tmp_path / "envroot"))
    rc = main(["train", *TINY, "--dims", "valence", "--name", "env"])
    assert rc == 0
    assert (tmp_path / "envroot" / "env.ckpt").exists()


def test_flag_overrides_beat_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "d": 6, "n_clips": 8, "n_train": 4, "n_val": 2, "seed": 3,
        "train": {"epochs": 2, "batch_size": 4, "patience": 0},
        "out_dir": str(tmp_path)}))
    rc = main(["train", "--config", str(cfg_file), "--d", "9",
               "--dims", "valence", "--name", "d9"])
    assert rc == 0
    experiment = load_checkpoint(tmp_path / "d9.ckpt").meta["experiment"]
    assert (experiment["d"], experiment["n_clips"]) == (9, 8)


def test_invalid_values_exit_nonzero(tmp_path, capsys):
    rc = main(["train", "--d", "1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_repeated_dim_rejected_before_training(tmp_path, capsys):
    rc = main(["train", *TINY, "--dims", "valence", "arousal", "valence",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "valence" in err
    assert list(tmp_path.iterdir()) == []


# the overflow that --lr 1e300 provokes on purpose, and nothing else
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_diverging_train_exits_with_error(tmp_path, capsys):
    rc = main(["train", "--variant", "CA", "--iaca", "--lr", "1e300", "--optimizer", "sgd",
               "--d", "4", "--clips", "8", "--n-train", "2", "--n-val", "2",
               "--epochs", "2", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err


def test_subnormal_temperature_rejected_before_data(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("iaca.experiments.generate", lambda *a: pytest.fail("generated"))
    rc = main(["train", *TINY, "--variant", "CA", "--iaca", "--temperature", "1e-320",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: temperature")
    assert list(tmp_path.iterdir()) == []


def test_repeated_variant_rejected_before_training(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("iaca.cli.run_ablation", lambda *a: pytest.fail("trained"))
    rc = main(["ablation", *TINY, "--variants", "CA,CA", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --variants repeats 'CA'")
    assert list(tmp_path.iterdir()) == []


def test_repeated_fraction_rejected_before_loading(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("iaca.cli.load_checkpoint", lambda *a: pytest.fail("loaded"))
    rc = main(["sweep", "--checkpoint-valence", "v.ckpt", "--checkpoint-arousal", "a.ckpt",
               "--fractions", "0.2,0.2,0", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --fractions repeats 0.2")
    assert list(tmp_path.iterdir()) == []


def test_empty_variant_list_rejected_before_training(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("iaca.cli.run_ablation", lambda *a: pytest.fail("trained"))
    rc = main(["ablation", *TINY, "--variants", "", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: unknown variant ''")
    assert list(tmp_path.iterdir()) == []


def test_empty_fraction_list_rejected_before_loading(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("iaca.cli.load_checkpoint", lambda *a: pytest.fail("loaded"))
    rc = main(["sweep", "--checkpoint-valence", "v.ckpt", "--checkpoint-arousal", "a.ckpt",
               "--fractions", "", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "''" in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_variant_list_rejected(tmp_path, capsys):
    rc = main(["ablation", *TINY, "--variants", "CA,NOPE",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "dump-attn"])
def test_corrupt_checkpoint_exits_with_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"IACA" + b"\x00" * 5)
    if command == "sweep":
        argv = ["sweep", "--checkpoint-valence", str(bad),
                "--checkpoint-arousal", str(bad), "--out-dir", str(tmp_path)]
    else:
        argv = ["dump-attn", "--checkpoint", str(bad), "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_nested_config_key_exits_with_error(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"regime": {"bogus": 1}}))
    rc = main(["train", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "regime.bogus" in err


def test_stage1_input_config_field_is_unknown(tmp_path, capsys):
    # stage 1 blends each attended feature with the raw one; no flag picks it
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"flags": {"stage1_input": "raw"}}))
    rc = main(["train", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown config fields: ['flags.stage1_input']\n"
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_stage1_input_flag_is_unknown(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", *TINY, "--stage1-input", "raw", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stage1-input raw" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config", [
    {"train": {"epochs": 2.5}},
    {"d": "32"},
    {"regime": {"noise_sigma": "x"}},
    [1],
    {"n_clips": 64.0},
    {"iaca": "no"},
], ids=["float-epochs", "str-d", "str-noise", "list", "float-clips", "str-iaca"])
def test_wrongly_typed_config_exits_with_error(tmp_path, capsys, config):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    rc = main(["train", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("section, field, value", [
    ("flags", "temperature", float("nan")),
    ("train", "lr", float("nan")),
    ("train", "lr", float("inf")),
    ("regime", "noise_sigma", float("nan")),
    ("flags", "temperature", 10**400),
    ("train", "lr", 10**400),
    ("regime", "noise_sigma", 10**400),
], ids=["nan-temperature", "nan-lr", "inf-lr", "nan-noise",
        "huge-int-temperature", "huge-int-lr", "huge-int-noise"])
def test_non_finite_config_exits_with_error(tmp_path, capsys, section, field, value):
    # json writes and reads NaN and Infinity; every check by < or <= let NaN
    # through, and an int past the float range passes them but overflows later
    config = {"d": 2, "n_clips": 4, "n_train": 1, "n_val": 1, "train": {"epochs": 1},
              "regime": {"kind": "weak_conflicting"}}
    config.setdefault(section, {})[field] = value
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    rc = main(["train", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{section}.{field}" in err
    assert not list(tmp_path.rglob("*.ckpt"))


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse():
    # every `iaca ...` line of the README's code blocks, continuations joined,
    # must parse (not run) against the current CLI
    readme = README.read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [line for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("iaca ")]
    assert commands
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_library_names_resolve():
    # every `iaca.<name>` reference and every name a `from iaca import ...`
    # line imports must exist in the package
    readme = README.read_text()
    names = re.findall(r"\biaca(?:\.[A-Za-z_]\w*)+", readme)
    for line in re.findall(r"^from iaca import (.+)$", readme, flags=re.M):
        names += [f"iaca.{name.strip()}" for name in line.split(",")]
    assert names
    for name in names:
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            pytest.fail(f"README names {name}, which does not resolve")


@pytest.mark.parametrize("variant,op", [("CA", "cross_correlation"), ("TCA", "softmax"),
                                        ("JCA", "softmax")])
def test_out_of_memory_names_the_sequence_length(tmp_path, capsys, monkeypatch, variant, op):
    # stands in for numpy failing to allocate an L x L map; nothing large is allocated
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape (8, 8)")

    monkeypatch.setattr(f"iaca.attention.{op}", too_big)
    rc = main(["train", *TINY, "--variant", variant, "--dims", "valence",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sequence length 8 is too long") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
