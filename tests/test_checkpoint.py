import json
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import iaca
from iaca.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from iaca.experiments import ExperimentConfig
from iaca.gating import FusionModel, ModelFlags


def _random_model(rng):
    variant = ("CA", "TCA", "JCA", "RJCA")[int(rng.integers(4))]
    flags = ModelFlags(temperature=float(rng.uniform(0.05, 1.0)))
    return FusionModel.create(int(rng.integers(2, 9)), variant,
                              iaca=bool(rng.integers(2)), flags=flags,
                              seed=int(rng.integers(1 << 31)))


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(70)
    for i in range(8):
        model = _random_model(rng)
        path = tmp_path / f"m{i}.ckpt"
        save_checkpoint(model, path)
        ckpt = load_checkpoint(path)
        assert ckpt.model.variant == model.variant
        assert ckpt.model.iaca == model.iaca
        assert ckpt.model.d == model.d
        assert ckpt.model.flags == model.flags
        assert list(ckpt.model.params) == list(model.params)
        for k in model.params:
            assert np.array_equal(ckpt.model.params[k], model.params[k])


@pytest.mark.parametrize("d, iaca, temperature, seed", [
    (4, True, 0.3, 2), (np.int64(4), np.True_, np.float32(0.3), np.int64(2))],
    ids=["python", "numpy"])
def test_every_model_create_accepts_round_trips(tmp_path, d, iaca, temperature, seed):
    # create takes numpy scalars as a config does; the metadata writes them as
    # the JSON values they equal, and an experiment config in extra_meta too
    model = FusionModel.create(d, "TCA", iaca, flags=ModelFlags(temperature), seed=3)
    cfg = ExperimentConfig(variant="TCA", iaca=iaca, d=d, seed=seed, flags=model.flags)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, extra_meta={"experiment": asdict(cfg)})
    ckpt = load_checkpoint(path)
    restored = ckpt.model
    assert (restored.d, restored.variant, restored.iaca, restored.flags) == (
        model.d, model.variant, model.iaca, model.flags)
    assert ExperimentConfig.from_dict(ckpt.meta["experiment"]) == cfg
    assert list(restored.params) == list(model.params)
    for k in model.params:
        assert np.array_equal(restored.params[k], model.params[k])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_rejected_by_name(tmp_path, bad):
    # fit never saves one, but a file from elsewhere may hold one: loaded, it
    # would score every clip NaN and a sweep would write nan rows
    model = FusionModel.create(4, "CA", iaca=True, seed=1)
    model.params["head.b2"][0, 0] = bad
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match="^parameter head.b2 holds a non-finite value$"):
        load_checkpoint(path)


def test_restored_model_predicts_identically(tmp_path):
    rng = np.random.default_rng(71)
    model = FusionModel.create(5, "RJCA", iaca=True, seed=11)
    xa = rng.normal(size=(5, 7))
    xv = rng.normal(size=(5, 7))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    restored = load_checkpoint(path).model
    assert np.array_equal(model.predict_values(xa, xv),
                          restored.predict_values(xa, xv))


def test_extra_metadata_round_trips(tmp_path):
    model = FusionModel.create(3, "CA", iaca=False, seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, extra_meta={"note": "unit", "best_val_ccc": 0.5})
    meta = load_checkpoint(path).meta
    assert meta["note"] == "unit"
    assert meta["best_val_ccc"] == 0.5
    save_checkpoint(model, path)  # the core keys alone: no seed
    assert load_checkpoint(path).meta == {"variant": "CA", "iaca": False, "d": 3,
                                          "flags": {"temperature": 0.1}}
    with pytest.raises(ValueError):
        save_checkpoint(model, path, extra_meta={"variant": "sneaky"})


def test_truncation_anywhere_is_a_structured_error(tmp_path):
    model = FusionModel.create(4, "CA", iaca=True, seed=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    for cut in (0, 2, 4, 6, 11, len(blob) // 2, len(blob) - 1):
        short = tmp_path / "short.ckpt"
        short.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(short)


def test_bad_magic_rejected(tmp_path):
    model = FusionModel.create(3, "CA", iaca=False, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_foreign_version_raises_version_error(tmp_path):
    model = FusionModel.create(3, "CA", iaca=False, seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    # 1 and 2 are what files written before model flags were dropped carry
    for version in (1, 2, 99):
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", version)
        bad = tmp_path / f"v{version}.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(bad)


def test_version_3_checkpoint_is_refused(tmp_path):
    # version 3 stored a stage-1 input flag beside the temperature; its
    # files are refused by version, not read with a key the model lacks
    meta, params = _schema_params("CA", True, 3)
    meta["flags"]["stage1_input"] = "raw"
    raw = bytearray(_handmade(meta, params))
    raw[4:8] = struct.pack("<I", 3)
    path = tmp_path / "v3.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError, match="version 3 unsupported"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    model = FusionModel.create(3, "CA", iaca=False, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(padded)


def _handmade(meta: dict, params: dict) -> bytes:
    blob = json.dumps(meta).encode()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    out += struct.pack("<I", len(params))
    for name, value in params.items():
        enc = name.encode()
        out += struct.pack("<H", len(enc))
        out += enc
        out += struct.pack("<II", value.shape[0], value.shape[1])
    for value in params.values():
        out += value.astype("<f8").tobytes()
    return bytes(out)


def test_missing_meta_fields_rejected(tmp_path):
    path = tmp_path / "nometa.ckpt"
    path.write_bytes(_handmade({"variant": "CA", "iaca": True, "d": 2},
                               {"w": np.zeros((2, 2))}))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_corrupt_flags_rejected(tmp_path):
    meta = {"variant": "CA", "iaca": True, "d": 2,
            "flags": {"temperature": "hot"}}
    path = tmp_path / "badflags.ckpt"
    path.write_bytes(_handmade(meta, {"w": np.zeros((2, 2))}))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_degenerate_shape_rejected(tmp_path):
    meta = {"variant": "CA", "iaca": False, "d": 2, "flags": {"temperature": 0.1}}
    raw = bytearray(_handmade(meta, {"w": np.zeros((1, 1))}))
    # zero out the row count in the shape table: ...name("w") u32 u32
    idx = raw.index(b"w", 4)
    raw[idx + 1:idx + 5] = struct.pack("<I", 0)
    path = tmp_path / "degenerate.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_unparseable_metadata_rejected(tmp_path):
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", 4)
    out += b"{{{{"
    out += struct.pack("<I", 0)
    path = tmp_path / "badjson.ckpt"
    path.write_bytes(bytes(out))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_deeply_nested_metadata_rejected(tmp_path):
    # json's parser recurses once per level and gives up with RecursionError
    blob = b"[" * 200_000
    path = tmp_path / "deep.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob)) + blob
                     + struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="unreadable checkpoint metadata"):
        load_checkpoint(path)


def test_failed_save_leaves_previous_file_and_no_temp(tmp_path):
    rng = np.random.default_rng(75)
    path = tmp_path / "model.ckpt"
    save_checkpoint(_random_model(rng), path)
    before = path.read_bytes()
    broken = _random_model(rng)
    # the header is written before this payload fails to convert
    broken.params[next(reversed(broken.params))] = np.array([["x"]])
    with pytest.raises(ValueError):
        save_checkpoint(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def _schema_params(variant, iaca, d, flags=None):
    model = FusionModel.create(d, variant, iaca=iaca, flags=flags, seed=0)
    return {"variant": variant, "iaca": iaca, "d": d,
            "flags": asdict(model.flags)}, model.params


@pytest.mark.parametrize("rows, cols", [(0xFFFFFFFF, 0xFFFFFFFF), (200000, 2000)])
def test_declared_payload_checked_against_file_size(tmp_path, rows, cols):
    meta, params = _schema_params("CA", False, 2)
    raw = bytearray(_handmade(meta, params))
    idx = raw.index(b"cross.w", 4) + len(b"cross.w")
    raw[idx:idx + 8] = struct.pack("<II", rows, cols)
    path = tmp_path / "huge.ckpt"
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="payload bytes"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_undecodable_parameter_name_rejected(tmp_path):
    meta, params = _schema_params("CA", False, 2)
    raw = bytearray(_handmade(meta, params))
    raw[raw.index(b"cross.w", 4)] = 0xFF
    path = tmp_path / "badname.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="name"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["missing", "mis-shaped", "unexpected"])
def test_parameters_checked_against_model_schema(tmp_path, edit):
    meta, params = _schema_params("RJCA", True, 3)
    if edit == "missing":
        del params["head.w1"]
    elif edit == "mis-shaped":
        params["head.w1"] = params["head.w1"].T.copy()
    else:
        params["rjca0.cross_a"] = np.zeros((3, 3))
    path = tmp_path / f"{edit}.ckpt"
    path.write_bytes(_handmade(meta, params))
    name = "rjca0.cross_a" if edit == "unexpected" else "head.w1"
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(path)


def test_flag_types_checked_at_load(tmp_path):
    # the parameters match the schema whatever the temperature is, so only
    # the flag's type can reject this file
    meta, params = _schema_params("RJCA", True, 3)
    meta["flags"]["temperature"] = "0.1"
    path = tmp_path / "str_temperature.ckpt"
    path.write_bytes(_handmade(meta, params))
    with pytest.raises(CheckpointError, match="temperature"):
        load_checkpoint(path)


def test_model_flags_missing_from_metadata_rejected(tmp_path):
    # save_checkpoint writes every flag; one left out would load at its
    # default, and this model would predict at temperature 0.1, not 0.5
    meta, params = _schema_params("CA", True, 3, flags=ModelFlags(temperature=0.5))
    meta["flags"] = {}
    path = tmp_path / "no_temperature.ckpt"
    path.write_bytes(_handmade(meta, params))
    with pytest.raises(CheckpointError, match=r"\['flags\.temperature'\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("temperature", [0.0, -0.5, 1e-320], ids=["zero", "negative", "subnormal"])
def test_flag_values_checked_at_load(tmp_path, temperature):
    # well typed, and the schema does not read the flags, so only the
    # flags' own validation can reject this file
    meta, params = _schema_params("CA", True, 3)
    meta["flags"]["temperature"] = temperature
    path = tmp_path / "bad_temperature.ckpt"
    path.write_bytes(_handmade(meta, params))
    with pytest.raises(CheckpointError, match="temperature"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("iaca", "no"), ("iaca", 0), ("d", 3.9), ("d", True)],
                         ids=["str-iaca", "int-iaca", "float-d", "bool-d"])
def test_model_metadata_types_checked_at_load(tmp_path, field, value):
    # each value used to be coerced: "no" loaded as a gated model, 3.9 as d=3
    meta, params = _schema_params("CA", True, 3)
    meta[field] = value
    path = tmp_path / "mistyped.ckpt"
    path.write_bytes(_handmade(meta, params))
    with pytest.raises(CheckpointError,
                       match=f"^invalid model metadata in checkpoint: {field} must be "):
        load_checkpoint(path)


def test_seeded_byte_mutations_raise_only_checkpoint_errors(tmp_path):
    model = FusionModel.create(2, "CA", iaca=True, seed=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    rng = np.random.default_rng(77)
    for case in range(400):
        raw = bytearray(blob)
        for pos in rng.integers(len(raw), size=int(rng.integers(1, 4))):
            raw[pos] = int(rng.integers(256))
        if rng.random() < 0.25:
            raw = raw[:int(rng.integers(len(raw)))]
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


@pytest.mark.parametrize("field, value", [("variant", "XCA"), ("flags", ModelFlags(-0.5))],
                         ids=["variant", "temperature"])
def test_one_check_rejects_a_bad_description_alike_everywhere(tmp_path, field, value):
    # create and a checkpoint load ask param_schema, and a config's fields
    # declare the same limits, so a bad description reads the same from each
    bad = {"d": 3, "variant": "CA", "iaca": True, "flags": ModelFlags(), field: value}
    meta, params = _schema_params("CA", True, 3)
    meta.update(variant=bad["variant"], flags=asdict(bad["flags"]))
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_handmade(meta, params))
    messages = []
    for reject in (ExperimentConfig(**bad).validate, lambda: FusionModel.create(**bad),
                   lambda: load_checkpoint(path)):
        with pytest.raises((ValueError, CheckpointError)) as exc:
            reject()
        messages.append(str(exc.value))
    config, create, load = messages
    assert config == create
    assert load == f"invalid model metadata in checkpoint: {config}"


def test_importing_the_package_loads_no_hashing_or_openssl():
    # save_checkpoint names its temp file with os.urandom, not secrets,
    # whose import pulls in hmac, hashlib and OpenSSL's libcrypto
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import iaca; "
            "print(sorted({'_hashlib', 'hmac', 'secrets'} & set(sys.modules)))")
    src = str(Path(iaca.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
