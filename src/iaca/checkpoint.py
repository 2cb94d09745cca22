"""Versioned binary persistence for fusion models.

Little-endian layout:

  bytes 0-3   magic b"IACA"
  u32         format version (currently 4: version 1's layout, and flags
              that hold the gate temperature alone)
  u32         metadata length, then that many bytes of UTF-8 JSON
              (variant, iaca, d, flags, seed, optional extras)
  u32         parameter count
  per parameter: u16 name length, name bytes, u32 rows, u32 cols
  payload     all parameter entries as raw little-endian float64,
              row-major, in shape-table order

Loads rebuild the exact float64 arrays, so save/load round-trips are
bitwise. A load checks the metadata, then the shape table against the
parameter schema of the model the metadata describes and the declared
payload size against the bytes left in the file, all before reading any
payload. Anything structurally off raises a CheckpointError subclass
rather than propagating struct/JSON internals.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .gating import FusionModel, from_json_object, param_schema

MAGIC = b"IACA"
FORMAT_VERSION = 4


class CheckpointError(RuntimeError):
    """File is not a readable checkpoint."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint written by an incompatible format version."""


@dataclass
class Checkpoint:
    version: int
    model: FusionModel
    meta: dict


def save_checkpoint(model: FusionModel, path, extra_meta: dict = None) -> None:
    meta = {
        "variant": model.variant,
        "iaca": model.iaca,
        "d": model.d,
        "flags": asdict(model.flags),
    }
    if extra_meta:
        overlap = set(extra_meta) & set(meta)
        if overlap:
            raise ValueError(f"extra_meta may not shadow core fields: {sorted(overlap)}")
        meta.update(extra_meta)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")

    # Write a sibling temp file and rename it over the target, so a crash
    # mid-write leaves any previous checkpoint at `path` intact.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", len(model.params)))
            for name, value in model.params.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<II", value.shape[0], value.shape[1]))
            for value in model.params.values():
                fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            # checked before reading, so a corrupt length never allocates
            if n > end - fh.tell():
                raise CheckpointError(f"truncated checkpoint while reading {what}")
            return fh.read(n)

        if read(4, "magic") != MAGIC:
            raise CheckpointError(f"bad magic; {path} is not a checkpoint")
        version = struct.unpack("<I", read(4, "version"))[0]
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint version {version} unsupported (expected {FORMAT_VERSION})")
        meta_len = struct.unpack("<I", read(4, "metadata length"))[0]
        try:
            meta = json.loads(read(meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint metadata: {exc}") from exc
        try:
            # typed like a config: a float d or a string iaca is rejected, not coerced
            model = from_json_object(FusionModel, {k: meta[k] for k in ("variant", "iaca", "d", "flags")})
            model.flags.validate()
            schema = param_schema(model.d, model.variant, model.iaca)
        except KeyError as exc:
            raise CheckpointError(f"checkpoint metadata missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"invalid model metadata in checkpoint: {exc}") from exc

        n_params = struct.unpack("<I", read(4, "parameter count"))[0]
        shapes = {}
        for i in range(n_params):
            name_len = struct.unpack("<H", read(2, f"name length {i}"))[0]
            try:
                name = read(name_len, f"name {i}").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"unreadable name of parameter {i}: {exc}") from exc
            shapes[name] = struct.unpack("<II", read(8, f"shape of {name}"))
        payload = 8 * sum(rows * cols for rows, cols in shapes.values())
        if payload != end - fh.tell():
            raise CheckpointError(f"shape table declares {payload} payload bytes, "
                                  f"file holds {end - fh.tell()}")
        expected = {name: (rows, cols) for name, (rows, cols, _) in schema.items()}
        if len(shapes) != n_params or shapes != expected:
            raise CheckpointError(
                f"parameters do not match a {model.variant} model with iaca={model.iaca}: missing "
                f"or mis-shaped {sorted(set(expected.items()) - set(shapes.items()))}, "
                f"unexpected {sorted(set(shapes.items()) - set(expected.items()))}")
        model.params = {name: np.frombuffer(read(8 * rows * cols, f"payload of {name}"),
                                            dtype="<f8").reshape(rows, cols).copy()
                        for name, (rows, cols) in shapes.items()}
    return Checkpoint(version=version, model=model, meta=meta)
