"""Versioned binary persistence for fusion models.

Little-endian layout:

  bytes 0-3   magic b"IACA"
  u32         format version (currently 1)
  u32         metadata length, then that many bytes of UTF-8 JSON
              (variant, iaca, d, flags, seed, optional extras)
  u32         parameter count
  per parameter: u16 name length, name bytes, u32 rows, u32 cols
  payload     all parameter entries as raw little-endian float64,
              row-major, in shape-table order

Loads rebuild the exact float64 arrays, so save/load round-trips are
bitwise. Anything structurally off raises a CheckpointError subclass
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

from .gating import FusionModel, ModelFlags

MAGIC = b"IACA"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """File is not a readable checkpoint."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint written by an incompatible format version."""


@dataclass
class Checkpoint:
    version: int
    model: FusionModel
    meta: dict


def _read(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


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
        if _read(fh, 4, "magic") != MAGIC:
            raise CheckpointError(f"bad magic; {path} is not a checkpoint")
        version = struct.unpack("<I", _read(fh, 4, "version"))[0]
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint version {version} unsupported (expected {FORMAT_VERSION})")
        meta_len = struct.unpack("<I", _read(fh, 4, "metadata length"))[0]
        try:
            meta = json.loads(_read(fh, meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint metadata: {exc}") from exc
        for key in ("variant", "iaca", "d", "flags"):
            if key not in meta:
                raise CheckpointError(f"checkpoint metadata missing {key!r}")

        n_params = struct.unpack("<I", _read(fh, 4, "parameter count"))[0]
        shapes = []
        for i in range(n_params):
            name_len = struct.unpack("<H", _read(fh, 2, f"name length {i}"))[0]
            name = _read(fh, name_len, f"name {i}").decode("utf-8")
            rows, cols = struct.unpack("<II", _read(fh, 8, f"shape of {name}"))
            if rows == 0 or cols == 0:
                raise CheckpointError(f"degenerate shape {rows}x{cols} for {name}")
            shapes.append((name, rows, cols))

        params = {}
        for name, rows, cols in shapes:
            raw = _read(fh, 8 * rows * cols, f"payload of {name}")
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
        if fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint payload")

    try:
        flags = ModelFlags(**meta["flags"])
        flags.validate()
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid flags in checkpoint: {exc}") from exc
    model = FusionModel(d=int(meta["d"]), variant=meta["variant"],
                        iaca=bool(meta["iaca"]), flags=flags, params=params)
    return Checkpoint(version=version, model=model, meta=meta)
