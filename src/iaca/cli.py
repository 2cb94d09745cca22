"""Command-line experiment runner.

Subcommands: train, ablation, sweep, dump-attn. train and ablation take a
JSON config file (the ExperimentConfig schema) plus flag overrides; sweep
and dump-attn rebuild data from a checkpoint's config and output_dim.
train and ablation write under --out-dir, else the config's out_dir, else
$IACA_RESULTS_DIR, else the working directory; sweep and dump-attn under
--out-dir, else the (valence) checkpoint's directory. Checkpoints store no
out_dir, so one training writes the same bytes wherever it goes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .attention import VARIANTS
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .experiments import (
    DEFAULT_SWEEP_FRACTIONS,
    OUTPUT_DIMS,
    ExperimentConfig,
    dump_attention,
    missing_modality_sweep,
    prepare_splits,
    run_ablation,
    save_ablation,
    save_attention_dump,
    save_history,
    save_sweep,
    train_one,
)
from .gating import _type_hints
from .synth import REGIME_KINDS
from .training import OPTIMIZERS, TrainingDivergence

ENV_OUT_DIR = "IACA_RESULTS_DIR"


# Every config flag: (flag, dotted ExperimentConfig field, argparse keywords).
# It parses to the field's annotated type (a bool gets a --no- twin), and its
# value is read back from argparse's default destination (--n-train -> n_train).
_CONFIG_FLAGS = (
    ("--variant", "variant", {"choices": VARIANTS}),
    ("--iaca", "iaca", {"help": "attach the two-stage gating (default from config)"}),
    ("--regime", "regime.kind", {"choices": REGIME_KINDS}),
    ("--noise-sigma", "regime.noise_sigma", {}),
    ("--corrupt-fraction", "regime.corrupt_fraction",
     {"help": "fraction of audio clips zeroed in training sequences"}),
    ("--d", "d", {}),
    ("--clips", "n_clips", {"help": "sequence length L"}),
    ("--n-train", "n_train", {}),
    ("--n-val", "n_val", {}),
    ("--seed", "seed", {}),
    ("--epochs", "train.epochs", {}),
    ("--batch-size", "train.batch_size", {}),
    ("--lr", "train.lr", {}),
    ("--optimizer", "train.optimizer", {"choices": OPTIMIZERS}),
    ("--patience", "train.patience", {}),
    ("--temperature", "flags.temperature", {}),
    ("--out-dir", "out_dir", {}),
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with ExperimentConfig fields")
    for flag, dotted, kwargs in _CONFIG_FLAGS:
        kind = ExperimentConfig
        for name in dotted.split("."):
            kind = _type_hints(kind)[name]
        if kind is bool:
            pair = parser.add_mutually_exclusive_group()
            pair.add_argument(flag, action="store_true", default=None, **kwargs)
            pair.add_argument(f"--no-{flag[2:]}", dest=flag[2:], action="store_false")
        else:
            parser.add_argument(flag, type=kind, **kwargs)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"config file {args.config} nests too deeply") from None
    cfg = ExperimentConfig.from_dict(data)
    for flag, dotted, _ in _CONFIG_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            section, _, name = dotted.rpartition(".")
            setattr(getattr(cfg, section) if section else cfg, name, value)

    cfg.validate()
    return cfg


def _out_root(path) -> Path:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    return root


def _ckpt_name(cfg: ExperimentConfig, dim: str) -> str:
    mode = "iaca" if cfg.iaca else "base"
    return f"{cfg.variant.lower()}_{mode}_{dim}"


def _reject_repeats(flag: str, values) -> None:
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{flag} repeats {value!r}")


def _cmd_train(args: argparse.Namespace) -> int:
    _reject_repeats("--dims", args.dims)
    cfg = _load_config(args)
    root = _out_root(cfg.out_dir or os.environ.get(ENV_OUT_DIR) or ".")
    for dim in args.dims:
        model, result, _ = train_one(cfg, dim)
        stem = args.name or _ckpt_name(cfg, dim)
        if len(args.dims) > 1 and args.name:
            stem = f"{args.name}_{dim}"
        ckpt_path = root / f"{stem}.ckpt"
        save_checkpoint(model, ckpt_path, extra_meta={
            "experiment": asdict(replace(cfg, out_dir="")),
            "output_dim": dim,
            "best_val_ccc": result.best_val_ccc,
            "best_epoch": result.best_epoch,
        })
        save_history(result.history, root / f"{stem}_history.csv")
        print(f"{dim}: best val CCC {result.best_val_ccc:.3f} at epoch "
              f"{result.best_epoch} ({len(result.history)} epochs run); "
              f"checkpoint {ckpt_path}")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    variants = args.variants.split(",") if args.variants is not None else list(VARIANTS)
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}; choose from {','.join(VARIANTS)}")
    _reject_repeats("--variants", variants)
    rows = run_ablation(cfg, variants)
    path = _out_root(cfg.out_dir or os.environ.get(ENV_OUT_DIR) or ".") / args.out
    save_ablation(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    for r in rows:
        valence, arousal = r.formatted()
        print(f"  {r.variant:5s} {r.iaca:9s} valence {valence} arousal {arousal}")
    return 0


_MODEL_FIELDS = ("variant", "iaca", "d", "flags")


def _restore(path):
    try:
        ckpt = load_checkpoint(path)
        exp = ckpt.meta.get("experiment")
        if exp is None:
            raise ValueError("carries no experiment config; cannot rebuild data")
        # stored whole by train; a missing field must not fall back to its default
        cfg = ExperimentConfig.from_dict(exp, complete=True)
        cfg.validate()
        # each command rebuilds data from cfg for the model it loaded
        _require_same("hold the model their config describes", cfg, ckpt.model,
                      _MODEL_FIELDS)
    except (ValueError, CheckpointError) as exc:  # sweep restores two: say which
        raise type(exc)(f"{path}: {exc}") from exc
    return ckpt.model, cfg, ckpt.meta.get("output_dim")


def _require_same(what: str, valence, arousal, names) -> None:
    for name in names:
        val_value, aro_value = getattr(valence, name), getattr(arousal, name)
        if val_value != aro_value:
            raise ValueError(f"checkpoints must {what}; their {name} differs "
                             f"({val_value!r} vs {aro_value!r})")


def _cmd_sweep(args: argparse.Namespace) -> int:
    fractions = ([float(f) for f in args.fractions.split(",")]
                 if args.fractions is not None else list(DEFAULT_SWEEP_FRACTIONS))
    _reject_repeats("--fractions", fractions)
    val_model, val_cfg, val_dim = _restore(args.checkpoint_valence)
    aro_model, aro_cfg, aro_dim = _restore(args.checkpoint_arousal)
    if val_dim != "valence" or aro_dim != "arousal":
        raise ValueError("checkpoints must be a (valence, arousal) pair; got "
                         f"({val_dim}, {aro_dim})")
    _require_same("be one model pair", val_model, aro_model, _MODEL_FIELDS)
    # older checkpoints store where they were written, not how their data was made
    _require_same("share one experiment config", val_cfg, aro_cfg,
                  [f.name for f in fields(ExperimentConfig) if f.name != "out_dir"])
    _, valence_val = prepare_splits(val_cfg, "valence")
    _, arousal_val = prepare_splits(aro_cfg, "arousal")
    rows = missing_modality_sweep(val_model, aro_model, valence_val, arousal_val,
                                  fractions)
    path = _out_root(args.out_dir or Path(args.checkpoint_valence).parent) / args.out
    save_sweep(rows, path)
    print(f"wrote {len(rows)} fractions to {path}")
    for r in rows:
        print(f"  missing {r.fraction:>4g}: valence {r.valence:.3f} "
              f"arousal {r.arousal:.3f}")
    return 0


def _cmd_dump_attn(args: argparse.Namespace) -> int:
    model, cfg, dim = _restore(args.checkpoint)
    train, val = prepare_splits(cfg, dim)  # rejects a missing or unknown output_dim
    seqs = val if args.split == "val" else train
    if not 0 <= args.index < len(seqs):
        raise ValueError(f"sequence index {args.index} out of range "
                         f"(split has {len(seqs)})")
    dump = dump_attention(model, seqs[args.index])
    path = _out_root(args.out_dir or Path(args.checkpoint).parent) / args.out
    save_attention_dump(dump, path)
    print(f"wrote attention dump for {args.split}[{args.index}] to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iaca",
        description="Gated cross-attention fusion experiments on synthetic "
                    "bimodal sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model per output dimension")
    _add_config_flags(p)
    p.add_argument("--dims", nargs="+", choices=OUTPUT_DIMS,
                   default=list(OUTPUT_DIMS))
    p.add_argument("--name", help="checkpoint stem (default from config)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("ablation", help="variant x gating matrix to CSV")
    _add_config_flags(p)
    p.add_argument("--variants", help="comma-separated subset of "
                   + ",".join(VARIANTS))
    p.add_argument("--out", default="ablation.csv")
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser("sweep", help="missing-audio robustness of a trained pair")
    p.add_argument("--checkpoint-valence", required=True)
    p.add_argument("--checkpoint-arousal", required=True)
    p.add_argument("--fractions", help="comma-separated, default "
                   + ",".join(str(f) for f in DEFAULT_SWEEP_FRACTIONS))
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("dump-attn", help="attention/gate dump for one sequence")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", default="attention.json")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_dump_attn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CheckpointError, TrainingDivergence, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
