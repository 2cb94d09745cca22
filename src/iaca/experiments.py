"""Reproducible experiment protocols (ablation, sweep, attention dumps) and
the one CSV writer of the results tables: training history, ablation, sweep.

"Valence" and "arousal" are two independently seeded instances of the
same synthetic protocol (the generator produces one track per call), so
every (variant, gating) cell trains one model per output dimension on
shared per-dimension splits. The data and model init flow from the
config seed through fixed stream labels, making whole runs replayable;
fit's batch order flows from TrainConfig.seed (default 0) instead, so
runs that differ only in the config seed share one batch order.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Sequence

import numpy as np

from .attention import VARIANTS
from .gating import FusionModel, ModelFlags, check_types, from_json_object, param_schema
from .metrics import ccc  # noqa: F401  (unused here; perfbench wraps experiments.ccc)
from .synth import Regime, SyntheticSequence, corrupt_missing, derive_seed, generate
from .training import EpochRecord, TrainConfig, TrainingDivergence, evaluate, fit

OUTPUT_DIMS = ("valence", "arousal")
DEFAULT_SWEEP_FRACTIONS = (0.0, 0.1, 0.2, 0.4, 0.6, 0.8)

# fixed labels for seed-stream derivation
_DATA_STREAM = 1000
_MODEL_STREAM = 2000
_AUGMENT_STREAM = 77
_SWEEP_STREAM = 555


def relative_improvement(base: float, new: float) -> float:
    """(new - base) / |base| in percent, the ablation table's delta; NaN for a zero base."""
    return (new - base) / abs(base) * 100.0 if base != 0 else float("nan")


@dataclass
class ExperimentConfig:
    variant: str = "CA"
    iaca: bool = True
    regime: Regime = field(default_factory=Regime)
    d: int = 32
    n_clips: int = 64
    n_train: int = 24
    n_val: int = 8
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    flags: ModelFlags = field(default_factory=ModelFlags)
    out_dir: str = ""  # unset; the CLI then writes under $IACA_RESULTS_DIR or "."

    def validate(self) -> None:
        check_types(self)
        if not (self.d >= 2 and self.n_clips >= 2):
            raise ValueError("d and n_clips must both be >= 2")
        if not (self.n_train >= 1 and self.n_val >= 1):
            raise ValueError("both splits need at least one sequence")
        self.regime.validate()
        self.train.validate()
        param_schema(self.d, self.variant, self.iaca, self.flags)

    @classmethod
    def from_dict(cls, data: dict, complete: bool = False) -> "ExperimentConfig":
        return from_json_object(cls, data, complete=complete)


def _missing_audio(seqs: Sequence[SyntheticSequence], fraction: float,
                   stream: int) -> List[SyntheticSequence]:
    """Copies with a fraction of each sequence's audio zeroed, placed by a
    seed derived from the sequence's own seed and the stream label."""
    return [replace(s, xa=corrupt_missing(s.xa, fraction,
                                          seed=derive_seed(s.seed, stream)))
            for s in seqs]


def prepare_splits(cfg: ExperimentConfig, output_dim: str):
    """Train/val splits for one output dimension, sharing one embedding.

    regime.corrupt_fraction > 0 zeroes that fraction of audio clips in
    each training sequence (a contiguous block, seeded per sequence) so
    models train under partially missing audio; validation stays clean.
    """
    if output_dim not in OUTPUT_DIMS:
        raise ValueError(f"output_dim must be one of {OUTPUT_DIMS}, got {output_dim!r}")
    ds_seed = derive_seed(cfg.seed, _DATA_STREAM + OUTPUT_DIMS.index(output_dim))
    seqs = generate(cfg.regime, cfg.d, cfg.n_clips, cfg.n_train + cfg.n_val, ds_seed)
    train, val = seqs[:cfg.n_train], seqs[cfg.n_train:]
    if cfg.regime.corrupt_fraction > 0:
        train = _missing_audio(train, cfg.regime.corrupt_fraction, _AUGMENT_STREAM)
    return train, val


def train_one(cfg: ExperimentConfig, output_dim: str):
    """Train a model for one output dimension; returns (model, result, val)."""
    cfg.validate()
    train, val = prepare_splits(cfg, output_dim)
    label = OUTPUT_DIMS.index(output_dim)
    model_seed = derive_seed(cfg.seed, _MODEL_STREAM + 2 * label + int(cfg.iaca))
    model = FusionModel.create(cfg.d, cfg.variant, cfg.iaca, flags=cfg.flags,
                               seed=model_seed)
    result = fit(model, train, val, cfg.train)
    return model, result, val


def _write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV writer of the results tables: the csv module's default
    dialect (CRLF line ends), cells as the caller formatted them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_history(history: Iterable[EpochRecord], path) -> None:
    _write_table(path, ("epoch", "train_ccc", "val_ccc", "loss"),
                 ((r.epoch, f"{r.train_ccc:.6f}", f"{r.val_ccc:.6f}", f"{r.loss:.6f}")
                  for r in history))


# ----------------------------------------------------------------- ablation

@dataclass
class AblationRow:
    variant: str
    iaca: str  # "no" | "yes" | "delta_pct"
    valence: float
    arousal: float

    def formatted(self) -> tuple[str, str]:
        """(valence, arousal) as reported: 1 decimal for a delta in percent,
        3 for a CCC."""
        digits = 1 if self.iaca == "delta_pct" else 3
        return f"{self.valence:.{digits}f}", f"{self.arousal:.{digits}f}"


def run_ablation(cfg: ExperimentConfig,
                 variants: Sequence[str] = VARIANTS) -> List[AblationRow]:
    """Train every (variant, gating) cell twice (valence, arousal).

    A diverging cell is recorded as NaN and the matrix keeps going. Rows
    come in threes per variant: without gating, with gating, then the
    relative improvement in percent.
    """
    rows = []
    for variant in variants:
        scored = {}
        for iaca in (False, True):
            cell = replace(cfg, variant=variant, iaca=iaca)
            values = {}
            for dim in OUTPUT_DIMS:
                try:
                    values[dim] = train_one(cell, dim)[1].best_val_ccc
                except TrainingDivergence as exc:
                    print(f"cell ({variant}, iaca={iaca}, {dim}) diverged: {exc}",
                          file=sys.stderr)
                    values[dim] = float("nan")
            scored[iaca] = values
            rows.append(AblationRow(variant, "yes" if iaca else "no",
                                    values["valence"], values["arousal"]))
        rows.append(AblationRow(variant, "delta_pct", *(
            relative_improvement(scored[False][dim], scored[True][dim])
            for dim in OUTPUT_DIMS)))
    return rows


def save_ablation(rows: Sequence[AblationRow], path) -> None:
    _write_table(path, ("variant", "iaca", "valence_ccc", "arousal_ccc"),
                 ((r.variant, r.iaca, *r.formatted()) for r in rows))


# -------------------------------------------------------------------- sweep

@dataclass
class SweepRow:
    fraction: float
    valence: float
    arousal: float


def missing_modality_sweep(valence_model: FusionModel, arousal_model: FusionModel,
                           valence_val: Sequence[SyntheticSequence],
                           arousal_val: Sequence[SyntheticSequence],
                           fractions: Sequence[float] = DEFAULT_SWEEP_FRACTIONS,
                           ) -> List[SweepRow]:
    """Test-time robustness curve; no retraining, fractions ascending."""
    for dim, seqs in zip(OUTPUT_DIMS, (valence_val, arousal_val)):
        if not seqs:
            raise ValueError(f"empty {dim} validation set")

    def score(model, seqs, fraction):
        return evaluate(model, _missing_audio(seqs, fraction, _SWEEP_STREAM))

    return [SweepRow(fraction, score(valence_model, valence_val, fraction),
                     score(arousal_model, arousal_val, fraction))
            for fraction in sorted(fractions)]


def save_sweep(rows: Sequence[SweepRow], path) -> None:
    _write_table(path, ("fraction", "valence_ccc", "arousal_ccc"),
                 ((f"{r.fraction:g}", f"{r.valence:.3f}", f"{r.arousal:.3f}") for r in rows))


# -------------------------------------------------------------- attn dumps

def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def dump_attention(model: FusionModel, seq: SyntheticSequence) -> dict:
    """Per-clip attention magnitudes and gate scores, plot-ready.

    A clip's attention magnitude is its pull as a source, the row sum of
    the column-stochastic map, min-max normalized over the sequence; the
    pass's K x L gate scores are written as L x K, one row per clip on the
    simplex.
    """
    pred, (pair,), gates = model.forward(seq.xa, seq.xv)
    dump = {
        "variant": model.variant,
        "iaca": model.iaca,
        "n_clips": int(seq.xa.shape[1]),
        "audio_attention": _minmax(pair.audio_weights.sum(axis=1)).tolist(),
        "visual_attention": _minmax(pair.visual_weights.sum(axis=1)).tolist(),
        "prediction": pred.ravel().tolist(),
        "target": np.asarray(seq.target).ravel().tolist(),
    }
    for key, g in zip(("stage1_audio", "stage1_visual", "stage2"), gates):
        dump[key] = g.T.tolist()
    return dump


def save_attention_dump(dump: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(dump, fh, indent=2, sort_keys=True, default=np.generic.item)
