"""The three benchmark workloads and the checks on their outputs.

Each workload drives iaca through its public API only. ``setup`` builds
the inputs from the seed, ``unit`` is the timed piece of work, and
``check_unit`` verifies one unit's outputs outside the timed region and
returns a small summary. Repeated units of one run must give equal
summaries, so parameter hashes and counts are checked to repeat exactly.

Package functions are looked up through their modules at call time
(``ex.missing_modality_sweep``, ``iaca.training.fit``) so that the
benchmark's probes and spans see every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, replace
from types import SimpleNamespace

import numpy as np

import iaca
import iaca.cli
import iaca.experiments as ex

VARIANTS = ("CA", "TCA", "JCA", "RJCA")
FIT_LONG_CELLS = (("RJCA", True), ("CA", False))  # (variant, gated)
SIMPLEX_TOL = 1e-9


class Checks:
    """Output checks of one run; each check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def _in_unit_range(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(np.isfinite(arr).all() and (np.abs(arr) <= 1.0).all())


def _split_digest(seqs) -> str:
    h = hashlib.sha256()
    for s in seqs:
        for arr in (s.xa, s.xv, s.target):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def _regime(kind: str, sigma: float, corrupt: float = 0.0):
    return iaca.Regime(kind, noise_sigma=sigma, corrupt_fraction=corrupt)


@dataclass
class AblationC5:
    """One seed of the pinned criterion-5 protocol, through ``iaca ablation``.

    16 fits with early stopping on tiny graphs: per-node Python cost and
    the per-epoch evaluate dominate.
    """

    d: int = 32
    clips: int = 64
    n_train: int = 12
    n_val: int = 8
    epochs: int = 40
    variants: tuple = VARIANTS
    setups: int = 9

    def config(self, seed: int, workdir) -> dict:
        return {
            "regime": asdict(_regime("weak_conflicting", 2.0)),
            "d": self.d, "n_clips": self.clips,
            "n_train": self.n_train, "n_val": self.n_val, "seed": seed,
            "train": asdict(iaca.TrainConfig(epochs=self.epochs, batch_size=8, lr=0.02,
                                             optimizer="adaptive-moment", patience=10)),
            "flags": asdict(iaca.ModelFlags(temperature=0.5)),
            "out_dir": str(workdir),
        }

    def setup(self, seed: int, workdir):
        """Write the config and generate the protocol's splits once."""
        data = self.config(seed, workdir)
        path = workdir / "ablation.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True))
        cfg = ex.ExperimentConfig.from_dict(data)
        cfg.validate()
        digest = "".join(_split_digest(sum(ex.prepare_splits(cfg, dim), []))
                         for dim in ex.OUTPUT_DIMS)
        return SimpleNamespace(config=path, csv=workdir / "ablation.csv",
                               digest=digest, checkpoint_bytes=0)

    def unit(self, state):
        quiet = io.StringIO()
        with redirect_stdout(quiet), redirect_stderr(quiet):
            rc = iaca.cli.main(["ablation", "--config", str(state.config),
                                "--variants", ",".join(self.variants),
                                "--out", state.csv.name])
        return rc, state.csv.read_text()

    def check_unit(self, state, output, fits, checks: Checks) -> dict:
        rc, text = output
        rows = list(csv.DictReader(io.StringIO(text)))
        checks.check("ablation exits 0", rc == 0)
        expected = [(v, kind) for v in self.variants for kind in ("no", "yes", "delta_pct")]
        checks.check("ablation rows in variant order",
                     [(r["variant"], r["iaca"]) for r in rows] == expected)
        scores = [float(r[col]) for r in rows if r["iaca"] != "delta_pct"
                  for col in ("valence_ccc", "arousal_ccc")]
        checks.check("ablation CCCs finite and in [-1, 1]", _in_unit_range(scores))
        checks.check("ablation trains every cell", len(fits) == 4 * len(self.variants))
        return {"csv": text, "fits": [f.sha256 for f in fits],
                "cells_failed": sum(math.isnan(v) for v in scores)}


@dataclass
class SweepC6:
    """Missing-audio sweep and attention dumps for the criterion-6 CA pair.

    The gated and ungated pairs are trained in setup and round-tripped
    through a checkpoint; the timed unit only runs forward passes.
    """

    d: int = 32
    clips: int = 64
    n_train: int = 12
    n_val: int = 8
    held_out: int = 64
    epochs: int = 40
    setups: int = 5

    def config(self, seed: int, gated: bool):
        # out_dir keeps its default: it goes into the checkpoint's metadata,
        # and a per-run directory name would change checkpoint.bytes.
        return ex.ExperimentConfig(
            variant="CA", iaca=gated,
            regime=_regime("strong_complementary", 0.5, corrupt=0.2),
            d=self.d, n_clips=self.clips, n_train=self.n_train, n_val=self.n_val,
            seed=seed,
            train=iaca.TrainConfig(epochs=self.epochs, batch_size=8, lr=0.02, patience=10),
            flags=iaca.ModelFlags(temperature=0.5))

    def setup(self, seed: int, workdir):
        pairs, roundtrips, digest, size = {}, [], hashlib.sha256(), 0
        for gated in (False, True):
            cfg = self.config(seed, gated)
            pairs[gated] = []
            for dim in ex.OUTPUT_DIMS:
                model, _, _ = ex.train_one(cfg, dim)
                path = workdir / f"ca_{'iaca' if gated else 'base'}_{dim}.ckpt"
                iaca.checkpoint.save_checkpoint(model, path, extra_meta={
                    "experiment": asdict(cfg), "output_dim": dim})
                loaded = iaca.checkpoint.load_checkpoint(path)
                roundtrips.append(_same_model(model, loaded.model)
                                  and loaded.meta["output_dim"] == dim)
                blob = path.read_bytes()
                digest.update(blob)
                size += len(blob)
                pairs[gated].append(loaded.model)
        # A larger n_val on a copy of the config keeps the training
        # observation model; the first n_train sequences are unchanged.
        held = {dim: ex.prepare_splits(replace(cfg, n_val=self.held_out), dim)[1]
                for dim in ex.OUTPUT_DIMS}
        for dim in ex.OUTPUT_DIMS:
            digest.update(_split_digest(held[dim]).encode())
        return SimpleNamespace(pairs=pairs, held=held, roundtrips=roundtrips,
                               digest=digest.hexdigest(), checkpoint_bytes=size)

    def unit(self, state):
        rows = {gated: ex.missing_modality_sweep(*state.pairs[gated], state.held["valence"],
                                                 state.held["arousal"],
                                                 ex.DEFAULT_SWEEP_FRACTIONS)
                for gated in (False, True)}
        dumps = [ex.dump_attention(model, s)
                 for model, dim in zip(state.pairs[True], ex.OUTPUT_DIMS)
                 for s in state.held[dim]]
        return rows, dumps

    def check_unit(self, state, output, fits, checks: Checks) -> dict:
        rows, dumps = output
        checks.check("checkpoint round trips are bitwise", all(state.roundtrips))
        for gated, table in rows.items():
            fractions = [r.fraction for r in table]
            checks.check("sweep fractions ascending",
                         fractions == sorted(ex.DEFAULT_SWEEP_FRACTIONS))
            checks.check("sweep CCCs finite and in [-1, 1]",
                         _in_unit_range([(r.valence, r.arousal) for r in table]))
        for model, dim in zip(state.pairs[False], ex.OUTPUT_DIMS):
            preds = [model.predict_values(s.xa, s.xv) for s in state.held[dim]]
            checks.check("ungated predictions finite and in [-1, 1]", _in_unit_range(preds))
        on_simplex = True
        for dump in dumps:
            for key in ("stage1_audio", "stage1_visual", "stage2"):
                g = np.asarray(dump[key])
                on_simplex &= bool((g >= 0).all()
                                   and (np.abs(g.sum(axis=1) - 1.0) <= SIMPLEX_TOL).all())
        checks.check("dump gate rows on the simplex", on_simplex)
        checks.check("gated predictions finite and in [-1, 1]",
                     _in_unit_range([d["prediction"] for d in dumps]))

        def drop(table):
            return ((table[0].valence + table[0].arousal)
                    - (table[-1].valence + table[-1].arousal)) / 2

        text = json.dumps(dumps, sort_keys=True)
        return {"rows": {g: [asdict(r) for r in t] for g, t in rows.items()},
                "dumps": hashlib.sha256(text.encode()).hexdigest(),
                "robust_gap": drop(rows[False]) - drop(rows[True])}


@dataclass
class FitLong:
    """Two fixed-length fits on long sequences: gated RJCA, ungated CA.

    Patience 0 and a fixed epoch count fix the work, and at L=256 the
    L x L matmul and softmax kernels dominate instead of Python overhead.
    """

    d: int = 32
    clips: int = 256
    n_train: int = 12
    n_val: int = 8
    epochs: int = 10
    setups: int = 9

    def setup(self, seed: int, workdir):
        cfg = ex.ExperimentConfig(
            variant="RJCA", iaca=True, regime=_regime("weak_conflicting", 2.0),
            d=self.d, n_clips=self.clips, n_train=self.n_train, n_val=self.n_val,
            seed=seed,
            train=iaca.TrainConfig(epochs=self.epochs, batch_size=8, lr=0.02, patience=0),
            flags=iaca.ModelFlags(temperature=0.5))
        cfg.validate()
        train, val = ex.prepare_splits(cfg, "valence")
        return SimpleNamespace(cfg=cfg, train=train, val=val,
                               digest=_split_digest(train + val), checkpoint_bytes=0)

    def unit(self, state):
        cfg = state.cfg
        for variant, gated in FIT_LONG_CELLS:
            model = iaca.FusionModel.create(
                cfg.d, variant, gated, flags=cfg.flags,
                seed=iaca.derive_seed(cfg.seed, 2000 + int(gated)))
            iaca.training.fit(model, state.train, state.val, cfg.train)

    def check_unit(self, state, output, fits, checks: Checks) -> dict:
        checks.check("fit_long runs both fits", len(fits) == len(FIT_LONG_CELLS))
        for f in fits:
            checks.check("every loss and CCC finite", f.finite)
            checks.check("fixed epoch count", f.epochs == self.epochs)
        return {"fits": [f.sha256 for f in fits]}


def _same_model(a, b) -> bool:
    if (a.variant, a.iaca, a.d, a.flags) != (b.variant, b.iaca, b.d, b.flags):
        return False
    if list(a.params) != list(b.params):
        return False
    return all(a.params[k].dtype == b.params[k].dtype
               and a.params[k].shape == b.params[k].shape
               and a.params[k].tobytes() == b.params[k].tobytes() for k in a.params)


WORKLOADS = {"ablation_c5": AblationC5, "sweep_c6": SweepC6, "fit_long": FitLong}
