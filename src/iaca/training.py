"""Mini-batch training of fusion models on the concordance loss.

Each step binds fresh parameter leaves, builds one graph for the batch
over its sequences' arrays (attention per sequence, the per-clip tail
once over all its clips) and scores it with one batch-level CCC.
Validation CCC, scored on the parameter arrays with no graph, is tracked
per epoch and the best-scoring parameters are restored when fitting ends.
An epoch's train CCC is scored over the predictions each batch made
before its optimizer step, not by a second pass of the end-of-epoch
model. One finiteness check covers all of a step's gradients, and Adam's
state is one flat array per moment over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor
from .gating import FusionModel, check_types
from .metrics import ccc, ccc_loss


class TrainingDivergence(RuntimeError):
    """Loss or a gradient became non-finite; training state is not trustworthy."""


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 8
    lr: float = 0.02
    optimizer: str = "adaptive-moment"
    seed: int = 0
    patience: int = 10  # epochs without val improvement; 0 disables

    def validate(self) -> None:
        check_types(self)
        if not self.epochs >= 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.batch_size >= 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # lr = 0 is allowed so a no-op fit stays expressible
        if not self.lr >= 0:
            raise ValueError(f"lr must be non-negative and finite, got {self.lr}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"optimizer must be one of {tuple(OPTIMIZERS)}, got {self.optimizer!r}")
        if not self.patience >= 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")


class Sgd:  # stays while perfbench wraps Sgd.step (ROADMAP items 2 and 6)
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: dict, grads: dict) -> None:
        for name, g in grads.items():
            params[name] -= self.lr * g


class Adam:
    """Adaptive moment estimation with bias correction.

    The moments are one flat array each, over a step's gradients joined in
    ``grads`` order; each parameter then subtracts its slice of the update.
    The first step fixes that layout (names and shapes), and a step with
    another raises ValueError, so a moment never meets another parameter.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.layout: tuple = ()  # (name, shape) per parameter, in grads order
        self.m = self.v = None

    def step(self, params: dict, grads: dict) -> None:
        layout = tuple([(name, g.shape) for name, g in grads.items()])
        if self.m is None:
            size = sum(g.size for g in grads.values())
            self.layout, self.m, self.v = layout, np.zeros(size), np.zeros(size)
        elif layout != self.layout:
            raise ValueError(f"Adam moments were laid out for {self.layout}, "
                             f"this step's gradients are {layout}")
        self.t += 1
        flat = np.concatenate([g.reshape(-1) for g in grads.values()])
        m, v = self.m, self.v
        m += (1.0 - self.beta1) * (flat - m)
        v += (1.0 - self.beta2) * (flat * flat - v)
        m_hat = m / (1.0 - self.beta1 ** self.t)
        v_hat = v / (1.0 - self.beta2 ** self.t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        start = 0
        for name, g in grads.items():
            params[name] -= update[start:start + g.size].reshape(g.shape)
            start += g.size


# optimizer name -> class built from the learning rate
OPTIMIZERS = {"sgd": Sgd, "adaptive-moment": Adam}


@dataclass
class EpochRecord:
    epoch: int
    train_ccc: float  # CCC of the epoch's pre-step training predictions
    val_ccc: float
    loss: float  # mean over batches of 1 - batch CCC


@dataclass
class FitResult:
    history: list = field(default_factory=list)
    best_val_ccc: float = float("-inf")
    best_epoch: int = -1
    stopped_early: bool = False


def evaluate(model: FusionModel, seqs: Sequence) -> float:
    """CCC of the model over every clip of a split, concatenated."""
    if not seqs:
        raise ValueError("empty evaluation set")
    preds = [model.predict_values(s.xa, s.xv) for s in seqs]
    golds = [np.asarray(s.target).reshape(1, -1) for s in seqs]
    return ccc(np.hstack(preds), np.hstack(golds))


def _batch_loss(model: FusionModel, batch: Sequence
                ) -> tuple[Tensor, dict, np.ndarray, np.ndarray]:
    """Loss graph of one batch, its parameter leaves, and the batch's
    concatenated prediction values and gold track."""
    leaves = model.bind()
    pred = model.run([(s.xa, s.xv) for s in batch], leaves).prediction
    gold = np.hstack([np.asarray(s.target).reshape(1, -1) for s in batch])
    return ccc_loss(pred, gold), leaves, pred.value, gold


def fit(model: FusionModel, train: Sequence, val: Sequence,
        cfg: Optional[TrainConfig] = None) -> FitResult:
    """Train in place; leaves the best-validation parameters in the model."""
    cfg = cfg if cfg is not None else TrainConfig()
    cfg.validate()
    if not train:
        raise ValueError("empty training set")
    if not val:
        raise ValueError("empty validation set")
    for split, seqs in (("training", train), ("validation", val)):
        for i, s in enumerate(seqs):  # one NaN would turn every val_ccc NaN
            if not all(np.isfinite(x).all() for x in (s.xa, s.xv, s.target)):
                raise ValueError(f"{split} sequence {i} holds a non-finite feature or target")
            n = np.size(s.target)
            if np.shape(s.xa)[-1:] != (n,):
                raise ValueError(f"{split} sequence {i} has {n} target entries "
                                 f"for features of shape {np.shape(s.xa)}")
            if not np.shape(s.xa) == np.shape(s.xv) == (model.d, n):
                raise ValueError(f"{split} sequence {i} has features of shapes {np.shape(s.xa)} "
                                 f"(audio) and {np.shape(s.xv)} (visual); the model takes "
                                 f"{model.d} x {n}")
    optimizer = OPTIMIZERS[cfg.optimizer](cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    result = FitResult()
    best_params = {k: v.copy() for k, v in model.params.items()}

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train))
        losses, preds, golds = [], [], []
        for start in range(0, len(train), cfg.batch_size):
            batch = [train[i] for i in order[start:start + cfg.batch_size]]
            # the last step's graph lives until here: glibc would trim the heap every step
            loss, leaves, pred, gold = _batch_loss(model, batch)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDivergence(
                    f"non-finite loss {value} at epoch {epoch}, "
                    f"batch starting at {start}")
            loss.backward()
            # a parameter the loss does not reach gets no grad buffer
            grads = {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
                     for name, leaf in leaves.items()}
            if not np.isfinite(np.concatenate([g.reshape(-1) for g in grads.values()])).all():
                name = next(name for name, g in grads.items() if not np.isfinite(g).all())
                raise TrainingDivergence(
                    f"non-finite gradient for {name} at epoch {epoch}, "
                    f"batch starting at {start}")
            optimizer.step(model.params, grads)
            losses.append(value)
            preds.append(pred)
            golds.append(gold)

        val_ccc = evaluate(model, val)
        if not np.isfinite(val_ccc):  # NaN never beats the best: fit would keep the init
            raise TrainingDivergence(f"non-finite validation CCC {val_ccc} at epoch {epoch}")
        record = EpochRecord(epoch=epoch, train_ccc=ccc(np.hstack(preds), np.hstack(golds)),
                             val_ccc=val_ccc, loss=float(np.mean(losses)))
        result.history.append(record)
        if record.val_ccc > result.best_val_ccc:
            result.best_val_ccc = record.val_ccc
            result.best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}
        elif cfg.patience and epoch - result.best_epoch >= cfg.patience:
            result.stopped_early = True
            break

    model.params.update(best_params)
    return result
