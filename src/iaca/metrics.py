"""Concordance correlation and the training loss built on it.

CCC measures agreement, not just linear association: it is 1 only when
predictions match the gold track in location and scale, so a rescaled or
shifted copy scores strictly below a faithful one. Moments are population
(1/N) throughout.
"""

from __future__ import annotations

import warnings

import numpy as np

from .autodiff import Tensor, add_col, div, hadamard, mean_all, scale, sub


def _as_track(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if arr.size < 2:
        raise ValueError(f"{name} needs at least 2 entries, got {arr.size}")
    return arr


def ccc(pred, gold) -> float:
    """2*cov / (var_p + var_g + mean-gap^2) over flattened inputs.

    A zero denominator (both tracks constant and equal-mean) carries no
    agreement information; that degenerate case warns and scores 0.
    """
    p = _as_track(pred, "pred")
    g = _as_track(gold, "gold")
    if p.size != g.size:
        raise ValueError(f"length mismatch: {p.size} vs {g.size}")
    cov = np.mean((p - p.mean()) * (g - g.mean()))
    denom = p.var() + g.var() + (p.mean() - g.mean()) ** 2
    if denom == 0.0:
        warnings.warn("ccc undefined for two identical constant tracks; returning 0.0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return float(2.0 * cov / denom)


def ccc_loss(pred: Tensor, gold) -> Tensor:
    """1 - CCC as a differentiable scalar node; pred is 1 x N on a graph."""
    if pred.shape[0] != 1:
        raise ValueError(f"pred must be a 1-row track, got {pred.shape}")
    n = pred.shape[1]
    if n < 2:
        raise ValueError(f"pred needs at least 2 entries, got {n}")
    gold_t = Tensor(np.asarray(gold, dtype=np.float64).reshape(1, n), requires_grad=False)

    mean_p = mean_all(pred)
    mean_g = mean_all(gold_t)
    cp = add_col(pred, mean_p, sign=-1.0)
    cg = add_col(gold_t, mean_g, sign=-1.0)
    cov = mean_all(hadamard(cp, cg))
    var_p = mean_all(hadamard(cp, cp))
    var_g = mean_all(hadamard(cg, cg))
    gap = sub(mean_p, mean_g)
    denom = var_p + var_g + hadamard(gap, gap)
    if denom.value[0, 0] == 0.0:
        warnings.warn("ccc_loss denominator is zero; treating agreement as 0",
                      RuntimeWarning, stacklevel=2)
        return Tensor([[1.0]])
    return Tensor([[1.0]], requires_grad=False) - div(scale(cov, 2.0), denom)
