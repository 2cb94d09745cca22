"""Concordance correlation and the training loss built on it.

CCC measures agreement, not just linear association: it is 1 only when
predictions match the gold track in location and scale, so a rescaled or
shifted copy scores strictly below a faithful one. Moments are population
(1/N) throughout. The formula is written once: ``ccc_loss`` is a Tensor
over one graph node, its value ``1 - ccc`` bit for bit and its vjp CCC's
closed-form gradient; the gold track never enters the graph. Each mean
and each deviation is computed once per call, by the reductions that
``np.mean`` and ``np.var`` run, so every score keeps their bits.
"""

from __future__ import annotations

import warnings

import numpy as np

from .autodiff import Tensor


def _as_track(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if arr.size < 2:
        raise ValueError(f"{name} needs at least 2 entries, got {arr.size}")
    return arr


def _ccc_terms(pred, gold):
    """(rho, p, dg, mean_g, denom): CCC of two tracks, the flat prediction,
    the gold deviations and mean, and CCC's denominator.

    Covariance and variances are ``np.add.reduce`` of deviation products
    over N, as ``np.mean`` and ``np.var`` compute them. A zero denominator
    (both tracks constant and equal-mean) carries no agreement information;
    that degenerate case warns and scores 0.
    """
    p = _as_track(pred, "pred")
    g = _as_track(gold, "gold")
    n = p.size
    if n != g.size:
        raise ValueError(f"length mismatch: {n} vs {g.size}")
    mean_p = np.add.reduce(p) / n
    mean_g = np.add.reduce(g) / n
    dp = p - mean_p
    dg = g - mean_g
    cov = np.add.reduce(dp * dg) / n
    denom = np.add.reduce(dp * dp) / n + np.add.reduce(dg * dg) / n + (mean_p - mean_g) ** 2
    if denom == 0.0:
        warnings.warn("ccc undefined for two identical constant tracks; returning 0.0",
                      RuntimeWarning, stacklevel=3)
        return 0.0, p, dg, mean_g, denom
    return float(2.0 * cov / denom), p, dg, mean_g, denom


def ccc(pred, gold) -> float:
    """2*cov / (var_p + var_g + mean-gap^2) over flattened inputs."""
    return _ccc_terms(pred, gold)[0]


def ccc_loss(pred: Tensor, gold) -> Tensor:
    """1 - ccc(pred.value, gold) as one node; pred is a 1 x N track on a graph.

    Its vjp is d(1 - rho)/dp = -2 / (N D) * ((g - mean g) - rho * (p - mean g)),
    D being ccc's denominator; the gold mean and deviations are ccc's own.
    Where ccc scores the degenerate 0 the loss is 1 on a node with no path
    to a leaf, so backward passes nothing on.
    """
    if pred.shape[0] != 1:
        raise ValueError(f"pred must be a 1-row track, got {pred.shape}")
    rho, p, dg, mean_g, denom = _ccc_terms(pred.value, gold)
    if denom == 0.0:
        return Tensor([[1.0]], op="ccc_loss")
    dp = (-2.0 / (p.size * denom)) * (dg - rho * (p - mean_g))
    return Tensor([[1.0 - rho]], op="ccc_loss", parents=(pred,),
                  vjps=(lambda grad: grad * dp,))
