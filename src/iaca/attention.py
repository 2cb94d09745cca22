"""Attention blocks over per-clip bimodal feature matrices.

All inputs are d x L matrices: one column of deep features per clip of a
sequence. CA, JCA and RJCA share one query-side step: the L x L
correlation of a modality with a context (the other modality or a joint
feature) is normalized into a stochastic weight map that re-weights the
modality's own clips, squashed through tanh around a residual;
self_attention, which no model runs, takes the modality itself as the
context. JCA's joint feature comes from the joint layer, which the gating
layer shares; RJCA runs one JCA block RJCA_ITERATIONS times. TCA is a
scaled query/key/value block. Every variant returns an AttendedPair, so
the gating layer downstream treats them interchangeably. Every map is
column-stochastic: column i is query clip i's distribution over source
clips. A block's weights come as a dict read by gating.param_schema's
names within the block: p["wq"] for "tca_a.wq", p["joint_w"] for
"jca.joint_w".

Every map is the softmax of an L x L correlation (TCA's: scaled key-query
products), written into the correlation's own buffer: a graph node holds
no value and the product's vjps read only its inputs, so nothing reads the
correlation after its map is built, and each map costs one L x L buffer.
A training graph keeps the maps, which the attended products' vjps read,
until its backward drops them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    concat_rows,
    matmul,
    relu,
    scale,
    softmax,
    tanh,
    transpose,
)

VARIANTS = ("CA", "TCA", "JCA", "RJCA")
RJCA_ITERATIONS = 2


@dataclass
class AttendedPair:
    """Attended features for both modalities plus the column-stochastic
    weight maps that produced them (kept for interpretability dumps):
    Tensors on a graph, arrays when no input is a Tensor."""

    audio: Tensor  # d x L
    visual: Tensor  # d x L
    audio_weights: Tensor  # L x L, applied to the audio features
    visual_weights: Tensor  # L x L, applied to the visual features


def _check_pair(xa, xv) -> None:
    if np.shape(xa) != np.shape(xv):
        raise ShapeError(f"modality features must share d and L, "
                         f"got {np.shape(xa)} vs {np.shape(xv)}")


def cross_correlation(xa, xv, w) -> Tensor:
    """L x L correlation of the two modalities through learned weights:
    xa^T . w . xv."""
    _check_pair(xa, xv)
    return matmul(matmul(transpose(xa), w), xv)


def joint_representation(xa, xv, w, b) -> Tensor:
    """Concatenate the two modalities and project back to d rows: w . [xa; xv] + b."""
    _check_pair(xa, xv)
    return add(matmul(w, concat_rows(xa, xv)), b)


def _normalize(z: Tensor) -> Tensor:
    """Column softmax of the L x L product z, written over z's value."""
    return softmax(z, in_place=True)


def _attend(x, weights) -> Tensor:
    """Query side of the cross block: x re-weights its own clips with the
    L x L map, around a residual: tanh(x + x . weights)."""
    return tanh(add(x, matmul(x, weights)))


def cross_attention(xa, xv, w) -> AttendedPair:
    """Bidirectional cross-attention with residual tanh squashing.

    The audio weight map is the column-wise softmax of the correlation
    matrix, the visual map the column-wise softmax of its transpose. That
    transpose's recipe reads the correlation, which is then normalized in
    place: safe, as the transpose feeds only a softmax, which keeps no recipe.
    """
    z = cross_correlation(xa, xv, w)
    zt = transpose(z)  # taken before z is normalized in place
    audio_weights, visual_weights = _normalize(z), _normalize(zt)
    return AttendedPair(_attend(xa, audio_weights), _attend(xv, visual_weights),
                        audio_weights, visual_weights)


def self_attention(x, w) -> Tensor:
    """Intra-modal analogue of the cross block: the modality attends to its
    own clips, same residual and tanh."""
    return _attend(x, _normalize(cross_correlation(x, x, w)))


def tca_block(xq, xkv, p: dict) -> tuple[Tensor, Tensor]:
    """Single-head transformer-style block for one direction.

    Queries come from xq, keys and values from xkv; key-query dot products
    are scaled by 1/sqrt(d) and normalized down each query's column. A
    per-clip feed-forward follows, with residuals around both stages and a
    final tanh so outputs stay in the same bounded range as the other
    blocks. Returns (attended features, L x L column-stochastic weights).
    """
    _check_pair(xq, xkv)
    d = np.shape(xq)[0]
    q = matmul(p["wq"], xq)
    k = matmul(p["wk"], xkv)
    v = matmul(p["wv"], xkv)
    weights = _normalize(matmul(scale(transpose(k), 1.0 / d**0.5), q))
    attended = matmul(v, weights)
    h = add(xq, attended)
    hidden = relu(add(matmul(p["ff1_w"], h), p["ff1_b"]))
    ff = add(matmul(p["ff2_w"], hidden), p["ff2_b"])
    return tanh(add(h, ff)), weights


def tca_attention(xa, xv, p_audio: dict, p_visual: dict) -> AttendedPair:
    """Both transformer-style directions packaged like the other variants."""
    att_a, w_a = tca_block(xa, xv, p_audio)
    att_v, w_v = tca_block(xv, xa, p_visual)
    return AttendedPair(att_a, att_v, w_a, w_v)


def joint_cross_attention(xa, xv, p: dict) -> AttendedPair:
    """Each modality cross-attends against a shared joint feature.

    The joint feature is the joint layer over both modalities; each
    modality then runs the query side of the cross block with the joint
    feature standing in for the other modality.
    """
    joint = joint_representation(xa, xv, p["joint_w"], p["joint_b"])
    w_a = _normalize(cross_correlation(xa, joint, p["cross_a"]))
    w_v = _normalize(cross_correlation(xv, joint, p["cross_v"]))
    return AttendedPair(_attend(xa, w_a), _attend(xv, w_v), w_a, w_v)


def recursive_jca(xa, xv, p: dict) -> AttendedPair:
    """Iterated joint cross-attention: RJCA_ITERATIONS passes of one block,
    each fed the attended outputs of the last."""
    for _ in range(RJCA_ITERATIONS):
        pair = joint_cross_attention(xa, xv, p)
        xa, xv = pair.audio, pair.visual
    return pair
