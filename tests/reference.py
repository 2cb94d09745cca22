"""Straight-line numpy re-implementations used as oracles.

Everything here is computed directly on arrays, with no graph machinery,
so agreement with the library is evidence the graph ops compose the same
math. Written against the formulas, not against the library source.
"""

import numpy as np


def ref_softmax(z, axis, temperature=1.0):
    # axis="columns": each column sums to 1 (normalize down axis 0).
    ax = 0 if axis == "columns" else 1
    s = z / temperature
    s = s - s.max(axis=ax, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=ax, keepdims=True)


def ref_cross_attention(xa, xv, w):
    z = xa.T @ w @ xv
    a_a = ref_softmax(z, "columns")
    a_v = ref_softmax(z.T, "columns")
    att_a = np.tanh(xa + xa @ a_a)
    att_v = np.tanh(xv + xv @ a_v)
    return att_a, att_v, a_a, a_v


def ref_self_attention(x, w):
    a = ref_softmax(x.T @ w @ x, "columns")
    return np.tanh(x + x @ a)


def ref_tca_block(xq, xkv, wq, wk, wv, ff1_w, ff1_b, ff2_w, ff2_b):
    d = xq.shape[0]
    q = wq @ xq
    k = wk @ xkv
    v = wv @ xkv
    weights = ref_softmax((q.T @ k) / np.sqrt(d), "rows")
    h = xq + v @ weights.T
    hidden = np.maximum(ff1_w @ h + ff1_b, 0.0)
    ff = ff2_w @ hidden + ff2_b
    return np.tanh(h + ff), weights


def ref_attend_to(x, context, w):
    weights = ref_softmax(x.T @ w @ context, "columns")
    return np.tanh(x + x @ weights), weights


def ref_jca(xa, xv, joint_w, joint_b, cross_a, cross_v):
    joint = joint_w @ np.vstack([xa, xv]) + joint_b
    att_a, w_a = ref_attend_to(xa, joint, cross_a)
    att_v, w_v = ref_attend_to(xv, joint, cross_v)
    return att_a, att_v, w_a, w_v


def ref_rjca(xa, xv, joint_w, joint_b, cross_a, cross_v, t):
    cur_a, cur_v = xa, xv
    out = None
    for _ in range(t):
        out = ref_jca(cur_a, cur_v, joint_w, joint_b, cross_a, cross_v)
        cur_a, cur_v = out[0], out[1]
    return out


def ref_stage1(x_base, x_att, w_gl, temperature):
    g = ref_softmax(x_att.T @ w_gl, "rows", temperature)
    out = np.maximum(x_base * g[:, 0][None, :] + x_att * g[:, 1][None, :], 0.0)
    return out, g


def ref_joint(x_ga, x_gv, w, b):
    return w @ np.vstack([x_ga, x_gv]) + b


def ref_stage2(x_ga, x_gv, x_gav, w_avl, temperature):
    stacked = np.vstack([x_ga, x_gv, x_gav])
    g = ref_softmax(stacked.T @ w_avl, "rows", temperature)
    out = np.maximum(x_ga * g[:, 0][None, :] + x_gv * g[:, 1][None, :]
                     + x_gav * g[:, 2][None, :], 0.0)
    return out, g


def ref_predict(x, w1, b1, w2, b2):
    hidden = np.maximum(w1 @ x + b1, 0.0)
    return np.tanh(w2 @ hidden + b2)


def ref_variant_attention(xa, xv, p, variant):
    if variant == "CA":
        att_a, att_v, _, _ = ref_cross_attention(xa, xv, p["cross.w"])
        return att_a, att_v
    if variant == "TCA":
        att_a, _ = ref_tca_block(xa, xv, p["tca_a.wq"], p["tca_a.wk"], p["tca_a.wv"],
                                 p["tca_a.ff1_w"], p["tca_a.ff1_b"],
                                 p["tca_a.ff2_w"], p["tca_a.ff2_b"])
        att_v, _ = ref_tca_block(xv, xa, p["tca_v.wq"], p["tca_v.wk"], p["tca_v.wv"],
                                 p["tca_v.ff1_w"], p["tca_v.ff1_b"],
                                 p["tca_v.ff2_w"], p["tca_v.ff2_b"])
        return att_a, att_v
    if variant == "JCA":
        att_a, att_v, _, _ = ref_jca(xa, xv, p["jca.joint_w"], p["jca.joint_b"],
                                     p["jca.cross_a"], p["jca.cross_v"])
        return att_a, att_v
    cur_a, cur_v = xa, xv
    for _ in range(2):
        cur_a, cur_v, _, _ = ref_jca(cur_a, cur_v, p["jca.joint_w"], p["jca.joint_b"],
                                     p["jca.cross_a"], p["jca.cross_v"])
    return cur_a, cur_v


def ref_full_forward(xa, xv, p, variant, iaca, temperature=0.1):
    att_a, att_v = ref_variant_attention(xa, xv, p, variant)
    if not iaca:
        fused = ref_joint(att_a, att_v, p["joint.w"], p["joint.b"])
        return ref_predict(fused, p["head.w1"], p["head.b1"],
                           p["head.w2"], p["head.b2"])
    x_ga, _ = ref_stage1(xa, att_a, p["gate_a.w"], temperature)
    x_gv, _ = ref_stage1(xv, att_v, p["gate_v.w"], temperature)
    x_gav = ref_joint(x_ga, x_gv, p["joint.w"], p["joint.b"])
    fused, _ = ref_stage2(x_ga, x_gv, x_gav, p["gate_av.w"], temperature)
    return ref_predict(fused, p["head.w1"], p["head.b1"], p["head.w2"], p["head.b2"])
