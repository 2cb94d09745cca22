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


def _ref_gated(xa, xv, p, variant, temperature):
    att_a, att_v = ref_variant_attention(xa, xv, p, variant)
    x_ga, g_a = ref_stage1(xa, att_a, p["gate_a.w"], temperature)
    x_gv, g_v = ref_stage1(xv, att_v, p["gate_v.w"], temperature)
    x_gav = ref_joint(x_ga, x_gv, p["joint.w"], p["joint.b"])
    fused, g_av = ref_stage2(x_ga, x_gv, x_gav, p["gate_av.w"], temperature)
    return fused, (g_a, g_v, g_av)


def ref_gate_scores(xa, xv, p, variant, temperature=0.1):
    """Stage-1 audio, stage-1 visual and stage-2 scores of the gated model,
    each L x K (one row per clip)."""
    return _ref_gated(xa, xv, p, variant, temperature)[1]


def ref_full_forward(xa, xv, p, variant, iaca, temperature=0.1):
    if iaca:
        fused, _ = _ref_gated(xa, xv, p, variant, temperature)
    else:
        att_a, att_v = ref_variant_attention(xa, xv, p, variant)
        fused = ref_joint(att_a, att_v, p["joint.w"], p["joint.b"])
    return ref_predict(fused, p["head.w1"], p["head.b1"], p["head.w2"], p["head.b2"])


# ---------------------------------------------------------------- generator
# A straight-line copy of the synthetic generator as a loop over the sines,
# one scalar rng.uniform per amplitude, frequency and phase, with every
# draw in the order the library promises. It pins the library's bits on
# the machine that runs the test, whatever its CPU or BLAS.

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def ref_derive_seed(seed, index):
    z = ((seed & _MASK) + index * _GOLDEN + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def ref_smooth_track(rng, n_clips):
    t = np.linspace(0.0, 1.0, n_clips)
    track = np.zeros(n_clips)
    for _ in range(int(rng.integers(2, 5))):
        amplitude = rng.uniform(0.3, 1.0)
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        track += amplitude * np.sin(2.0 * np.pi * freq * t + phase)
    return np.clip(track, -1.0, 1.0)


def ref_generate(kind, noise_sigma, d, n_clips, n_sequences, seed):
    """(xa, xv, target, sequence seed) per sequence."""
    embed_rng = np.random.default_rng(ref_derive_seed(seed, 0))
    embed_a = embed_rng.normal(0.0, 0.5, size=(d, 4))
    embed_v = embed_rng.normal(0.0, 0.5, size=(d, 4))
    out = []
    for i in range(n_sequences):
        seq_seed = ref_derive_seed(seed, i + 1)
        rng = np.random.default_rng(seq_seed)
        signal = ref_smooth_track(rng, n_clips)
        sig_a = sig_v = signal
        if kind == "weak_conflicting":
            conflict = ref_smooth_track(rng, n_clips)
            sig_v = conflict + noise_sigma * rng.normal(size=n_clips)
        elif kind == "dominating_audio":
            sig_v = noise_sigma * rng.normal(size=n_clips)
        elif kind == "dominating_visual":
            sig_a = noise_sigma * rng.normal(size=n_clips)
        nuisance_a = [ref_smooth_track(rng, n_clips) for _ in range(3)]
        nuisance_v = [ref_smooth_track(rng, n_clips) for _ in range(3)]
        xa = embed_a @ np.stack([sig_a] + nuisance_a)
        xv = embed_v @ np.stack([sig_v] + nuisance_v)
        out.append((xa, xv, signal.reshape(1, n_clips), seq_seed))
    return out


def ref_corrupt_missing(x, fraction, seed):
    out = x.copy()
    n_clips = x.shape[1]
    n_zero = int(np.floor(fraction * n_clips))
    if n_zero:
        start = int(np.random.default_rng(seed).integers(0, n_clips - n_zero + 1))
        out[:, start:start + n_zero] = 0.0
    return out


def ref_prepare_splits(kind, noise_sigma, corrupt_fraction, d, n_clips,
                       n_train, n_val, seed, dim_index):
    """Train and val (xa, xv, target, seed) tuples for output dimension
    dim_index (0 valence, 1 arousal): data stream 1000 + dim_index, and
    each training sequence's audio masked by stream 77 of its own seed."""
    seqs = ref_generate(kind, noise_sigma, d, n_clips, n_train + n_val,
                        ref_derive_seed(seed, 1000 + dim_index))
    train, val = seqs[:n_train], seqs[n_train:]
    if corrupt_fraction > 0:
        train = [(ref_corrupt_missing(xa, corrupt_fraction, ref_derive_seed(s, 77)),
                  xv, target, s) for xa, xv, target, s in train]
    return train, val


# --------------------------------------------------------- training arithmetic
# The per-parameter Adam step and the textbook np.mean/np.var CCC, written
# with the exact expressions whose bits the library keeps: the library's flat
# Adam and its once-per-call CCC terms must match these bit for bit.

def ref_adam(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Copies of params after one Adam step per dict in grad_steps, each
    parameter updated on its own moments."""
    params = {name: value.copy() for name, value in params.items()}
    m = {name: np.zeros_like(value) for name, value in params.items()}
    v = {name: np.zeros_like(value) for name, value in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        for name, g in grads.items():
            m[name] += (1.0 - beta1) * (g - m[name])
            v[name] += (1.0 - beta2) * (g * g - v[name])
            m_hat = m[name] / (1.0 - beta1 ** t)
            v_hat = v[name] / (1.0 - beta2 ** t)
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def ref_ccc(pred, gold):
    """(ccc, d(1 - ccc)/dpred) of two flat tracks, population moments."""
    p, g = np.ravel(pred), np.ravel(gold)
    cov = np.mean((p - np.mean(p)) * (g - np.mean(g)))
    denom = np.var(p) + np.var(g) + (np.mean(p) - np.mean(g)) ** 2
    rho = float(2.0 * cov / denom)
    grad = (-2.0 / (p.size * denom)) * ((g - np.mean(g)) - rho * (p - np.mean(g)))
    return rho, grad
