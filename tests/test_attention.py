import tracemalloc
import types

import numpy as np
import pytest

from iaca.autodiff import ShapeError, Tensor
from iaca.attention import (
    RJCA_ITERATIONS,
    JcaParams,
    TcaBlockParams,
    cross_attention,
    cross_correlation,
    joint_cross_attention,
    recursive_jca,
    self_attention,
    tca_attention,
    tca_block,
)
from iaca.gating import FusionModel
from iaca.synth import SyntheticSequence
from iaca.training import _batch_loss

import reference as ref
from helpers import finite_diff, mean_all, ops as ad, relative_error, sum_all


def _pair(rng, d=4, n_clips=6):
    xa = rng.normal(size=(d, n_clips))
    xv = rng.normal(size=(d, n_clips))
    return xa, xv


def _tca_params(rng, d, hidden=None):
    h = hidden if hidden is not None else 2 * d
    s = 1.0 / np.sqrt(d)
    return {
        "wq": rng.normal(0, s, (d, d)),
        "wk": rng.normal(0, s, (d, d)),
        "wv": rng.normal(0, s, (d, d)),
        "ff1_w": rng.normal(0, s, (h, d)),
        "ff1_b": np.zeros((h, 1)),
        "ff2_w": rng.normal(0, 1.0 / np.sqrt(h), (d, h)),
        "ff2_b": np.zeros((d, 1)),
    }


def _jca_params(rng, d):
    return {
        "joint_w": rng.normal(0, 1.0 / np.sqrt(2 * d), (d, 2 * d)),
        "joint_b": rng.normal(0, 0.1, (d, 1)),
        "cross_a": rng.normal(0, 1.0 / d, (d, d)),
        "cross_v": rng.normal(0, 1.0 / d, (d, d)),
    }


def _as_tca(arrs, requires_grad=True):
    return TcaBlockParams(**{k: Tensor(v, requires_grad=requires_grad) for k, v in arrs.items()})


def _as_jca(arrs, requires_grad=True):
    return JcaParams(**{k: Tensor(v, requires_grad=requires_grad) for k, v in arrs.items()})


# ---------------------------------------------------------------- correlation

def test_cross_correlation_orthonormal_identity():
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))
    x = Tensor(q[:, :4])
    z = cross_correlation(x, x, Tensor(np.eye(5)))
    assert np.allclose(z.value, np.eye(4), atol=1e-12)


def test_cross_correlation_hand_case():
    xa = Tensor([[1.0, 0.0], [0.0, 1.0]])
    xv = Tensor([[1.0, 1.0], [0.0, 0.0]])
    z = cross_correlation(xa, xv, Tensor(np.eye(2)))
    assert np.array_equal(z.value, [[1.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("d,n_clips", [(3, 5), (8, 2), (1, 7)])
def test_cross_correlation_shape(d, n_clips):
    rng = np.random.default_rng(d * 100 + n_clips)
    xa, xv = _pair(rng, d, n_clips)
    z = cross_correlation(Tensor(xa), Tensor(xv), Tensor(rng.normal(size=(d, d))))
    assert z.shape == (n_clips, n_clips)


def test_cross_correlation_shape_mismatch():
    with pytest.raises(ShapeError):
        cross_correlation(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 5))),
                          Tensor(np.eye(3)))


# ------------------------------------------------------------ cross-attention

def test_cross_attention_uniform_when_correlation_constant():
    n_clips = 5
    xa = Tensor(np.zeros((3, n_clips)))
    xv = Tensor(np.random.default_rng(1).normal(size=(3, n_clips)))
    pair = cross_attention(xa, xv, Tensor(np.eye(3)))
    assert np.allclose(pair.audio_weights.value, 1.0 / n_clips, atol=1e-12)


def test_cross_attention_outputs_bounded():
    rng = np.random.default_rng(2)
    xa, xv = _pair(rng)
    pair = cross_attention(Tensor(3 * xa), Tensor(3 * xv),
                           Tensor(rng.normal(size=(4, 4))))
    for t in (pair.audio, pair.visual):
        assert np.all(t.value > -1.0) and np.all(t.value < 1.0)


def test_cross_attention_matches_oracle():
    rng = np.random.default_rng(3)
    xa, xv = _pair(rng, 4, 6)
    w = rng.normal(size=(4, 4))
    pair = cross_attention(Tensor(xa), Tensor(xv), Tensor(w))
    att_a, att_v, a_a, a_v = ref.ref_cross_attention(xa, xv, w)
    assert relative_error(pair.audio.value, att_a) < 1e-12
    assert relative_error(pair.visual.value, att_v) < 1e-12
    assert relative_error(pair.audio_weights.value, a_a) < 1e-12
    assert relative_error(pair.visual_weights.value, a_v) < 1e-12


def test_cross_attention_weight_normalization():
    rng = np.random.default_rng(4)
    xa, xv = _pair(rng, 5, 7)
    w = rng.normal(size=(5, 5))
    cols = cross_attention(Tensor(xa), Tensor(xv), Tensor(w))
    assert np.allclose(cols.audio_weights.value.sum(axis=0), 1.0, atol=1e-9)
    assert np.allclose(cols.visual_weights.value.sum(axis=0), 1.0, atol=1e-9)


# ------------------------------------------------------------- self-attention

def test_self_attention_zero_input():
    out = self_attention(Tensor(np.zeros((3, 4))), Tensor(np.eye(3)))
    assert np.array_equal(out.value, np.zeros((3, 4)))


def test_self_attention_matches_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 4))
    out = self_attention(Tensor(x), Tensor(w))
    assert out.shape == (4, 6)
    assert relative_error(out.value, ref.ref_self_attention(x, w)) < 1e-12


# ------------------------------------------------------------------------ TCA

def test_tca_block_weights_column_stochastic():
    rng = np.random.default_rng(6)
    xa, xv = _pair(rng, 4, 6)
    out, weights = tca_block(Tensor(xa), Tensor(xv), _as_tca(_tca_params(rng, 4)))
    assert out.shape == (4, 6)
    assert weights.shape == (6, 6)
    assert np.allclose(weights.value.sum(axis=0), 1.0, atol=1e-9)


def test_tca_matches_oracle():
    rng = np.random.default_rng(7)
    xa, xv = _pair(rng, 4, 6)
    pa = _tca_params(rng, 4)
    pv = _tca_params(rng, 4)
    pair = tca_attention(Tensor(xa), Tensor(xv), _as_tca(pa), _as_tca(pv))
    ra, wa = ref.ref_tca_block(xa, xv, **pa)
    rv, wv = ref.ref_tca_block(xv, xa, **pv)
    assert relative_error(pair.audio.value, ra) < 1e-12
    assert relative_error(pair.visual.value, rv) < 1e-12
    # the reference's maps are row-stochastic, one row per query clip
    assert relative_error(pair.audio_weights.value, wa.T) < 1e-12
    assert relative_error(pair.visual_weights.value, wv.T) < 1e-12


def test_tca_shape_mismatch():
    rng = np.random.default_rng(8)
    with pytest.raises(ShapeError):
        tca_block(Tensor(np.zeros((4, 6))), Tensor(np.zeros((4, 5))),
                  _as_tca(_tca_params(rng, 4)))


# ------------------------------------------------------------------------ JCA

def test_jca_symmetric_inputs_give_symmetric_outputs():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 5))
    arrs = _jca_params(rng, 4)
    arrs["cross_v"] = arrs["cross_a"].copy()
    pair = joint_cross_attention(Tensor(x), Tensor(x), _as_jca(arrs))
    assert np.array_equal(pair.audio.value, pair.visual.value)


def test_jca_matches_oracle():
    rng = np.random.default_rng(10)
    xa, xv = _pair(rng, 4, 6)
    arrs = _jca_params(rng, 4)
    pair = joint_cross_attention(Tensor(xa), Tensor(xv), _as_jca(arrs))
    assert pair.audio.shape == (4, 6)
    att_a, att_v, w_a, w_v = ref.ref_jca(xa, xv, **arrs)
    assert relative_error(pair.audio.value, att_a) < 1e-12
    assert relative_error(pair.visual.value, att_v) < 1e-12
    assert relative_error(pair.audio_weights.value, w_a) < 1e-12
    assert relative_error(pair.visual_weights.value, w_v) < 1e-12


# ----------------------------------------------------------------------- RJCA

def test_rjca_single_step_is_jca():
    # each RJCA step is one JCA pass over the last step's output
    rng = np.random.default_rng(11)
    xa, xv = _pair(rng, 4, 6)
    p = _as_jca(_jca_params(rng, 4))
    out = recursive_jca(Tensor(xa), Tensor(xv), p)
    first = joint_cross_attention(Tensor(xa), Tensor(xv), p)
    base = joint_cross_attention(first.audio, first.visual, p)
    for name in ("audio", "visual", "audio_weights", "visual_weights"):
        assert np.array_equal(getattr(out, name).value, getattr(base, name).value), name


def test_rjca_three_steps_match_unrolled_oracle():
    rng = np.random.default_rng(12)
    xa, xv = _pair(rng, 4, 6)
    arrs = _jca_params(rng, 4)
    out = recursive_jca(Tensor(xa), Tensor(xv), _as_jca(arrs))
    ra, rv, _, _ = ref.ref_rjca(xa, xv, t=RJCA_ITERATIONS, **arrs)
    assert relative_error(out.audio.value, ra) < 1e-12
    assert relative_error(out.visual.value, rv) < 1e-12
    for t in (out.audio, out.visual):
        assert np.all(np.abs(t.value) < 1.0)


# ------------------------------------------------------- shared invariants

def _variant_forward(name, xa, xv, arrs, requires_grad=True):
    if name == "CA":
        return cross_attention(xa, xv, Tensor(arrs["w"], requires_grad=requires_grad))
    if name == "TCA":
        return tca_attention(xa, xv, _as_tca(arrs["a"], requires_grad),
                             _as_tca(arrs["v"], requires_grad))
    attend = joint_cross_attention if name == "JCA" else recursive_jca
    return attend(xa, xv, _as_jca(arrs["j"], requires_grad))


def _variant_arrays(name, rng, d):
    if name == "CA":
        return {"w": rng.normal(0, 1.0 / d, (d, d))}
    if name == "TCA":
        return {"a": _tca_params(rng, d), "v": _tca_params(rng, d)}
    return {"j": _jca_params(rng, d)}


@pytest.mark.parametrize("name", ["CA", "TCA", "JCA", "RJCA"])
def test_permutation_equivariance(name):
    rng = np.random.default_rng(15)
    d, n_clips = 4, 6
    xa, xv = _pair(rng, d, n_clips)
    arrs = _variant_arrays(name, rng, d)
    perm = rng.permutation(n_clips)
    base = _variant_forward(name, Tensor(xa), Tensor(xv), arrs)
    shuffled = _variant_forward(name, Tensor(xa[:, perm]), Tensor(xv[:, perm]), arrs)
    assert np.allclose(shuffled.audio.value, base.audio.value[:, perm], atol=1e-12)
    assert np.allclose(shuffled.visual.value, base.visual.value[:, perm], atol=1e-12)


@pytest.mark.parametrize("name", ["CA", "TCA", "JCA", "RJCA"])
def test_attended_features_bounded(name):
    rng = np.random.default_rng(16)
    xa, xv = _pair(rng, 5, 7)
    pair = _variant_forward(name, Tensor(4 * xa), Tensor(4 * xv),
                            _variant_arrays(name, rng, 5))
    for t in (pair.audio, pair.visual):
        assert np.all(np.abs(t.value) < 1.0)


@pytest.mark.parametrize("name", ["CA", "TCA", "JCA", "RJCA"])
def test_variant_gradients_match_finite_differences(name):
    rng = np.random.default_rng(17)
    d, n_clips = 3, 4
    xa, xv = _pair(rng, d, n_clips)
    arrs = _variant_arrays(name, rng, d)

    def run(xa_val):
        xa_t = Tensor(xa_val)
        pair = _variant_forward(name, xa_t, Tensor(xv), arrs)
        loss = mean_all(pair.audio) + mean_all(pair.visual)
        return xa_t, loss

    xa_t, loss = run(xa)
    loss.backward()
    numeric = finite_diff(lambda v: run(v)[1].item(), xa)
    assert relative_error(xa_t.grad, numeric) < 1e-4


# ------------------------------------------- the variants against the public ops

def _attend_from_public_ops(x, weights):
    return ad.tanh(ad.add(x, ad.matmul(x, weights)))


def _tca_block_from_public_ops(xq, xkv, p):
    d = xq.shape[0]
    q, k, v = ad.matmul(p.wq, xq), ad.matmul(p.wk, xkv), ad.matmul(p.wv, xkv)
    weights = ad.softmax(ad.matmul(ad.scale(ad.transpose(k), 1.0 / d**0.5), q), axis="columns")
    h = ad.add(xq, ad.matmul(v, weights))
    hidden = ad.relu(ad.add_col(ad.matmul(p.ff1_w, h), p.ff1_b))
    return ad.tanh(ad.add(h, ad.add_col(ad.matmul(p.ff2_w, hidden), p.ff2_b))), weights


def _from_public_ops(variant, xa, xv, p):
    """The variant from public ops only, each map the allocating softmax of
    its product: the reference for the library's in-place maps. Returns
    (attended, map) per modality, audio first; self-attention attends xa."""
    if variant == "CA":
        z = cross_correlation(xa, xv, p)
        maps = ad.softmax(z, axis="columns"), ad.softmax(ad.transpose(z), axis="columns")
        return [(_attend_from_public_ops(x, m), m) for x, m in zip((xa, xv), maps)]
    if variant == "TCA":
        return [_tca_block_from_public_ops(xa, xv, p[0]), _tca_block_from_public_ops(xv, xa, p[1])]
    if variant == "self":
        weights = ad.softmax(cross_correlation(xa, xa, p), axis="columns")
        return [(_attend_from_public_ops(xa, weights), weights)]
    for _ in range(1 if variant == "JCA" else RJCA_ITERATIONS):
        joint = ad.add_col(ad.matmul(p.joint_w, ad.concat_rows(xa, xv)), p.joint_b)
        out = []
        for x, w in ((xa, p.cross_a), (xv, p.cross_v)):
            weights = ad.softmax(cross_correlation(x, joint, w), axis="columns")
            out.append((_attend_from_public_ops(x, weights), weights))
        xa, xv = out[0][0], out[1][0]
    return out


def _from_library(variant, xa, xv, p):
    if variant == "self":
        return [(self_attention(xa, p), None)]  # the map is not returned
    if variant == "CA":
        pair = cross_attention(xa, xv, p)
    elif variant == "TCA":
        pair = tca_attention(xa, xv, *p)
    else:
        pair = (joint_cross_attention if variant == "JCA" else recursive_jca)(xa, xv, p)
    return [(pair.audio, pair.audio_weights), (pair.visual, pair.visual_weights)]


def _bind(variant, arrs):
    """Fresh leaves for a variant's arrays: the params its forward takes, and
    the same leaves by name."""
    if variant in ("CA", "self"):
        w = Tensor(arrs["w"])
        return w, {"w": w}
    if variant == "TCA":
        blocks = _as_tca(arrs["a"]), _as_tca(arrs["v"])
        return blocks, {f"{side}.{k}": t for side, block in zip("av", blocks)
                        for k, t in vars(block).items()}
    p = _as_jca(arrs["j"])
    return p, dict(vars(p))


@pytest.mark.parametrize("variant", ["CA", "TCA", "JCA", "RJCA", "self"])
def test_variants_bitwise_equal_the_public_op_composition(variant):
    # the library writes each map into its product's buffer; the reference
    # allocates it, so the in-place path cannot drift from the public ops
    rng = np.random.default_rng(18)
    xa, xv = _pair(rng, 4, 6)
    arrs = _variant_arrays("CA" if variant == "self" else variant, rng, 4)
    upstream = [rng.normal(size=(4, 6)) for _ in range(2)]

    def run(forward):
        p, leaves = _bind(variant, arrs)
        leaves.update(xa=Tensor(xa), xv=Tensor(xv))
        out = forward(variant, leaves["xa"], leaves["xv"], p)
        loss = sum_all(ad.hadamard(out[0][0], upstream[0]))
        for (attended, _), up in zip(out[1:], upstream[1:]):
            loss = loss + sum_all(ad.hadamard(attended, up))
        loss.backward()
        return [t.value for pair in out for t in pair if t is not None], leaves

    (values, leaves), (ref_values, ref_leaves) = run(_from_library), run(_from_public_ops)
    assert len(values) == (1 if variant == "self" else 4)
    for v, r in zip(values, ref_values):
        assert np.array_equal(v, r)
    for name, leaf in leaves.items():  # self-attention leaves xv's grad None on both sides
        assert np.array_equal(leaf.grad, ref_leaves[name].grad), name


@pytest.mark.parametrize("name,maps", [("CA", 2), ("TCA", 2), ("JCA", 2),
                                       ("RJCA", 2 * RJCA_ITERATIONS)])
def test_an_attention_pass_allocates_one_lxl_buffer_per_map(name, maps):
    # each map is normalized in the buffer of the product it came from, so a
    # pass on constants peaks at its maps plus arrays of d x L or smaller
    d, n_clips = 4, 256
    rng = np.random.default_rng(20)
    xa, xv = (Tensor(x, requires_grad=False) for x in _pair(rng, d, n_clips))
    arrs = _variant_arrays(name, rng, d)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pair = _variant_forward(name, xa, xv, arrs, requires_grad=False)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert pair.audio_weights.shape == (n_clips, n_clips)
    assert peak / (n_clips * n_clips * 8) < maps + 0.5


def _live_arrays(*roots):
    """The arrays kept alive by roots: through containers, every slot of a
    Tensor or graph node, and the closure cells and defaults of a vjp. A
    view counts as the array it views."""
    found, seen, stack = {}, set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
        elif isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
            stack += obj.__defaults__ or ()
        else:
            stack += [getattr(obj, name, None) for cls in type(obj).__mro__
                      for name in getattr(cls, "__slots__", ())]
    return list(found.values())


@pytest.mark.parametrize("variant,iaca", [
    (variant, iaca) for variant in ("CA", "TCA", "JCA", "RJCA") for iaca in (False, True)
])
def test_batch_graph_holds_no_lxl_value_but_the_weight_maps(variant, iaca):
    # what a training step keeps alive until backward: the loss graph and
    # what the caller holds (parameter leaves, prediction values, gold); of
    # it, the only L x L arrays are the weight maps, which the attended
    # products' vjps read, and no correlation behind a map
    d, n_clips, n_seqs = 3, 5, 2
    rng = np.random.default_rng(19)
    model = FusionModel.create(d, variant, iaca)
    batch = [SyntheticSequence(rng.normal(size=(d, n_clips)), rng.normal(size=(d, n_clips)),
                               rng.uniform(-1.0, 1.0, size=(1, n_clips)), None, 0)
             for _ in range(n_seqs)]
    held = _batch_loss(model, batch)
    square = [a for a in _live_arrays(held) if a.shape == (n_clips, n_clips)]
    # two maps per CA, TCA or JCA pass
    maps = 2 * (RJCA_ITERATIONS if variant == "RJCA" else 1)
    assert len(square) == n_seqs * maps
    for weights in square:
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, rtol=0, atol=1e-12)
