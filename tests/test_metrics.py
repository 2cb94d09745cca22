import numpy as np
import pytest

from iaca.autodiff import Tensor
from iaca.metrics import ccc, ccc_loss

import reference as ref
from helpers import finite_diff, relative_error


def test_perfect_agreement_scores_one():
    x = np.array([0.1, -0.4, 0.9, 0.3])
    assert ccc(x, x.copy()) == pytest.approx(1.0, abs=1e-12)


def test_sign_flipped_zero_mean_scores_minus_one():
    g = np.array([1.0, 0.0, -1.0, 0.5, -0.5])
    assert ccc(-g, g) == pytest.approx(-1.0, abs=1e-12)


def test_constant_gold_scores_zero():
    assert ccc([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0


def test_hand_computed_value():
    # pred [0,1], gold [0,2]: cov .5, vars .25/1, mean gap -.5 -> 1/1.5
    assert ccc([0.0, 1.0], [0.0, 2.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_rejects_short_or_mismatched_tracks():
    with pytest.raises(ValueError):
        ccc([1.0], [1.0])
    with pytest.raises(ValueError):
        ccc([1.0, 2.0], [1.0, 2.0, 3.0])


def test_identical_constant_tracks_warn_and_score_zero():
    with pytest.warns(RuntimeWarning):
        assert ccc([3.0, 3.0, 3.0], [3.0, 3.0, 3.0]) == 0.0
    with pytest.warns(RuntimeWarning):
        assert ccc(np.full(3000, -0.25), np.full((1, 3000), -0.25)) == 0.0


def test_symmetry_and_bounds_randomized():
    rng = np.random.default_rng(50)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=n) * rng.uniform(0.1, 5.0)
        b = rng.normal(size=n) * rng.uniform(0.1, 5.0)
        v = ccc(a, b)
        assert ccc(b, a) == v
        assert -1.0 <= v <= 1.0


def test_scale_sensitivity_separates_ccc_from_correlation():
    rng = np.random.default_rng(51)
    a = rng.normal(size=32)
    assert ccc(a, 2.0 * a) < 1.0
    assert np.corrcoef(a, 2.0 * a)[0, 1] == pytest.approx(1.0)


def test_accepts_row_matrices():
    a = np.array([[0.1, 0.2, 0.3]])
    assert ccc(a, a) == pytest.approx(1.0)


# -------------------------------------------------------------------- loss

def test_loss_zero_on_perfect_agreement():
    g = np.array([[0.2, -0.3, 0.7, 0.1]])
    loss = ccc_loss(Tensor(g), g)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_loss_matches_plain_metric():
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        p = rng.normal(size=(1, n))
        g = rng.normal(size=(1, n))
        assert ccc_loss(Tensor(p), g).item() == pytest.approx(1.0 - ccc(p, g),
                                                              abs=1e-12)


def test_loss_is_one_node_worth_one_minus_ccc_bitwise():
    rng = np.random.default_rng(56)
    for _ in range(200):
        n = int(rng.integers(2, 600))
        p = rng.normal(size=(1, n)) * rng.uniform(0.01, 5.0) + rng.normal()
        g = rng.uniform(-1, 1, size=n)
        t = Tensor(p)
        loss = ccc_loss(t, g)
        assert loss.item() == 1.0 - ccc(p, g)
        assert loss.op == "ccc_loss" and loss.parents == (t._node,)  # gold is no node


@pytest.mark.parametrize("constant", ["pred", "gold"])
def test_loss_gradient_matches_finite_differences_at_a_constant_track(constant):
    rng = np.random.default_rng(57)
    pred = rng.normal(size=(1, 8))
    gold = rng.uniform(-1, 1, size=(1, 8))
    if constant == "pred":
        pred[:] = 0.3  # var_p = 0
    else:
        gold[:] = -0.2  # var_g = 0, so cov and rho are 0 for every pred

    t = Tensor(pred)
    ccc_loss(t, gold).backward()
    numeric = finite_diff(lambda v: ccc_loss(Tensor(v), gold).item(), pred)
    assert relative_error(t.grad, numeric) < 1e-4


def test_loss_rejects_gold_of_another_length():
    with pytest.raises(ValueError, match="length mismatch: 4 vs 5"):
        ccc_loss(Tensor(np.arange(4.0).reshape(1, 4)), np.arange(5.0))


def test_loss_stays_in_range():
    rng = np.random.default_rng(53)
    for _ in range(100):
        n = int(rng.integers(2, 20))
        loss = ccc_loss(Tensor(rng.normal(size=(1, n))), rng.normal(size=(1, n)))
        assert 0.0 <= loss.item() <= 2.0


def test_loss_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ccc_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ccc_loss(Tensor([[1.0]]), [[1.0]])


def test_ccc_value_loss_and_gradient_are_bitwise_the_textbook_formula():
    # lengths 2 to 3000, half of them under 64, at varied scales and offsets
    rng = np.random.default_rng(57)
    lengths = [2, 3, 3000, *rng.integers(2, 64, 200), *rng.integers(64, 3001, 200)]
    for n in lengths:
        p = rng.normal(size=(1, n)) * rng.uniform(0.01, 5.0) + rng.normal()
        g = rng.uniform(-1.0, 1.0, size=n) * rng.uniform(0.01, 1.0)
        rho, grad = ref.ref_ccc(p, g)
        assert ccc(p, g) == rho, n
        t = Tensor(p)
        loss = ccc_loss(t, g)
        assert loss.item() == 1.0 - rho, n
        loss.backward()
        assert t.grad.tobytes() == grad.reshape(1, n).tobytes(), n


def test_loss_constant_degenerate_case_warns():
    pred = Tensor([[2.0, 2.0, 2.0]])
    with pytest.warns(RuntimeWarning):
        loss = ccc_loss(pred, [[2.0, 2.0, 2.0]])
    assert loss.item() == 1.0
    # a node with no path to a leaf: backward passes nothing on
    assert loss.parents == ()
    loss.backward()
    assert pred.grad is None


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(54)
    gold = rng.uniform(-1, 1, size=(1, 8))
    pred = rng.normal(size=(1, 8))

    t = Tensor(pred)
    loss = ccc_loss(t, gold)
    loss.backward()
    numeric = finite_diff(lambda v: ccc_loss(Tensor(v), gold).item(), pred)
    assert relative_error(t.grad, numeric) < 1e-4


def test_loss_gradient_through_model_matches_finite_differences():
    # end-to-end: data -> fusion model -> ccc loss, differentiated by a
    # single parameter matrix and checked against central differences
    from iaca.gating import FusionModel

    rng = np.random.default_rng(55)
    d, n_clips = 4, 5
    xa = rng.normal(size=(d, n_clips))
    xv = rng.normal(size=(d, n_clips))
    gold = rng.uniform(-1, 1, size=(1, n_clips))
    model = FusionModel.create(d, "CA", iaca=True, seed=10)
    for v in model.params.values():
        v += rng.normal(0.0, 0.05, size=v.shape)

    def loss_value(w):
        leaves = model.bind()
        leaves["cross.w"] = Tensor(w)
        pred = model.forward_graph(Tensor(xa), Tensor(xv), leaves).prediction
        return ccc_loss(pred, gold)

    leaves = model.bind()
    pred = model.forward_graph(Tensor(xa), Tensor(xv), leaves).prediction
    loss = ccc_loss(pred, gold)
    loss.backward()
    numeric = finite_diff(lambda w: loss_value(w).item(), model.params["cross.w"])
    assert relative_error(leaves["cross.w"].grad, numeric) < 1e-4
