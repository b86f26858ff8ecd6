"""Layer and toy-model tests: forward, manual backward, factor gradients."""

import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pass_reference as pass_ref
import scalar_reference as ref
from altlora import adapter as ad
from altlora import optim
from altlora.matcore import SQUARE_CHUNK, RandomStream, frobenius, rel_error, sum_of_squares
from altlora.oracle import fd_entrywise_deviation, fd_merged_gradient
from dense_gradient import as_gradient
from matrix_text import load_matrix

GOLDEN = Path(__file__).parent / "golden"
# The two heads as parametrize labels; a model has the ReLU head when it has a w2.
LINEAR, RELU = "linear_regression", "two_layer_relu"


def _layer(w0, a, b, alpha):
    return ad.LoraLayer(np.asarray(w0, float), np.asarray(a, float), np.asarray(b, float), alpha)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_layer_rejects_an_alpha_that_is_not_positive_and_finite(alpha):
    with pytest.raises(ValueError, match="^alpha must be positive and finite"):
        _layer(np.eye(2), [[0.3, -0.7]], np.zeros((2, 1)), alpha)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_rebinding_alpha_takes_the_same_check_and_a_rejected_value_changes_nothing(alpha):
    layer = _layer(np.eye(2), [[0.3, -0.7]], [[1.0], [2.0]], 2.0)
    ad.forward(ad.ToyModel(layer), np.eye(2))
    memo = dict(layer._memo)
    with pytest.raises(ValueError, match="^alpha must be positive and finite"):
        layer.alpha = alpha
    assert layer.alpha == 2.0 and layer.s == 2.0 and layer._memo == memo and memo


def test_forward_zero_b_passes_base_weight_through():
    layer = _layer(np.eye(2), [[0.3, -0.7]], np.zeros((2, 1)), 1.0)
    model = ad.ToyModel(layer)
    y, _ = ad.forward(model, np.eye(2))
    np.testing.assert_array_equal(y, np.eye(2))


def test_forward_scaled_product():
    # s = alpha / r = 2
    layer = _layer(np.zeros((2, 2)), [[1.0, 0.0]], [[1.0], [0.0]], 2.0)
    model = ad.ToyModel(layer)
    y, _ = ad.forward(model, np.eye(2))
    np.testing.assert_allclose(y, [[2.0, 0.0], [0.0, 0.0]], atol=0)


def _relu_seed3_model():
    stream = RandomStream(3)
    w0 = stream.normal(6, 4)
    a = stream.normal(2, 4)
    b = stream.normal(6, 2)
    w2 = stream.normal(3, 6)
    x = stream.normal(4, 8)
    layer = ad.LoraLayer(w0, a, b, alpha=4.0)
    return ad.ToyModel(layer, w2), x


def test_relu_forward_matches_scalar_loop_oracle():
    model, x = _relu_seed3_model()
    layer = model.layer
    want = np.array(
        ref.relu_forward(
            layer.w0.tolist(), layer.a.tolist(), layer.b.tolist(), layer.s, model.w2.tolist(), x.tolist()
        )
    )
    got, _ = ad.forward(model, x)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_relu_forward_matches_golden_file():
    model, x = _relu_seed3_model()
    got, _ = ad.forward(model, x)
    want = load_matrix(GOLDEN / "relu_forward_seed3.txt")
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_full_gradient_zero_at_perfect_fit():
    stream = RandomStream(2)
    layer = ad.LoraLayer(stream.normal(3, 4), stream.normal(2, 4), stream.normal(3, 2), 2.0)
    model = ad.ToyModel(layer)
    x = stream.normal(4, 5)
    y, _ = ad.forward(model, x)
    _, g = ad.training_pass(model, x, y)
    np.testing.assert_array_equal(g.g, np.zeros((3, 4)))


def test_full_gradient_linear_least_squares_form():
    # W = 0, X = I: G = -(2/m) T
    layer = _layer(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 1)), 1.0)
    model = ad.ToyModel(layer)
    x = np.eye(2)
    target = np.array([[1.0, -2.0], [0.5, 3.0]])
    g = ad.training_pass(model, x, target)[1].g
    np.testing.assert_allclose(g, -(2.0 / 2.0) * target, atol=0)


@pytest.mark.parametrize("kind", [LINEAR, RELU])
def test_training_pass_is_forward_loss_and_gradient_bit_for_bit(kind):
    model, x, target = _random_model(kind, 12, 7, 3, 11, seed=26)
    y, cache = pass_ref.forward(model, x)
    loss = pass_ref.mse_loss(y, target)
    g = pass_ref.full_gradient(model, x, target, cache)[0]
    got_loss, got = ad.training_pass(model, x, target)
    assert got_loss == loss
    np.testing.assert_array_equal(got.u, g.u)
    held = model.layer._memo["ax"]
    np.testing.assert_array_equal(held[2], cache["ax"])
    assert got.v is x and held[0] is model.layer.a and held[1] is x


def test_training_pass_rejects_a_target_it_would_broadcast():
    model, x, target = _random_model(LINEAR, 6, 5, 2, 8, seed=27)
    for bad in (target[:1], target[:, :1]):
        with pytest.raises(ad.ShapeMismatch):
            ad.training_pass(model, x, bad)


def test_training_pass_rejects_a_factored_target_that_does_not_fit():
    model, x, _ = _random_model(LINEAR, 6, 5, 2, 8, seed=27)
    stream = RandomStream(28)
    us, vx = stream.normal(6, 3), stream.normal(3, 8)
    ad.training_pass(model, x, ad.FactoredTarget(us, vx))
    # U Sigma rows != k, V^T X columns != m, a run axis the layer does not have
    for bad in ((us[:5], vx), (us, vx[:, :7]), (us[None].repeat(2, 0), vx)):
        with pytest.raises(ad.ShapeMismatch, match=r"^factored target .* does not fit the layer \(6,\)"):
            ad.training_pass(model, x, ad.FactoredTarget(*bad))
    with pytest.raises(ad.ShapeMismatch, match=r"^factored target \(6, 3\) x \(2, 8\): the rank counts"):
        ad.FactoredTarget(us, vx[:2])
    relu, x_relu, _ = _random_model(RELU, 6, 5, 2, 8, seed=29)
    with pytest.raises(ValueError, match="^a factored target needs the linear head$"):
        ad.training_pass(relu, x_relu, ad.FactoredTarget(us, vx))


def test_factored_pass_is_the_dense_pass_of_its_target():
    # T = W0 X + us vx: the same loss and dY as the dense pass toward it, to
    # rounding, and forward's A X bit for bit; G's factors v and A are X and A.
    model, x, _ = _random_model(LINEAR, 12, 7, 3, 11, seed=30)
    stream = RandomStream(31)
    target = ad.FactoredTarget(stream.normal(12, 2), stream.normal(2, 11))
    dense = model.layer.w0 @ x + target.us @ target.vx
    loss, g = ad.training_pass(model, x, target)
    held = model.layer._memo["ax"]
    want_loss, want = ad.training_pass(model, x, dense)
    assert rel_error(loss, want_loss) < 1e-14 and rel_error(g.u, want.u) < 1e-14
    want_ax = pass_ref.forward(model, x)[1]["ax"]
    np.testing.assert_array_equal(held[2], want_ax)
    assert g.v is x and held[0] is model.layer.a and held[1] is x
    p, qx = ad._p(model.layer, target), ad._qx(model.layer, held[2], target)
    np.testing.assert_array_equal(p, np.hstack((model.layer.s * model.layer.b, -target.us)))
    np.testing.assert_array_equal(qx, np.vstack((want_ax, target.vx)))


def _factored_task(m, seed):
    model, x, _ = _random_model(LINEAR, 64, 12, 3, m, seed=seed)
    stream = RandomStream(seed + 1)
    return model, x, ad.FactoredTarget(stream.normal(64, 2), stream.normal(2, m))


def test_a_factored_pass_is_compressed_past_one_square_chunk():
    # k m = SQUARE_CHUNK keeps the residual P QX; one column more does not.
    m = SQUARE_CHUNK // 64
    model, x, target = _factored_task(m, seed=32)
    _, at = ad.training_pass(model, x, target)
    assert at.u.shape == (64, m) and at.v is x and "v" not in model.layer._memo
    model, x, target = _factored_task(m + 1, seed=32)
    _, past = ad.training_pass(model, x, target)
    assert past.u.shape == (64, 5) and past.v.shape == (12, 5) and past.v is model.layer._memo["v"][2]


def test_compressed_pass_is_the_qr_form_of_the_residual_pass(monkeypatch):
    # A near fit, so P QX cancels to a small residual and the two forms round
    # apart: the loss is ||R_P QX||_F^2 / m and G the factors ((2/m) P, X QX^T)
    # bit for bit, and they meet the residual form within its rounding floor.
    m = SQUARE_CHUNK // 64 + 1
    model, x, _ = _random_model(LINEAR, 64, 12, 3, m, seed=33)
    layer = model.layer
    target = ad.FactoredTarget(layer.s * layer.b, layer.a @ x + 1e-6 * RandomStream(34).normal(3, m))
    loss, g = ad.training_pass(model, x, target)
    p, qx = ad._p(layer, target), ad._qx(layer, layer.a @ x, target)
    assert loss == float(sum_of_squares(np.linalg.qr(p, mode="r") @ qx) / m)
    np.testing.assert_array_equal(g.u, 2.0 / m * p)
    np.testing.assert_array_equal(g.v, x @ qx.T)
    monkeypatch.setattr(ad, "SQUARE_CHUNK", 64 * m)
    want_loss, want = ad.training_pass(model, x, target)
    assert want.u.shape == (64, m) and loss != want_loss
    gap = 8 * np.finfo(np.float64).eps * frobenius(p) * frobenius(qx)  # bounds ||R_P QX - P QX||_F
    assert abs(math.sqrt(m * loss) - math.sqrt(m * want_loss)) <= gap
    assert frobenius(g.g - want.g) <= 2.0 / m * gap * frobenius(x)


def test_the_pass_cache_serves_only_its_a_batch_and_target(monkeypatch):
    # A compressed pass right after one that differs in A, X or the target
    # alone (each swapped for an equal-shaped one), or in none: the bits of
    # a model with no cache.
    monkeypatch.setattr(ad, "SQUARE_CHUNK", 0)
    model, x, target = _factored_task(20, seed=35)
    stream = RandomStream(36)
    other_x = stream.normal(*x.shape)
    other_target = ad.FactoredTarget(stream.normal(*target.us.shape), stream.normal(*target.vx.shape))
    other_a = stream.normal(*model.layer.a.shape)
    for case in ("x", "target", "a", "none"):
        ad.training_pass(model, x, target)
        if case == "a":
            model.layer.a = other_a
        batch, toward = other_x if case == "x" else x, other_target if case == "target" else target
        loss, g = ad.training_pass(model, batch, toward)
        want_loss, want = ad.training_pass(ad.ToyModel(model.layer), batch, toward)
        assert loss == want_loss, case
        np.testing.assert_array_equal(g.u, want.u)
        np.testing.assert_array_equal(g.v, want.v)


def test_a_compressed_run_forms_x_vx_once_and_every_later_v_from_it(monkeypatch):
    # Six altlora steps, B first: the first pass multiplies X QX^T whole and
    # keeps an owned, read-only copy of its vx block; every later pass holds
    # that very entry, and after an A-phase its v is [X (A X)^T, X vx^T], so
    # every later product with X on the left is r wide, not r + r*.
    model, x, target = _factored_task(SQUARE_CHUNK // 64 + 1, seed=39)
    layer, r, vt = model.layer, model.layer.r, RandomStream(40).normal(2, 12)
    state, cfg = optim.make_state(optim.ALTLORA, layer), optim.TrainConfig(eta=0.1, beta1=0.9, order=optim.B_FIRST)
    _, g = ad.training_pass(model, x, target)
    held = layer._memo["xvx"]
    assert held[0] is x and held[1] is target and held[2].base is None and not held[2].flags.writeable
    assert held[2].tobytes() == g.v[:, r:].tobytes()
    real_dot, widths = np.dot, []

    def dot(a, b, *args, **kwargs):
        if a is x:
            widths.append(np.shape(b)[-1])
        return real_dot(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "dot", dot)
    for t in range(6):
        optim.altlora_step(layer, state, g, cfg)
        _, g = ad.training_pass(model, x, target)
        assert layer._memo["xvx"] is held and g.v is layer._memo["v"][2], t
        if optim.update_phase(t, cfg.order) == "a":
            ax = layer._memo["ax"][2]
            assert g.v.tobytes() == np.concatenate((real_dot(x, ax.T), held[2]), axis=-1).tobytes(), t
        ad.factored_norms(layer, target, vt, x)  # the eval row reads the pass's v
        assert layer._memo["xvx"] is held and layer._memo["v"][2] is g.v, t
    assert widths == [r] * 3  # one product per A-phase


@pytest.mark.parametrize("case", ["new target", "copied layer", "rebound alpha"])
def test_a_new_target_a_copied_layer_or_a_rebound_alpha_misses_x_vx(case):
    model, x, target = _factored_task(SQUARE_CHUNK // 64 + 1, seed=40)
    ad.training_pass(model, x, target)
    held = model.layer._memo["xvx"]
    if case == "new target":
        target = ad.FactoredTarget(target.us, target.vx)  # the same arrays, another object
    elif case == "copied layer":
        model = ad.ToyModel(model.layer.copy())
    else:
        model.layer.alpha = model.layer.alpha  # rebinding empties the memo, whatever the value
        assert "xvx" not in model.layer._memo
    _, g = ad.training_pass(model, x, target)
    now = model.layer._memo["xvx"]
    assert now is not held and now[1] is target and now[2] is not held[2]
    whole = np.dot(x, ad._qx(model.layer, np.dot(model.layer.a, x), target).T)  # a miss multiplies X QX^T whole
    assert now[2].tobytes() == held[2].tobytes() and g.v.tobytes() == whole.tobytes()


def test_the_residual_form_keeps_no_x_vx():
    # Below the cut neither the pass nor its eval row stores X vx^T: their X QX^T is multiplied whole.
    model, x, target = _factored_task(SQUARE_CHUNK // 64, seed=41)
    ad.training_pass(model, x, target)
    ad.factored_norms(model.layer, target, RandomStream(42).normal(2, 12), x)
    assert "v" in model.layer._memo and "xvx" not in model.layer._memo


def test_a_factored_target_is_frozen():
    target = ad.FactoredTarget(np.ones((4, 2)), np.ones((2, 3)))
    for name in ("us", "vx"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, name, np.zeros_like(getattr(target, name)))
    np.testing.assert_array_equal(target._neg_us, -np.ones((4, 2)))


def test_linreg_gradient_matches_golden_file():
    stream = RandomStream(9)
    layer = ad.LoraLayer(stream.normal(3, 4), stream.normal(2, 4), stream.normal(3, 2), 3.0)
    model = ad.ToyModel(layer)
    x = stream.normal(4, 6)
    target = stream.normal(3, 6)
    got = ad.training_pass(model, x, target)[1].g
    want = load_matrix(GOLDEN / "linreg_gradient_seed9.txt")
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_relu_gradient_matches_finite_differences():
    stream = RandomStream(11)
    layer = ad.LoraLayer(stream.normal(8, 3), stream.normal(2, 3), stream.normal(8, 2), 2.0)
    model = ad.ToyModel(layer, stream.normal(3, 8))
    x = stream.normal(3, 5)
    target = stream.normal(3, 5)
    got = ad.training_pass(model, x, target)[1].g
    want = fd_merged_gradient(model, x, target)
    assert fd_entrywise_deviation(got, want) < 1e-6


def test_lora_grads_zero_b_stalls_a():
    stream = RandomStream(4)
    layer = ad.LoraLayer(stream.normal(3, 4), stream.normal(2, 4), np.zeros((3, 2)), 2.0)
    grad_a, grad_b = ad.lora_grads(as_gradient(stream.normal(3, 4)), layer)
    assert np.all(grad_a == 0.0)
    assert np.any(grad_b != 0.0)


def test_lora_grads_hand_values():
    g = as_gradient([[2.0, 0.0], [0.0, 3.0]])
    layer_a = _layer(np.zeros((2, 2)), [[0.0, 0.0]], [[1.0], [0.0]], 1.0)
    grad_a, _ = ad.lora_grads(g, layer_a)
    np.testing.assert_array_equal(grad_a, [[2.0, 0.0]])
    layer_b = _layer(np.zeros((2, 2)), [[1.0, 0.0]], [[0.0], [0.0]], 2.0)
    _, grad_b = ad.lora_grads(g, layer_b)
    np.testing.assert_array_equal(grad_b, [[4.0], [0.0]])


def test_lora_grads_match_direct_finite_differences():
    """Chain rule check: factor gradients equal FD of the loss in A and B."""
    stream = RandomStream(13)
    layer = ad.LoraLayer(stream.normal(4, 5), stream.normal(2, 5), stream.normal(4, 2), 3.0)
    model = ad.ToyModel(layer)
    x = stream.normal(5, 7)
    target = stream.normal(4, 7)
    _, g = ad.training_pass(model, x, target)
    grad_a, grad_b = ad.lora_grads(g, layer)

    h = 1e-5

    def loss_with(a=None, b=None):
        probe = ad.LoraLayer(layer.w0, layer.a if a is None else a, layer.b if b is None else b, layer.alpha)
        y, _ = ad.forward(ad.ToyModel(probe), x)
        return ad.mse_loss(y, target)

    fd_a = np.zeros_like(layer.a)
    for i in range(layer.r):
        for j in range(layer.d):
            up, down = layer.a.copy(), layer.a.copy()
            up[i, j] += h
            down[i, j] -= h
            fd_a[i, j] = (loss_with(a=up) - loss_with(a=down)) / (2 * h)
    fd_b = np.zeros_like(layer.b)
    for i in range(layer.k):
        for j in range(layer.r):
            up, down = layer.b.copy(), layer.b.copy()
            up[i, j] += h
            down[i, j] -= h
            fd_b[i, j] = (loss_with(b=up) - loss_with(b=down)) / (2 * h)
    assert fd_entrywise_deviation(grad_a, fd_a) < 1e-6
    assert fd_entrywise_deviation(grad_b, fd_b) < 1e-6


def _random_model(kind, k, d, r, m, seed):
    stream = RandomStream(seed)
    layer = ad.LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), 2.0 * r)
    w2 = stream.normal(3, k) if kind == RELU else None
    model = ad.ToyModel(layer, w2)
    x = stream.normal(d, m)
    target = stream.normal(k if w2 is None else 3, m)
    return model, x, target


@pytest.mark.parametrize("kind", [LINEAR, RELU])
@pytest.mark.parametrize("k, d, r", [(12, 7, 3), (12, 7, 7), (5, 9, 5)])
def test_lora_grads_outer_product_matches_dense(kind, k, d, r):
    model, x, target = _random_model(kind, k, d, r, 11, seed=k + d + r)
    layer = model.layer
    _, g = ad.training_pass(model, x, target)
    dense = g.u @ g.v.T
    grad_a, grad_b = ad.lora_grads(g, layer)
    assert rel_error(grad_a, layer.s * (layer.b.T @ dense)) <= 1e-12
    assert rel_error(grad_b, layer.s * (dense @ layer.a.T)) <= 1e-12
    assert g.g is g.g  # built once, then kept
    np.testing.assert_array_equal(g.g, dense)


@pytest.mark.parametrize("kind", [LINEAR, RELU])
def test_outer_product_grad_a_exactly_zero_when_b_is_zero(kind):
    model, x, target = _random_model(kind, 6, 5, 2, 8, seed=21)
    model.layer.b = np.zeros_like(model.layer.b)
    grad_a, grad_b = ad.lora_grads(ad.training_pass(model, x, target)[1], model.layer)
    assert np.all(grad_a == 0.0)
    assert np.any(grad_b != 0.0)


def test_lora_grads_rejects_mismatched_factors():
    model, x, target = _random_model(LINEAR, 6, 5, 2, 8, seed=22)
    _, g = ad.training_pass(model, x, target)
    with pytest.raises(ad.ShapeMismatch):
        ad.lora_grads(ad.FullGradient(g.u, g.v[:, :-1]), model.layer)
    with pytest.raises(ad.ShapeMismatch):
        ad.lora_grads(ad.FullGradient(g.v, g.u), model.layer)


@pytest.mark.parametrize("form", ["residual", "compressed", "dense"])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "stacked"])
@pytest.mark.parametrize("alpha", [3.0, 7.5], ids=["s=1", "s=2.5"])
def test_lora_grads_is_lora_grad_a_and_lora_grad_b_bit_for_bit(form, lead, alpha):
    # lora_grads checks g and reads s once for both factors; each entry must
    # still give its own kernel's bits, with and without the memo's A X.
    k, d, r, rs = 64, 12, 3, 2
    m = SQUARE_CHUNK // k + (form == "compressed")  # one column past the cut compresses
    stream = RandomStream(38)
    layer = ad.LoraLayer(stream.normal(*lead, k, d), stream.normal(*lead, r, d), stream.normal(*lead, k, r), alpha)
    x = stream.normal(*lead, d, m)
    target = ad.FactoredTarget(stream.normal(*lead, k, rs), stream.normal(*lead, rs, m))
    _, g = ad.training_pass(ad.ToyModel(layer), x, target)
    assert (g.v is x) == (form != "compressed")  # the memo's A X serves grad_b
    if form == "dense":
        g = ad.FullGradient(np.matmul(g.u, g.v.mT), np.broadcast_to(np.eye(d), (*lead, d, d)))
    both = ad.lora_grads(g, layer)
    assert type(both) is tuple and len(both) == 2
    for got, want in zip(both, (ad.lora_grad_a(g, layer), ad.lora_grad_b(g, layer))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("entry", [ad.lora_grads, ad.lora_grad_a, ad.lora_grad_b])
def test_every_gradient_entry_rejects_a_bad_gradient_with_the_same_message(entry):
    model, x, target = _random_model(LINEAR, 6, 5, 2, 8, seed=24)
    _, g = ad.training_pass(model, x, target)
    with pytest.raises(TypeError) as exc:
        entry(g.u @ g.v.T, model.layer)
    assert str(exc.value) == ("a gradient is a FullGradient, not ndarray; "
                              "pass a dense k x d G as FullGradient(G, np.eye(d))")
    for u, v in ((g.u, g.v[:, :-1]), (g.v, g.u), (g.u[:-1], g.v)):
        with pytest.raises(ad.ShapeMismatch) as exc:
            entry(ad.FullGradient(u, v), model.layer)
        assert str(exc.value) == f"gradient factors {u.shape} x {v.shape} vs layer (6, 5)"


def test_the_memo_serves_w0_x_only_for_its_batch_and_base():
    model, x, _ = _random_model(RELU, 12, 7, 3, 9, seed=23)
    fresh, _ = ad.forward(model, x)
    held = model.layer._memo["w0x"]
    assert held[0] is model.layer.w0 and held[1] is x
    cached, _ = ad.forward(model, x)
    assert model.layer._memo["w0x"] is held
    np.testing.assert_array_equal(cached, fresh)
    np.testing.assert_array_equal(cached, pass_ref.forward(model, x)[0])
    other = x + 1.0
    _, z = ad.forward(model, other)
    assert rel_error(z, ad.merged_weight(model.layer) @ other) < 1e-12
    model.layer.w0 = 2.0 * model.layer.w0  # rebound on the same layer, whose memo holds W0 X
    _, z = ad.forward(model, x)
    assert rel_error(z, ad.merged_weight(model.layer) @ x) < 1e-12


def _read_only_arrays() -> dict:
    """Every array a layer, a target and a pass bind or hold, by name, and a batch view's base."""
    stream = RandomStream(29)
    layer = ad.init_layer(stream.normal(16, 12), 4, init_b="gaussian", stream=stream)
    base = stream.normal(2, 12, 8)  # a draw owns its memory, so freezing the batch x freezes it
    x = base[0]
    target = ad.FactoredTarget(stream.normal(16, 2), stream.normal(2, 8))
    model = ad.ToyModel(layer)
    _, g = ad.training_pass(model, x, target)  # residual form
    relu = ad.ToyModel(layer.copy(), stream.normal(3, 16))
    ad.training_pass(relu, x, stream.normal(3, 8))
    wide = ad.ToyModel(ad.init_layer(stream.normal(256, 4), 2, stream=stream))
    wide_x = stream.normal(4, 257)
    _, compressed = ad.training_pass(wide, wide_x, ad.FactoredTarget(stream.normal(256, 1), stream.normal(1, 257)))
    assert compressed.v is wide.layer._memo["v"][2]  # the compressed form ran
    state = optim.make_state(optim.ALTLORA, layer)
    optim.altlora_step(layer, state, g, optim.TrainConfig(eta=0.1, beta1=0.9))
    return {
        "layer.w0": layer.w0, "layer.a": layer.a, "layer.b": layer.b,
        "target.us": target.us, "target.vx": target.vx, "batch": x, "batch base": base,
        "memo w0x": relu.layer._memo["w0x"][2], "memo ax": layer._memo["ax"][2], "memo v": wide.layer._memo["v"][2],
        "compressed g.v": compressed.v, "memo gram": layer._memo["gram"][2], "memo rp": wide.layer._memo["rp"][2],
        "memo xvx": wide.layer._memo["xvx"][2],
    }


@pytest.mark.parametrize("name", ["layer.w0", "layer.a", "layer.b", "target.us", "target.vx", "batch", "batch base",
                                  "memo w0x", "memo ax", "memo v", "compressed g.v", "memo gram", "memo rp",
                                  "memo xvx"])
def test_an_in_place_write_to_a_bound_or_held_array_raises(name):
    array = _read_only_arrays()[name]
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0.0


@pytest.mark.parametrize("name", ["w0", "a", "x"])
def test_a_write_through_the_base_of_a_view_handed_in_raises(name):
    # One operand is a view into a writable stack. Were the stack left
    # writable, a write through it would change the operand under the memo's
    # W0 X or A X, and the next pass would return the loss of the old one.
    stream = RandomStream(30)
    arrays = {"w0": stream.normal(6, 5), "a": stream.normal(2, 5), "b": stream.normal(6, 2), "x": stream.normal(5, 7)}
    base = np.stack((arrays[name], arrays[name]))  # owns its memory
    arrays[name] = base[0]
    model = ad.ToyModel(ad.LoraLayer(arrays["w0"], arrays["a"], arrays["b"], 2.0))
    target = stream.normal(6, 7)
    loss, _ = ad.training_pass(model, arrays["x"], target)
    with pytest.raises(ValueError, match="read-only"):
        base[0] += 1.0
    assert ad.training_pass(model, arrays["x"], target)[0] == loss


def _arrays_in(*items):
    """The ndarrays among items, a FactoredTarget's and a tuple's own arrays included."""
    for item in items:
        if isinstance(item, ad.FactoredTarget):
            yield from (item.us, item.vx, item._neg_us)
        elif isinstance(item, tuple):
            yield from _arrays_in(*item)
        elif isinstance(item, np.ndarray):
            yield item


@pytest.mark.parametrize("form", ["residual", "compressed", "stacked"])
def test_no_returned_or_held_array_shares_memory_with_the_workspace(form):
    # Three passes, each with its eval row and an altlora step (a B-phase, an
    # A-phase, a B-phase): the workspace's buffers are written by every
    # compressed pass, so nothing a caller or the memo keeps may be a view of
    # one. The residual form, whose arrays are small, keeps none.
    k, d, r, rs = 64, 12, 3, 2
    m = SQUARE_CHUNK // k + (form != "residual")  # one column past the cut compresses
    lead = (2,) if form == "stacked" else ()
    stream = RandomStream(37)
    layer = ad.LoraLayer(stream.normal(*lead, k, d), stream.normal(*lead, r, d), stream.normal(*lead, k, r), 2.0)
    x, vt = stream.normal(*lead, d, m), stream.normal(*lead, rs, d)
    target = ad.FactoredTarget(stream.normal(*lead, k, rs), vt @ x)
    model, state = ad.ToyModel(layer), optim.make_state(optim.ALTLORA, layer)
    kept = []
    for _ in range(3):
        loss, g = ad.training_pass(model, x, target)
        row = () if lead else ad.factored_norms(layer, target, vt, x)
        assert all(type(norm) is float for norm in row)
        optim.altlora_step(layer, state, g, optim.TrainConfig(eta=0.1, beta1=0.9))
        kept += [loss, g.u, g.v, layer.a, layer.b, state.ma, state.mb]
    assert sorted(layer._work) == ([] if form == "residual" else ["qx", "rq"])
    assert (type(loss) is float) == (not lead) and "rp" in layer._memo
    work = list(layer._work.values())
    for array in _arrays_in(*kept, *layer._memo.values()):
        assert not any(np.shares_memory(array, buf) for buf in work)


def test_a_compressed_pass_after_a_b_phase_allocates_less_than_one_r_by_m_array():
    # A X and X QX^T are held, QX and R_P QX are written over the workspace and
    # squared there, and the B-phase's new B costs one r' x r' QR of the k x r' P.
    k, d, r, rs = 64, 12, 3, 2
    m = 4 * SQUARE_CHUNK // k
    stream = RandomStream(38)
    layer = ad.LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), 2.0)
    x = stream.normal(d, m)
    target = ad.FactoredTarget(stream.normal(k, rs), stream.normal(rs, m))
    model = ad.ToyModel(layer)
    _, g = ad.training_pass(model, x, target)  # fills the memo and the workspace, as a run's first pass does
    optim.altlora_step(layer, optim.make_state(optim.ALTLORA, layer), g, optim.TrainConfig(eta=0.1))
    assert layer._held("ax", layer.a, x) is not None and layer._held("rp", layer.b, target) is None  # a B-phase
    del g
    tracemalloc.start()
    try:
        _, g = ad.training_pass(model, x, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.u.shape == (k, r + rs)  # the compressed form ran
    assert peak < (r + rs) * m * 8


def test_a_caller_array_becomes_read_only_once_handed_in():
    a = np.ones((2, 4))
    layer = _layer(np.zeros((3, 4)), a, np.zeros((3, 2)), 1.0)
    assert layer.a is a and not a.flags.writeable
    layer.b = np.zeros_like(layer.b)  # rebinding is how a factor changes
    assert not layer.b.flags.writeable


@pytest.mark.parametrize("kind", [LINEAR, RELU])
def test_lora_grads_reuses_forward_ax_bit_for_bit(kind):
    model, x, target = _random_model(kind, 12, 7, 3, 11, seed=25)
    layer = model.layer
    _, g = ad.training_pass(model, x, target)
    held = layer._memo["ax"]
    assert held[0] is layer.a and held[1] is g.v
    cached = ad.lora_grads(g, layer)
    fresh = ad.lora_grads(g, layer.copy())  # a copy's memo is empty
    for got, want in zip(cached, fresh):
        np.testing.assert_array_equal(got, want)
    # the held product is the one used: doubling it doubles grad_b exactly
    layer._memo["ax"] = (layer.a, g.v, 2.0 * held[2])
    doubled = ad.lora_grads(g, layer)
    np.testing.assert_array_equal(doubled[1], 2.0 * fresh[1])


def test_lora_grads_ignores_ax_of_another_a_or_batch():
    model, x, target = _random_model(LINEAR, 12, 7, 3, 11, seed=26)
    layer = model.layer
    _, g = ad.training_pass(model, x, target)
    want = ad.lora_grads(g, layer.copy())[1]
    # a v that is not the X the (here deliberately wrong) product was taken with
    held = layer._memo["ax"] = (layer.a, g.v, 2.0 * layer._memo["ax"][2])
    np.testing.assert_array_equal(ad.lora_grads(ad.FullGradient(g.u, g.v.copy()), layer)[1], want)
    # a step rebinds layer.a, so the product taken at the old A is stale
    cfg = optim.TrainConfig(eta=0.1, order=optim.A_FIRST)
    optim.altlora_step(layer, optim.make_state(optim.ALTLORA, layer), g, cfg)
    assert layer._memo["ax"] is held and held[0] is not layer.a
    stale, fresh = ad.lora_grads(g, layer), ad.lora_grads(g, layer.copy())
    assert not np.array_equal(held[2], layer.a @ x)
    for got, want in zip(stale, fresh):
        np.testing.assert_array_equal(got, want)


# (left, right) operands of every np.dot in forward and lora_grads at the
# benchmark's shapes; ".T" marks the transposed view of a stored array.
_DOT_OPERANDS = [
    # desk low-rank task: k = d = 32, r = 4, m = 128
    ("4x32", "32x128"),  # A X
    ("32x4", "4x128"),  # B (A X)
    ("32x4.T", "32x128"),  # B^T u
    ("4x128", "32x128.T"),  # (s B^T u) v^T
    ("32x128", "4x128.T"),  # u (s A v)^T
    # desk ReLU task: width 128
    ("128x4", "4x128"),
    ("32x128", "128x128"),  # W2 relu(Z)
    ("128x4.T", "128x128"),
    ("128x128", "4x128.T"),
    # wide layer: k = d = 1024, r = 16, m = 4096
    ("16x1024", "1024x4096"),
    ("1024x16", "16x4096"),
    ("1024x16.T", "1024x4096"),
    ("16x4096", "1024x4096.T"),
    ("1024x4096", "16x4096.T"),
]


def _operand(spec, draw, stack=()):
    """A stored array of the spec's shape from ``draw``, behind leading axes ``stack``; ".T": its transpose."""
    rows, cols = (int(n) for n in spec.removesuffix(".T").split("x"))
    m = draw(*stack, rows, cols)
    return m.mT if spec.endswith(".T") else m


# Runs per stack in the stacked platform facts: 2 keeps the 1024 x 4096 operands small.
_RUNS = 2


@pytest.fixture(scope="module")
def draw_once():
    # Drawing the 1024 x 4096 operands costs far more than their products, and
    # four wide cases share them: draw each stored shape once for the module.
    @functools.cache
    def draw(*shape):
        m = RandomStream(27).normal(*shape)
        m.flags.writeable = False  # every case reads the same array
        return m

    return draw


@pytest.mark.parametrize("left, right", _DOT_OPERANDS, ids=[f"{a}@{b}" for a, b in _DOT_OPERANDS])
def test_np_dot_is_bitwise_matmul_at_the_pass_shapes(left, right, draw_once):
    # A platform fact the training pass relies on: np.dot makes the same BLAS
    # call as @, so swapping one for the other changes no output bit; and @ on
    # a stack of such operands gives each slice's 2-D product, so a stack of
    # runs steps as each run would alone.
    a, b = _operand(left, draw_once), _operand(right, draw_once)
    assert np.array_equal(np.dot(a, b), a @ b), f"np.dot differs from @ at {left} @ {right}"
    sa, sb = _operand(left, draw_once, (_RUNS,)), _operand(right, draw_once, (_RUNS,))
    stacked = sa @ sb
    for i in range(_RUNS):
        want = np.dot(sa[i], sb[i])
        assert stacked[i].tobytes() == want.tobytes(), f"stacked @ differs at {left} @ {right}"


# (k, d, r) of the checks that step or form factor gradients from a drawn G:
# the pair and eta-order instances, bzero_stall, the corners of the
# lorapro_x_independence draws, and the largest random instance.
_CHECK_SHAPES = [(16, 32, 4), (8, 12, 2), (1, 1, 1), (32, 1, 1), (1, 32, 1), (32, 32, 6), (64, 64, 8), (9, 64, 8)]


@pytest.mark.parametrize("k, d, r", _CHECK_SHAPES)
def test_identity_factored_gradient_is_bitwise_the_dense_one(k, d, r):
    # The platform fact behind the checks that wrap a drawn G as
    # FullGradient(G, I): its dense form is G, and at s = 1 its factor
    # gradients (B^T G) I and G (A I)^T are B^T G and G A^T, bit for bit.
    stream = RandomStream(32)
    layer = ad.LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), float(r))
    g = stream.normal(k, d)
    full = ad.FullGradient(g, np.eye(d))
    assert full.g.tobytes() == g.tobytes()
    assert ad.lora_grad_a(full, layer).tobytes() == (layer.b.T @ g).tobytes()
    assert ad.lora_grad_b(full, layer).tobytes() == (g @ layer.a.T).tobytes()


# m of every Gram product in damped_gram_inverse at the benchmark's shapes:
# B^T B and A A^T of the desk, ReLU and wide layers, then L^-T L^-1 of r x r
# factors; ".T" marks the transposed view of a stored array.
_GRAM_OPERANDS = ["32x4", "4x32", "4x32.T", "128x4", "4x128", "1024x16", "16x1024", "4x4", "16x16", "6x6.T"]


@pytest.mark.parametrize("spec", _GRAM_OPERANDS)
def test_np_dot_is_bitwise_matmul_at_the_gram_shapes(spec):
    # Same platform fact for the symmetric products m^T m and m m^T, which
    # both np.dot and @ send to BLAS syrk: one exactly symmetric result.
    m = _operand(spec, RandomStream(28).normal)
    for got, want in ((np.dot(m.T, m), m.T @ m), (np.dot(m, m.T), m @ m.T)):
        assert np.array_equal(got, want), f"np.dot differs from @ for the Gram of {spec}"
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize("spec", _GRAM_OPERANDS)
def test_stacked_syrk_gram_is_bitwise_each_slice_np_dot_gram(spec):
    # damped_gram_inverse forms m.mT @ m (or m @ m.mT) and linv.mT @ linv with
    # @ on one run or a stack: each slice must be np.dot's syrk Gram, symmetric.
    stack = _operand(spec, RandomStream(29).normal, (_RUNS,))
    pairs = ((stack.mT @ stack, lambda m: np.dot(m.T, m)), (stack @ stack.mT, lambda m: np.dot(m, m.T)))
    for got, one in pairs:
        for i in range(_RUNS):
            assert got[i].tobytes() == one(stack[i]).tobytes(), f"stacked Gram differs at {spec}"
            assert np.array_equal(got[i], got[i].T)


@pytest.mark.parametrize("r", [4, 6, 16])
def test_batched_cholesky_and_inverse_are_bitwise_per_slice(r):
    # The r x r Grams of the desk, the test and the wide layers, factored and
    # inverted as a stack and slice by slice.
    m = RandomStream(30).normal(3, 4 * r, r)
    gram = m.mT @ m
    lo = np.linalg.cholesky(gram)
    linv = np.linalg.inv(lo)
    for i in range(3):
        want = np.linalg.cholesky(gram[i])
        assert lo[i].tobytes() == want.tobytes(), f"batched cholesky differs at r = {r}"
        assert linv[i].tobytes() == np.linalg.inv(lo[i]).tobytes(), f"batched inv differs at r = {r}"
        assert gram.trace(0, -2, -1)[i] == np.trace(gram[i])


# (rows, cols) of the QR factorizations of the stacked checks: B and A^T of
# the gauge check (k = 12, d = 20, r = 3) and of the pair instances (k = 16,
# d = 32, r = 4); ".T" marks the transposed view of a stored array, as
# projector's row space takes it.
_QR_OPERANDS = ["12x3", "20x3", "16x4", "32x4", "3x20.T", "4x32.T"]


@pytest.mark.parametrize("spec", _QR_OPERANDS)
def test_stacked_qr_projector_and_solve_are_bitwise_per_slice(spec):
    # projector factors a stack with one np.linalg.qr and forms Q Q^T with @,
    # and the gauge check solves R A2 = A1 for a stack of gauges: each slice
    # must be its 2-D result.
    stack = _operand(spec, RandomStream(33).normal, (3,))
    q, r = np.linalg.qr(stack)
    p = q @ q.mT
    cols = stack.shape[-1]
    gauge, rhs = RandomStream(34).normal(3, cols, cols), RandomStream(35).normal(3, cols, stack.shape[-2])
    solved = np.linalg.solve(gauge, rhs)
    for i in range(3):
        q1, r1 = np.linalg.qr(stack[i])
        assert q[i].tobytes() == q1.tobytes() and r[i].tobytes() == r1.tobytes(), f"stacked qr differs at {spec}"
        assert p[i].tobytes() == (q1 @ q1.T).tobytes(), f"stacked Q Q^T differs at {spec}"
        assert solved[i].tobytes() == np.linalg.solve(gauge[i], rhs[i]).tobytes(), f"stacked solve differs at {spec}"


# (runs, rows, cols) of the per-slice reductions: the losses of the checks'
# and the desk runs' residuals, the checks' merged weights, whose twins
# are read as every other slice of a stack, and the stacked checks' norms
# (the probes, the pair terms and the gauge check's projectors).
_REDUCED = ["10x16x128", "10x32x128", "3x128x128", "10x16x32", "20x16x32::2", "15x4x32", "15x16x32", "15x12x12",
            "15x20x20"]


@pytest.mark.parametrize("spec", _REDUCED)
def test_per_slice_reduction_is_bitwise_the_2d_reduction(spec):
    shape, _, step = spec.partition("::")
    stack = RandomStream(31).normal(*(int(n) for n in shape.split("x")))[:: int(step or 1)]
    got = np.add.reduce(np.square(stack), axis=(-2, -1))
    for i, m in enumerate(stack):
        assert got[i] == np.add.reduce(np.square(m), axis=None), f"per-slice sum of squares differs at {spec}"
        assert got[i] == np.add.reduce(np.square(m), axis=(-2, -1))


@pytest.mark.parametrize("kind", [LINEAR, RELU])
def test_training_pass_never_forms_a_k_by_d_array(kind):
    k = d = 1024
    r, m = 4, 64
    stream = RandomStream(24)
    layer = ad.init_layer(stream.normal(k, d), r, init_b="gaussian", stream=stream)
    w2 = stream.normal(8, k) if kind == RELU else None
    model = ad.ToyModel(layer, w2)
    x = stream.normal(d, m)
    target = stream.normal(k if w2 is None else 8, m)
    ad.training_pass(model, x, target)  # warms the memo, as the run's first pass does
    tracemalloc.start()
    try:
        _, g = ad.training_pass(model, x, target)
        ad.lora_grads(g, layer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < k * d * 8  # one k x d float64 array


def test_linear_pass_holds_no_k_by_m_temporary_beyond_z():
    # The loss reduces the residual Z - T (forward's Z, in place) through one
    # chunk of squares, not a k x m array of them.
    k = d = 256
    r, m = 8, 4 * d
    stream = RandomStream(26)
    layer = ad.init_layer(stream.normal(k, d), r, init_b="gaussian", stream=stream)
    model = ad.ToyModel(layer)
    x, target = stream.normal(d, m), stream.normal(k, m)
    ad.training_pass(model, x, target)  # warms the memo, as the run's first pass does
    tracemalloc.start()
    try:
        ad.training_pass(model, x, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (k * m + SQUARE_CHUNK + 2 * r * m) * 8  # Z, one chunk, A X and slack


def test_relu_backward_forms_one_k_by_m_float_array():
    # Desk ReLU head: width k = 128, m = 128 columns, so a k x m float64 array
    # is 128 KiB, below the size at which numpy reuses a temporary operand in
    # place. dZ = (W2^T dY) * mask must be formed in place: the peak then holds
    # dZ, the bool mask, the out x m residual dY and numpy's bool-to-float64
    # cast buffer, while a separate product would add a second k x m array.
    k, d, r, m, out = 128, 32, 4, 128, 32
    stream = RandomStream(25)
    layer = ad.init_layer(stream.normal(k, d), r, init_b="gaussian", stream=stream)
    model = ad.ToyModel(layer, stream.normal(out, k))
    x = stream.normal(d, m)
    target = stream.normal(out, m)
    y, z = ad.forward(model, x)
    tracemalloc.start()
    try:
        ad._backward(model, x, ad._residual(y, target), z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * k * m * 8


def test_merged_weight_basics():
    stream = RandomStream(1)
    w0 = stream.normal(3, 4)
    zero_b = ad.LoraLayer(w0, stream.normal(2, 4), np.zeros((3, 2)), 2.0)
    np.testing.assert_array_equal(ad.merged_weight(zero_b), w0)
    rank1 = _layer(np.zeros((2, 2)), [[1.0, 2.0]], [[1.0], [1.0]], 1.0)
    np.testing.assert_array_equal(ad.merged_weight(rank1), [[1.0, 2.0], [1.0, 2.0]])


def test_merged_weight_consistent_with_forward_on_identity():
    stream = RandomStream(5)
    layer = ad.LoraLayer(stream.normal(4, 4), stream.normal(2, 4), stream.normal(4, 2), 2.0)
    model = ad.ToyModel(layer)
    y, _ = ad.forward(model, np.eye(4))
    assert rel_error(y, ad.merged_weight(layer)) < 1e-12


def test_init_policies():
    stream = RandomStream(6)
    w0 = stream.normal(16, 12)
    layer = ad.init_layer(w0, r=3, seed=6)
    assert np.all(layer.b == 0.0)
    assert layer.a.shape == (3, 12)
    assert layer.s == 1.0  # alpha defaults to r
    spectral = ad.init_layer(w0, r=3, init_a="spectral", init_b="spectral", seed=6)
    # spectral rows/columns are orthonormal singular vectors of w0
    np.testing.assert_allclose(spectral.a @ spectral.a.T, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(spectral.b.T @ spectral.b, np.eye(3), atol=1e-10)
    u, s, vt = np.linalg.svd(w0)
    np.testing.assert_allclose(np.abs(np.diag(spectral.a @ vt[:3].T)), np.ones(3), atol=1e-8)
    gauss = ad.init_layer(w0, r=3, init_a="gaussian", init_b="gaussian", seed=7)
    assert gauss.a.std() < 1.0  # fan-in scaled


def test_init_layer_binds_a_float64_w0_as_it_is():
    w0 = RandomStream(8).normal(6, 5)
    layer = ad.init_layer(w0, r=2, seed=8)
    assert layer.w0 is w0 and not w0.flags.writeable  # frozen in place, not copied
    listed = ad.init_layer([[1, 2, 3], [4, 5, 6]], r=1, seed=8)
    assert listed.w0.dtype == np.float64 and np.array_equal(listed.w0, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ad.ShapeMismatch, match=r"w0: expected a 2-D matrix, got shape \(3,\)"):
        ad.init_layer(np.ones(3), r=1)
    with pytest.raises(ValueError, match=r"w0: entries must be finite"):
        ad.init_layer(np.array([[1.0, np.nan], [0.0, 1.0]]), r=1)


def test_shape_validation():
    with pytest.raises(ad.ShapeMismatch):
        ad.LoraLayer(np.zeros((3, 4)), np.zeros((2, 5)), np.zeros((3, 2)), 1.0)
    with pytest.raises(ad.ShapeMismatch):
        ad.LoraLayer(np.zeros((3, 4)), np.zeros((5, 4)), np.zeros((3, 5)), 1.0)  # r > min(k, d)
    layer = ad.LoraLayer(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((3, 2)), 1.0)
    model = ad.ToyModel(layer)
    with pytest.raises(ad.ShapeMismatch):
        ad.forward(model, np.zeros((5, 2)))
    with pytest.raises(ad.ShapeMismatch):
        ad.lora_grads(as_gradient(np.zeros((4, 4))), layer)


@pytest.mark.parametrize("w0, a, b, match", [
    ((4,), (2, 4), (3, 2), r"^factor shapes \(3, 2\) x \(2, 4\) do not match base \(4,\)"),
    ((3, 4), (4,), (3, 2), r"^factor shapes \(3, 2\) x \(4,\) do not match base \(3, 4\)"),
    ((3, 4), (0, 4), (3, 0), r"^rank 0 of factors \(3, 0\) x \(0, 4\) is not in 1..min\(k, d\) = 3"),
])
def test_layer_rejects_a_malformed_base_or_factor(w0, a, b, match):
    with pytest.raises(ad.ShapeMismatch, match=match):
        ad.LoraLayer(np.zeros(w0), np.zeros(a), np.zeros(b), 1.0)


def test_a_second_layer_must_compose_with_the_width():
    layer = ad.LoraLayer(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((3, 2)), 1.0)
    assert ad.ToyModel(layer).w2 is None
    assert ad.ToyModel(layer, [[1, 2, 3]]).w2.dtype == np.float64
    with pytest.raises(ad.ShapeMismatch, match=r"^second layer \(3, 2\) does not compose with width 3$"):
        ad.ToyModel(layer, np.zeros((3, 2)))
