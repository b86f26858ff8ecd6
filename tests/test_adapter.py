"""Layer and toy-model tests: forward, manual backward, factor gradients."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pass_reference as pass_ref
import scalar_reference as ref
from altlora import adapter as ad
from altlora import optim
from altlora.matcore import RandomStream, rel_error
from altlora.oracle import fd_entrywise_deviation, fd_merged_gradient
from matrix_text import load_matrix

GOLDEN = Path(__file__).parent / "golden"


def _layer(w0, a, b, alpha):
    return ad.LoraLayer(np.asarray(w0, float), np.asarray(a, float), np.asarray(b, float), alpha)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_layer_rejects_an_alpha_that_is_not_positive_and_finite(alpha):
    with pytest.raises(ValueError, match="^alpha must be positive and finite"):
        _layer(np.eye(2), [[0.3, -0.7]], np.zeros((2, 1)), alpha)


def test_forward_zero_b_passes_base_weight_through():
    layer = _layer(np.eye(2), [[0.3, -0.7]], np.zeros((2, 1)), 1.0)
    model = ad.ToyModel(ad.LINEAR_REGRESSION, layer)
    y, _ = ad.forward(model, np.eye(2))
    np.testing.assert_array_equal(y, np.eye(2))


def test_forward_scaled_product():
    # s = alpha / r = 2
    layer = _layer(np.zeros((2, 2)), [[1.0, 0.0]], [[1.0], [0.0]], 2.0)
    model = ad.ToyModel(ad.LINEAR_REGRESSION, layer)
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
    return ad.ToyModel(ad.TWO_LAYER_RELU, layer, w2=w2), x


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
    model = ad.ToyModel(ad.LINEAR_REGRESSION, layer)
    x = stream.normal(4, 5)
    y, _ = ad.forward(model, x)
    _, g = ad.training_pass(model, x, y)
    np.testing.assert_array_equal(g.g, np.zeros((3, 4)))


def test_full_gradient_linear_least_squares_form():
    # W = 0, X = I: G = -(2/m) T
    layer = _layer(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 1)), 1.0)
    model = ad.ToyModel(ad.LINEAR_REGRESSION, layer)
    x = np.eye(2)
    target = np.array([[1.0, -2.0], [0.5, 3.0]])
    g = ad.training_pass(model, x, target)[1].g
    np.testing.assert_allclose(g, -(2.0 / 2.0) * target, atol=0)


@pytest.mark.parametrize("kind", [ad.LINEAR_REGRESSION, ad.TWO_LAYER_RELU])
def test_training_pass_is_forward_loss_and_gradient_bit_for_bit(kind):
    model, x, target = _random_model(kind, 12, 7, 3, 11, seed=26)
    y, cache = pass_ref.forward(model, x)
    loss = pass_ref.mse_loss(y, target)
    g = pass_ref.full_gradient(model, x, target, cache)[0]
    got_loss, got = ad.training_pass(model, x, target)
    assert got_loss == loss
    np.testing.assert_array_equal(got.u, g.u)
    np.testing.assert_array_equal(got.ax[2], g.ax[2])
    assert got.v is x and got.ax[0] is model.layer.a and got.ax[1] is x


def test_training_pass_rejects_a_target_it_would_broadcast():
    model, x, target = _random_model(ad.LINEAR_REGRESSION, 6, 5, 2, 8, seed=27)
    for bad in (target[:1], target[:, :1]):
        with pytest.raises(ad.ShapeMismatch):
            ad.training_pass(model, x, bad)


def test_linreg_gradient_matches_golden_file():
    stream = RandomStream(9)
    layer = ad.LoraLayer(stream.normal(3, 4), stream.normal(2, 4), stream.normal(3, 2), 3.0)
    model = ad.ToyModel(ad.LINEAR_REGRESSION, layer)
    x = stream.normal(4, 6)
    target = stream.normal(3, 6)
    got = ad.training_pass(model, x, target)[1].g
    want = load_matrix(GOLDEN / "linreg_gradient_seed9.txt")
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_relu_gradient_matches_finite_differences():
    stream = RandomStream(11)
    layer = ad.LoraLayer(stream.normal(8, 3), stream.normal(2, 3), stream.normal(8, 2), 2.0)
    model = ad.ToyModel(ad.TWO_LAYER_RELU, layer, w2=stream.normal(3, 8))
    x = stream.normal(3, 5)
    target = stream.normal(3, 5)
    got = ad.training_pass(model, x, target)[1].g
    want = fd_merged_gradient(model, x, target)
    assert fd_entrywise_deviation(got, want) < 1e-6


def test_lora_grads_zero_b_stalls_a():
    stream = RandomStream(4)
    layer = ad.LoraLayer(stream.normal(3, 4), stream.normal(2, 4), np.zeros((3, 2)), 2.0)
    grad_a, grad_b = ad.lora_grads(stream.normal(3, 4), layer)
    assert np.all(grad_a == 0.0)
    assert np.any(grad_b != 0.0)


def test_lora_grads_hand_values():
    g = np.array([[2.0, 0.0], [0.0, 3.0]])
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
    model = ad.ToyModel(ad.LINEAR_REGRESSION, layer)
    x = stream.normal(5, 7)
    target = stream.normal(4, 7)
    _, g = ad.training_pass(model, x, target)
    grad_a, grad_b = ad.lora_grads(g, layer)

    h = 1e-5

    def loss_with(a=None, b=None):
        probe = ad.LoraLayer(layer.w0, layer.a if a is None else a, layer.b if b is None else b, layer.alpha)
        y, _ = ad.forward(ad.ToyModel(ad.LINEAR_REGRESSION, probe), x)
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
    w2 = stream.normal(3, k) if kind == ad.TWO_LAYER_RELU else None
    model = ad.ToyModel(kind, layer, w2=w2)
    x = stream.normal(d, m)
    target = stream.normal(k if w2 is None else 3, m)
    return model, x, target


@pytest.mark.parametrize("kind", [ad.LINEAR_REGRESSION, ad.TWO_LAYER_RELU])
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
    dense_a, dense_b = ad.lora_grads(g.g, layer)
    assert rel_error(grad_a, dense_a) <= 1e-12 and rel_error(grad_b, dense_b) <= 1e-12


@pytest.mark.parametrize("kind", [ad.LINEAR_REGRESSION, ad.TWO_LAYER_RELU])
def test_outer_product_grad_a_exactly_zero_when_b_is_zero(kind):
    model, x, target = _random_model(kind, 6, 5, 2, 8, seed=21)
    model.layer.b[:] = 0.0
    grad_a, grad_b = ad.lora_grads(ad.training_pass(model, x, target)[1], model.layer)
    assert np.all(grad_a == 0.0)
    assert np.any(grad_b != 0.0)


def test_lora_grads_rejects_mismatched_factors():
    model, x, target = _random_model(ad.LINEAR_REGRESSION, 6, 5, 2, 8, seed=22)
    _, g = ad.training_pass(model, x, target)
    with pytest.raises(ad.ShapeMismatch):
        ad.lora_grads(ad.FullGradient(g.u, g.v[:, :-1]), model.layer)
    with pytest.raises(ad.ShapeMismatch):
        ad.lora_grads(ad.FullGradient(g.v, g.u), model.layer)


def test_cached_base_product_serves_only_its_batch_and_base():
    model, x, _ = _random_model(ad.TWO_LAYER_RELU, 12, 7, 3, 9, seed=23)
    fresh, _ = ad.forward(model, x)
    model.cache_base(x)
    cached, _ = ad.forward(model, x)
    np.testing.assert_array_equal(cached, fresh)
    other = x + 1.0
    got, cache = ad.forward(model, other)
    assert rel_error(cache["z"], ad.merged_weight(model.layer) @ other) < 1e-12
    layer = model.layer
    model.layer = ad.LoraLayer(2.0 * layer.w0, layer.a, layer.b, layer.alpha)
    _, cache = ad.forward(model, x)
    assert rel_error(cache["z"], ad.merged_weight(model.layer) @ x) < 1e-12


@pytest.mark.parametrize("kind", [ad.LINEAR_REGRESSION, ad.TWO_LAYER_RELU])
def test_lora_grads_reuses_forward_ax_bit_for_bit(kind):
    model, x, target = _random_model(kind, 12, 7, 3, 11, seed=25)
    layer = model.layer
    _, g = ad.training_pass(model, x, target)
    assert g.ax[0] is layer.a and g.ax[1] is g.v
    cached = ad.lora_grads(g, layer)
    fresh = ad.lora_grads(ad.FullGradient(g.u, g.v), layer)
    for got, want in zip(cached, fresh):
        np.testing.assert_array_equal(got, want)
    # the carried product is the one used: doubling it doubles grad_b exactly
    doubled = ad.lora_grads(ad.FullGradient(g.u, g.v, (layer.a, g.v, 2.0 * g.ax[2])), layer)
    np.testing.assert_array_equal(doubled[1], 2.0 * fresh[1])


def test_lora_grads_ignores_ax_of_another_a_or_batch():
    model, x, target = _random_model(ad.LINEAR_REGRESSION, 12, 7, 3, 11, seed=26)
    layer = model.layer
    _, g = ad.training_pass(model, x, target)
    # a v that is not the X the (here deliberately wrong) product was taken with
    other_v = ad.FullGradient(g.u, g.v.copy(), (layer.a, g.v, 2.0 * g.ax[2]))
    want = ad.lora_grads(ad.FullGradient(g.u, g.v), layer)[1]
    np.testing.assert_array_equal(ad.lora_grads(other_v, layer)[1], want)
    # a step rebinds layer.a, so the product taken at the old A is stale
    cfg = optim.TrainConfig(eta=0.1, order=optim.A_FIRST)
    optim.altlora_step(layer, optim.make_state(optim.ALTLORA, layer), g, cfg)
    assert g.ax[0] is not layer.a
    stale, fresh = ad.lora_grads(g, layer), ad.lora_grads(ad.FullGradient(g.u, g.v), layer)
    assert not np.array_equal(g.ax[2], layer.a @ x)
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


def _operand(spec, stream, stack=()):
    """A stored array of the spec's shape, behind leading axes ``stack``; ".T" gives its transposed view."""
    rows, cols = (int(n) for n in spec.removesuffix(".T").split("x"))
    m = stream.normal(*stack, rows, cols)
    return m.mT if spec.endswith(".T") else m


# Runs per stack in the stacked platform facts: 2 keeps the 1024 x 4096 operands small.
_RUNS = 2


@pytest.mark.parametrize("left, right", _DOT_OPERANDS, ids=[f"{a}@{b}" for a, b in _DOT_OPERANDS])
def test_np_dot_is_bitwise_matmul_at_the_pass_shapes(left, right):
    # A platform fact the training pass relies on: np.dot makes the same BLAS
    # call as @, so swapping one for the other changes no output bit; and @ on
    # a stack of such operands gives each slice's 2-D product, so a stack of
    # runs steps as each run would alone.
    stream = RandomStream(27)
    a, b = _operand(left, stream), _operand(right, stream)
    assert np.array_equal(np.dot(a, b), a @ b), f"np.dot differs from @ at {left} @ {right}"
    sa, sb = _operand(left, stream, (_RUNS,)), _operand(right, stream, (_RUNS,))
    stacked = sa @ sb
    for i in range(_RUNS):
        want = np.dot(sa[i], sb[i])
        assert stacked[i].tobytes() == want.tobytes(), f"stacked @ differs at {left} @ {right}"


# m of every Gram product in damped_gram_inverse at the benchmark's shapes:
# B^T B and A A^T of the desk, ReLU and wide layers, then L^-T L^-1 of r x r
# factors; ".T" marks the transposed view of a stored array.
_GRAM_OPERANDS = ["32x4", "4x32", "4x32.T", "128x4", "4x128", "1024x16", "16x1024", "4x4", "16x16", "6x6.T"]


@pytest.mark.parametrize("spec", _GRAM_OPERANDS)
def test_np_dot_is_bitwise_matmul_at_the_gram_shapes(spec):
    # Same platform fact for the symmetric products m^T m and m m^T, which
    # both np.dot and @ send to BLAS syrk: one exactly symmetric result.
    m = _operand(spec, RandomStream(28))
    for got, want in ((np.dot(m.T, m), m.T @ m), (np.dot(m, m.T), m @ m.T)):
        assert np.array_equal(got, want), f"np.dot differs from @ for the Gram of {spec}"
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize("spec", _GRAM_OPERANDS)
def test_stacked_syrk_gram_is_bitwise_each_slice_np_dot_gram(spec):
    # damped_gram_inverse forms m.mT @ m (or m @ m.mT) and linv.mT @ linv with
    # @ on one run or a stack: each slice must be np.dot's syrk Gram, symmetric.
    stack = _operand(spec, RandomStream(29), (_RUNS,))
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


# (runs, rows, cols) of the per-slice reductions: the losses of the checks'
# and the desk runs' residuals, and the checks' merged weights, whose twins
# are read as every other slice of a stack.
_REDUCED = ["10x16x128", "10x32x128", "3x128x128", "10x16x32", "20x16x32::2"]


@pytest.mark.parametrize("spec", _REDUCED)
def test_per_slice_reduction_is_bitwise_the_2d_reduction(spec):
    shape, _, step = spec.partition("::")
    stack = RandomStream(31).normal(*(int(n) for n in shape.split("x")))[:: int(step or 1)]
    got = np.add.reduce(np.square(stack), axis=(-2, -1))
    for i, m in enumerate(stack):
        assert got[i] == np.add.reduce(np.square(m), axis=None), f"per-slice sum of squares differs at {spec}"
        assert got[i] == np.add.reduce(np.square(m), axis=(-2, -1))


@pytest.mark.parametrize("kind", [ad.LINEAR_REGRESSION, ad.TWO_LAYER_RELU])
def test_training_pass_never_forms_a_k_by_d_array(kind):
    k = d = 1024
    r, m = 4, 64
    stream = RandomStream(24)
    layer = ad.init_layer(stream.normal(k, d), r, init_b="gaussian", stream=stream)
    w2 = stream.normal(8, k) if kind == ad.TWO_LAYER_RELU else None
    model = ad.ToyModel(kind, layer, w2=w2)
    x = stream.normal(d, m)
    target = stream.normal(k if w2 is None else 8, m)
    model.cache_base(x)
    tracemalloc.start()
    try:
        _, g = ad.training_pass(model, x, target)
        ad.lora_grads(g, layer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < k * d * 8  # one k x d float64 array


def test_relu_backward_forms_one_k_by_m_float_array():
    # Desk ReLU head: width k = 128, m = 128 columns, so a k x m float64 array
    # is 128 KiB, below the size at which numpy reuses a temporary operand in
    # place. dZ = (W2^T dY) * mask must be formed in place: the peak then holds
    # dZ, the bool mask, the out x m residual dY and numpy's bool-to-float64
    # cast buffer, while a separate product would add a second k x m array.
    k, d, r, m, out = 128, 32, 4, 128, 32
    stream = RandomStream(25)
    layer = ad.init_layer(stream.normal(k, d), r, init_b="gaussian", stream=stream)
    model = ad.ToyModel(ad.TWO_LAYER_RELU, layer, w2=stream.normal(out, k))
    x = stream.normal(d, m)
    target = stream.normal(out, m)
    model.cache_base(x)
    y, cache = ad.forward(model, x)
    tracemalloc.start()
    try:
        ad._backward(model, x, ad._residual(y, target), cache)
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
    model = ad.ToyModel(ad.LINEAR_REGRESSION, layer)
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


def test_shape_validation():
    with pytest.raises(ad.ShapeMismatch):
        ad.LoraLayer(np.zeros((3, 4)), np.zeros((2, 5)), np.zeros((3, 2)), 1.0)
    with pytest.raises(ad.ShapeMismatch):
        ad.LoraLayer(np.zeros((3, 4)), np.zeros((5, 4)), np.zeros((3, 5)), 1.0)  # r > min(k, d)
    layer = ad.LoraLayer(np.zeros((3, 4)), np.zeros((2, 4)), np.zeros((3, 2)), 1.0)
    model = ad.ToyModel(ad.LINEAR_REGRESSION, layer)
    with pytest.raises(ad.ShapeMismatch):
        ad.forward(model, np.zeros((5, 2)))
    with pytest.raises(ad.ShapeMismatch):
        ad.lora_grads(np.zeros((4, 4)), layer)
