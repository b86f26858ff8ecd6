"""Property tests: the four closed forms of optim against independent solves.

Over drawn shapes (up to r = min(k, d)), scales s in [1e-3, 1e3] and factors
with one direction shrunk toward singular, each of scaled_grad_a/b and
align_momentum_a/b must match
- at lam = 0, the least-squares minimizer from oracle.lstsq_oracle;
- at lam in (0, 1], the damped normal equations, solved here with
  np.linalg.solve.

The tolerance is the forward-error bound of a normal-equations solve,
C * kappa(Gram) * eps * (1 + rho), with one constant C for every form.
rho = ||T|| / (||Y||_2 ||Z||) for the least-squares problem min ||Y Z - T||
that the form solves: a right-hand side Y^T T formed in floating point
carries rounding of size eps ||Y|| ||T||, which only rho relates to the
answer Z. It matters for the momentum forms, whose target is not in the
new factor's span (draws measured up to 700 kappa eps without it).

The unit-scale shortcut: forward, the factored lora_grads and
scaled_grad_a skip the scale s = alpha / r when it is 1.0. Over inputs
holding -0.0, +-inf and NaN, each must give the bits of the earlier
formulas in pass_reference, which always apply s, both at alpha = r and
at other alphas.

The loss past one chunk: sum_of_squares squares a residual larger than
SQUARE_CHUNK entries a chunk at a time. Over drawn shapes of up to three
chunks, magnitudes and specials, the loss must keep the bits of squaring
the whole residual and summing it with numpy.

The carried Gram inverse: with momentum, every alternating phase after
the first takes the fixed factor's inverse from the previous realignment.
Over drawn shapes, scales, damping and orders it must hold the bits of a
fresh damped_gram_inverse of that factor.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import pass_reference as pass_ref  # noqa: E402
from altlora import adapter as ad  # noqa: E402
from altlora import optim  # noqa: E402
from altlora.matcore import (  # noqa: E402
    PIVOT_RTOL,
    SQUARE_CHUNK,
    RandomStream,
    SingularGram,
    damped_gram_inverse,
    frobenius,
    rel_error,
)
from altlora.oracle import (  # noqa: E402
    LEFT_FACTOR,
    MOMENTUM_A,
    MOMENTUM_B,
    RIGHT_FACTOR,
    SingularSystem,
    lstsq_oracle,
)

# 6000 random draws per form reached 1.4 of the bound at C = 1
C = 16.0
EPS = np.finfo(np.float64).eps
# Grams nearer singular than this are the library's SingularGram by design
# (pivots below PIVOT_RTOL * trace), not a closed form to compare.
KAPPA_MAX = 1e-2 / PIVOT_RTOL
PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def problems(draw):
    """(stream, k, d, r, s, shrink) for one instance."""
    k = draw(st.integers(1, 12))
    d = draw(st.integers(1, 12))
    r = draw(st.integers(1, min(k, d)))
    s = draw(st.floats(1e-3, 1e3))
    shrink = draw(st.floats(1e-3, 1.0))
    return RandomStream(draw(st.integers(0, 2**31 - 1))), k, d, r, s, shrink


def _near_singular(stream, rows, cols, shrink, axis):
    """Gaussian factor whose first column (axis=1) or row (axis=0) is scaled by shrink."""
    y = stream.normal(rows, cols)
    y[(slice(None), 0) if axis == 1 else 0] *= shrink
    return y


# Each form returns (library call at lam, Gram it inverts, zero-damping oracle,
# damped reference given the damped Gram, design Y, target T).


def _scaled_grad_a(stream, k, d, r, s, shrink):
    b, g = _near_singular(stream, k, r, shrink, axis=1), stream.normal(k, d)
    grad_a = s * (b.T @ g)
    return (
        lambda lam: optim.scaled_grad_a(grad_a, b, s, lam),
        b.T @ b,
        lambda: lstsq_oracle(LEFT_FACTOR, b=b, g=g, s=s),
        lambda gram: np.linalg.solve(gram, grad_a) / (s * s),
        s * b,
        g,
    )


def _scaled_grad_b(stream, k, d, r, s, shrink):
    a, g = _near_singular(stream, r, d, shrink, axis=0), stream.normal(k, d)
    grad_b = s * (g @ a.T)
    return (
        lambda lam: optim.scaled_grad_b(grad_b, a, s, lam),
        a @ a.T,
        lambda: lstsq_oracle(RIGHT_FACTOR, a=a, g=g, s=s),
        lambda gram: np.linalg.solve(gram, grad_b.T).T / (s * s),
        s * a,
        g,
    )


def _align_momentum_a(stream, k, d, r, s, shrink):
    ma, b_old = stream.normal(r, d), stream.normal(k, r)
    b_new = _near_singular(stream, k, r, shrink, axis=1)
    return (
        lambda lam: optim.align_momentum_a(ma, b_old, b_new, lam),
        b_new.T @ b_new,
        lambda: lstsq_oracle(MOMENTUM_A, ma=ma, b_old=b_old, b_new=b_new),
        lambda gram: np.linalg.solve(gram, b_new.T @ (b_old @ ma)),
        b_new,
        b_old @ ma,
    )


def _align_momentum_b(stream, k, d, r, s, shrink):
    mb, a_old = stream.normal(k, r), stream.normal(r, d)
    a_new = _near_singular(stream, r, d, shrink, axis=0)
    return (
        lambda lam: optim.align_momentum_b(mb, a_old, a_new, lam),
        a_new @ a_new.T,
        lambda: lstsq_oracle(MOMENTUM_B, mb=mb, a_old=a_old, a_new=a_new),
        lambda gram: np.linalg.solve(gram, a_new @ (mb @ a_old).T).T,
        a_new,
        mb @ a_old,
    )


FORMS = {
    "scaled_grad_a": _scaled_grad_a,
    "scaled_grad_b": _scaled_grad_b,
    "align_momentum_a": _align_momentum_a,
    "align_momentum_b": _align_momentum_b,
}


def _tolerance(kappa, y, t, z):
    rho = frobenius(t) / (np.linalg.norm(y, 2) * frobenius(z))
    return C * kappa * EPS * (1.0 + rho)


@pytest.mark.parametrize("form", sorted(FORMS))
@PROPERTY
@given(problem=problems())
def test_closed_form_is_the_lstsq_minimizer_at_zero_damping(form, problem):
    got, gram, oracle, _, y, t = FORMS[form](*problem)
    try:
        want = oracle()
    except SingularSystem:
        reject()
    kappa = np.linalg.cond(gram)
    assume(kappa <= KAPPA_MAX)
    assert rel_error(got(0.0), want) <= _tolerance(kappa, y, t, want)


@pytest.mark.parametrize("form", sorted(FORMS))
@PROPERTY
@given(problem=problems(), lam=st.floats(0.0, 1.0, exclude_min=True))
def test_closed_form_solves_the_damped_normal_equations(form, problem, lam):
    got, gram, _, solve, y, t = FORMS[form](*problem)
    damped = gram + lam * np.eye(len(gram))
    kappa = np.linalg.cond(damped)
    assume(kappa <= KAPPA_MAX)
    want = solve(damped)
    assert rel_error(got(lam), want) <= _tolerance(kappa, y, t, want)


# ---------------------------------------------------------------------------
# The unit-scale shortcut keeps every bit

SPECIAL = (-0.0, 0.0, np.inf, -np.inf, np.nan)
CELLS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL))
UNIT = pytest.mark.parametrize("unit", [True, False], ids=["s=1", "s!=1"])
QUIET = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and the like, by design


def _matrix(data, rows, cols):
    flat = data.draw(st.lists(CELLS, min_size=rows * cols, max_size=rows * cols))
    return np.array(flat, dtype=np.float64).reshape(rows, cols)


def _alpha(data, r, unit):
    if unit:
        return float(r)  # s = alpha / r is exactly 1.0
    alpha = data.draw(st.floats(1e-2, 1e2))
    assume(alpha != r)
    return alpha


def _layer(data, unit):
    k, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    r = data.draw(st.integers(1, min(k, d)))
    return ad.LoraLayer(_matrix(data, k, d), _matrix(data, r, d), _matrix(data, k, r), _alpha(data, r, unit))


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@UNIT
@QUIET
@PROPERTY
@given(data=st.data())
def test_forward_keeps_the_scaled_bits(unit, data):
    layer = _layer(data, unit)
    relu = data.draw(st.booleans())
    w2 = _matrix(data, data.draw(st.integers(1, 6)), layer.k) if relu else None
    model = ad.ToyModel(layer, w2)
    x = _matrix(data, layer.d, data.draw(st.integers(1, 6)))
    y, z = ad.forward(model, x)
    want_y, want = pass_ref.forward(model, x)
    assert _same_bits(y, want_y) and _same_bits(z, want["z"])
    assert _same_bits(layer._memo["ax"][2], want["ax"])


@UNIT
@QUIET
@PROPERTY
@given(data=st.data())
def test_factored_lora_grads_keep_the_scaled_bits(unit, data):
    layer = _layer(data, unit)
    m = data.draw(st.integers(1, 6))
    u, v = _matrix(data, layer.k, m), _matrix(data, layer.d, m)
    held = (layer.a, v, np.dot(layer.a, v)) if data.draw(st.booleans()) else None
    if held is not None:  # a writable A v in the layer's memo, as a pass would hold A X
        layer._memo["ax"] = held
        before = held[2].copy()
    g = ad.FullGradient(u, v)
    for got, want in zip(ad.lora_grads(g, layer), pass_ref.lora_grads(g, layer)):
        assert _same_bits(got, want)
    if held is not None:  # the held A v is read, never scaled in place
        assert _same_bits(held[2], before)


@UNIT
@QUIET
@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**31 - 1))
def test_scaled_grad_a_keeps_the_scaled_bits(unit, data, seed):
    r = data.draw(st.integers(1, 6))
    b = RandomStream(seed).normal(data.draw(st.integers(r, 8)), r)  # finite: a Gram that factors
    grad_a = _matrix(data, r, data.draw(st.integers(1, 6)))
    s = _alpha(data, r, unit) / r
    got = optim.scaled_grad_a(grad_a, b, s, optim.DEFAULT_DAMPING)
    assert _same_bits(got, pass_ref.scaled_grad_a(grad_a, b, s, optim.DEFAULT_DAMPING))


@QUIET
@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**31 - 1))
def test_loss_keeps_numpys_bits_past_the_square_chunk(data, seed):
    # Residuals of up to three chunks of sum_of_squares, with drawn specials
    rows = data.draw(st.integers(1, 64))
    cols = data.draw(st.integers(max(1, (SQUARE_CHUNK - 64) // rows), 3 * SQUARE_CHUNK // rows))
    stream = RandomStream(seed)
    y = stream.normal(rows, cols) * data.draw(st.sampled_from([1e-5, 1.0, 1e4]))
    target = stream.normal(rows, cols)
    for _ in range(data.draw(st.integers(0, 4))):
        y.flat[data.draw(st.integers(0, y.size - 1))] = data.draw(st.sampled_from(SPECIAL))
    res = y - target
    want = np.add.reduce(np.square(res), axis=None) / cols
    assert _same_bits(np.float64(ad._mean_square(res)), want)
    assert _same_bits(np.float64(ad.mse_loss(y, target)), np.float64(pass_ref.mse_loss(y, target)))


@PROPERTY
@given(
    problem=problems(),
    lam=st.one_of(st.just(0.0), st.floats(1e-8, 1.0)),
    kind=st.sampled_from([optim.ALTLORA, optim.ALTLORA_PLUS]),
    order=st.sampled_from([optim.A_FIRST, optim.B_FIRST]),
)
def test_carried_inverse_is_a_fresh_gram_inverse_in_every_phase(problem, lam, kind, order):
    stream, k, d, r, s, _ = problem
    layer = ad.LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), s * r)
    state = optim.make_state(kind, layer)
    step = optim.make_stepper(kind)
    cfg = optim.TrainConfig(eta=0.01, beta1=0.9, lam=lam, order=order)
    for t in range(6):
        a_phase = optim.update_phase(t, order) == "a"
        if t > 0:
            factor, carried_lam, inv = layer._memo["gram"]
            assert factor is (layer.b if a_phase else layer.a) and carried_lam == lam
            assert _same_bits(inv, damped_gram_inverse(layer.b if a_phase else layer.a.T, "left", lam))
        g = ad.FullGradient(stream.normal(k, 3), stream.normal(d, 3))
        try:
            step(layer, state, g, cfg)
        except SingularGram:
            reject()
