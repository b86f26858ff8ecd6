"""Optimizer tests: scaled gradients, momentum alignment, steppers, baselines."""

import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pass_reference as pass_ref
import snapshot_reference as ref
from altlora import optim
from altlora.adapter import FullGradient, LoraLayer, lora_grads, merged_weight
from altlora.matcore import RandomStream, damped_gram_inverse, frobenius, gauge_sample, rel_error
from altlora.oracle import equivalent_update, lstsq_oracle
from dense_gradient import as_gradient


def _random_layer(stream, k=16, d=32, r=4, alpha=None):
    return LoraLayer(
        stream.normal(k, d) / np.sqrt(d),
        stream.normal(r, d),
        stream.normal(k, r),
        float(alpha if alpha is not None else r),
    )


# ---------------------------------------------------------------------------
# Scaled gradients


def test_scaled_grad_a_zero_b_gives_exact_zero():
    grad_a = np.zeros((2, 5))  # what lora_grads produces when B = 0
    out = optim.scaled_grad_a(grad_a, np.zeros((4, 2)), 2.0, 1.0)
    assert np.all(out == 0.0)


def test_scaled_grad_a_orthonormal_column_passthrough():
    out = optim.scaled_grad_a(np.array([[2.0, 0.0]]), np.array([[1.0], [0.0]]), 1.0, 0.0)
    np.testing.assert_allclose(out, [[2.0, 0.0]], atol=1e-15)


def test_scaled_grad_b_orthonormal_rows_passthrough():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    grad_b = np.array([[1.0, -2.0], [0.5, 3.0]])
    out = optim.scaled_grad_b(grad_b, a, 1.0, 0.0)
    np.testing.assert_allclose(out, grad_b, atol=1e-14)


def test_scaled_grad_b_inverse_square_scaling_in_s():
    stream = RandomStream(7)
    a = stream.normal(3, 8)
    grad_b = stream.normal(5, 3)
    one = optim.scaled_grad_b(grad_b, a, 1.0, 0.0)
    two = optim.scaled_grad_b(grad_b, a, 2.0, 0.0)
    np.testing.assert_allclose(two, one / 4.0, rtol=1e-13)


def test_scaled_grads_solve_the_least_squares_objectives():
    stream = RandomStream(19)
    for _ in range(20):
        k, d, r = 16, 32, 4
        s = float(np.exp(stream.normal()))
        b = stream.normal(k, r)
        a = stream.normal(r, d)
        g = stream.normal(k, d)
        got_a = optim.scaled_grad_a(s * (b.T @ g), b, s, 0.0)
        assert rel_error(got_a, lstsq_oracle(s * b, g)) < 1e-9
        got_b = optim.scaled_grad_b(s * (g @ a.T), a, s, 0.0)
        assert rel_error(got_b, lstsq_oracle(s * a.T, g.T).T) < 1e-9


def test_scaled_grad_residual_beats_random_perturbations():
    stream = RandomStream(23)
    k, r, d = 16, 4, 32
    b = stream.normal(k, r)
    g = stream.normal(k, d)
    z = optim.scaled_grad_a(b.T @ g, b, 1.0, 0.0)
    base = frobenius(b @ z - g)
    for _ in range(1000):
        delta = stream.normal(r, d)
        delta *= 1e-3 / frobenius(delta)
        assert frobenius(b @ (z + delta) - g) > base


# ---------------------------------------------------------------------------
# Momentum alignment


def test_align_momentum_b_identity_when_subspace_unchanged():
    stream = RandomStream(3)
    mb = stream.normal(5, 2)
    a = stream.normal(2, 7)
    np.testing.assert_allclose(optim.align_momentum_b(mb, a, a, 0.0), mb, rtol=1e-12)


def test_align_momentum_orthogonal_subspaces_kill_momentum():
    mb = np.array([[3.0], [1.0]])
    out = optim.align_momentum_b(mb, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.0)
    np.testing.assert_allclose(out, np.zeros((2, 1)), atol=1e-15)
    ma = np.array([[2.0, -1.0]])
    out = optim.align_momentum_a(ma, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]), 0.0)
    np.testing.assert_allclose(out, np.zeros((1, 2)), atol=1e-15)


def test_align_momentum_a_identity_when_unchanged():
    stream = RandomStream(31)
    ma = stream.normal(2, 7)
    b = stream.normal(6, 2)
    np.testing.assert_allclose(optim.align_momentum_a(ma, b, b, 0.0), ma, rtol=1e-12)


def test_momentum_alignment_solves_least_squares():
    stream = RandomStream(37)
    k, r, d = 8, 2, 16
    for _ in range(20):
        mb = stream.normal(k, r)
        a_old, a_new = stream.normal(r, d), stream.normal(r, d)
        got = optim.align_momentum_b(mb, a_old, a_new, 0.0)
        assert rel_error(got, lstsq_oracle(a_new.T, (mb @ a_old).T).T) < 1e-9
        ma = stream.normal(r, d)
        b_old, b_new = stream.normal(k, r), stream.normal(k, r)
        got = optim.align_momentum_a(ma, b_old, b_new, 0.0)
        assert rel_error(got, lstsq_oracle(b_new, b_old @ ma)) < 1e-9


def test_align_momentum_b_never_forms_a_k_by_d_product():
    stream = RandomStream(127)
    k = d = 512
    r = 4
    mb, a_old, a_new = stream.normal(k, r), stream.normal(r, d), stream.normal(r, d)
    tracemalloc.start()
    try:
        optim.align_momentum_b(mb, a_old, a_new, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < k * d * 8  # one k x d float64 array


# ---------------------------------------------------------------------------
# Alternating stepper


def test_first_b_phase_from_standard_init():
    stream = RandomStream(41)
    w0 = stream.normal(6, 10)
    a = stream.normal(2, 10)
    layer = LoraLayer(w0, a, np.zeros((6, 2)), alpha=4.0)  # s = 2
    g = stream.normal(6, 10)
    cfg = optim.TrainConfig(eta=0.1, beta1=0.9, gamma=0.0, lam=1e-6, order=optim.B_FIRST)
    state = optim.AltLoraState.init(layer)
    a_before = layer.a.copy()
    optim.altlora_step(layer, state, as_gradient(g), cfg)
    # B_1 = -eta (1 - beta1) (1/s) G A^T (A A^T + lam I)^-1, A untouched
    tilde = g @ a.T @ damped_gram_inverse(a, "right", cfg.lam) / layer.s
    np.testing.assert_allclose(layer.b, -cfg.eta * (1 - cfg.beta1) * tilde, rtol=1e-12)
    assert np.array_equal(layer.a, a_before)
    assert state.t == 1
    np.testing.assert_allclose(state.mb, (1 - cfg.beta1) * tilde, rtol=1e-12)
    assert not state.ma.any()  # the zero A-moment stays zero when realigned to the new B


def test_pure_weight_decay_shrinks_factor():
    stream = RandomStream(43)
    layer = _random_layer(stream, k=6, d=8, r=2)
    cfg = optim.TrainConfig(eta=0.1, beta1=0.5, gamma=0.3, lam=1e-6, order=optim.B_FIRST)
    state = optim.AltLoraState.init(layer)
    b_before = layer.b.copy()
    a_before = layer.a.copy()
    optim.altlora_step(layer, state, as_gradient(np.zeros((6, 8))), cfg)
    np.testing.assert_allclose(layer.b, (1 - cfg.eta * cfg.gamma) * b_before, rtol=1e-14)
    optim.altlora_step(layer, state, as_gradient(np.zeros((6, 8))), cfg)
    np.testing.assert_allclose(layer.a, (1 - cfg.eta * cfg.gamma) * a_before, rtol=1e-14)


@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
def test_pair_of_steps_decomposes_into_projected_terms(order):
    from altlora.matcore import projector

    stream = RandomStream(47)
    layer = _random_layer(stream)
    g_t = stream.normal(16, 32)
    g_half = stream.normal(16, 32)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.0, lam=0.0, order=order)
    work = layer.copy()
    state = optim.AltLoraState.init(work)
    optim.altlora_step(work, state, as_gradient(g_t), cfg)
    first_updated = work.a.copy() if order == optim.A_FIRST else work.b.copy()
    optim.altlora_step(work, state, as_gradient(g_half), cfg)
    dw = equivalent_update(layer, work)
    if order == optim.A_FIRST:
        want = -cfg.eta * (projector(layer.b, "column") @ g_t)
        want -= cfg.eta * (g_half @ projector(first_updated, "row"))
    else:
        want = -cfg.eta * (g_t @ projector(layer.a, "row"))
        want -= cfg.eta * (projector(first_updated, "column") @ g_half)
    assert rel_error(dw, want) < 1e-10


def test_train_config_rejects_joint_order():
    # no stepper reads a joint order: baselines ignore the order and an
    # alternating step needs a first factor
    with pytest.raises(ValueError, match="order must be a_first or b_first"):
        optim.TrainConfig(eta=0.1, order="joint")


def test_step_under_gauge_change_commutes():
    """One altlora step from gauge-equivalent factorizations stays equivalent."""
    stream = RandomStream(53)
    layer = _random_layer(stream, k=8, r=3, d=12)
    gauge = gauge_sample(3, 5.0, 7)
    twin = LoraLayer(layer.w0, np.linalg.solve(gauge, layer.a), layer.b @ gauge, layer.alpha)
    g = as_gradient(stream.normal(8, 12))
    cfg = optim.TrainConfig(eta=0.1, beta1=0.0, lam=0.0, order=optim.B_FIRST)
    for lay in (layer, twin):
        optim.altlora_step(lay, optim.AltLoraState.init(lay), g, cfg)
    from altlora.adapter import merged_weight

    assert rel_error(merged_weight(twin), merged_weight(layer)) < 1e-10


# ---------------------------------------------------------------------------
# AltLoRA+


def test_altlora_plus_large_eps_reduces_to_first_moment():
    stream = RandomStream(59)
    layer = _random_layer(stream, k=6, d=9, r=2)
    g = as_gradient(stream.normal(6, 9))
    cfg = optim.TrainConfig(eta=0.1, beta1=0.0, beta2=0.9, eps=1e6, lam=1e-6, order=optim.B_FIRST)
    state = optim.make_state(optim.ALTLORA_PLUS, layer)
    b_before = layer.b.copy()
    grad_b = lora_grads(g, layer)[1]
    tilde = optim.scaled_grad_b(grad_b, layer.a, layer.s, cfg.lam)
    m_hat = tilde  # beta1 = 0, tau = 1
    optim.altlora_plus_step(layer, state, g, cfg)
    delta = layer.b - b_before
    np.testing.assert_allclose(delta, -cfg.eta * m_hat / cfg.eps, rtol=1e-4)


def test_altlora_plus_sign_sgd_limit():
    stream = RandomStream(61)
    layer = _random_layer(stream, k=6, d=9, r=2)
    cfg = optim.TrainConfig(eta=0.01, beta1=0.0, beta2=0.0, eps=1e-8, lam=1e-6, order=optim.B_FIRST)
    state = optim.make_state(optim.ALTLORA_PLUS, layer)
    for _ in range(4):
        g = as_gradient(stream.normal(6, 9))
        phase = optim.update_phase(state.t, cfg.order)
        grad_a, grad_b = lora_grads(g, layer)
        if phase == "b":
            tilde = optim.scaled_grad_b(grad_b, layer.a, layer.s, cfg.lam)
            before = layer.b.copy()
        else:
            tilde = optim.scaled_grad_a(grad_a, layer.b, layer.s, cfg.lam)
            before = layer.a.copy()
        optim.altlora_plus_step(layer, state, g, cfg)
        after = layer.b if phase == "b" else layer.a
        want = -cfg.eta * tilde / (np.abs(tilde) + cfg.eps)
        np.testing.assert_allclose(after - before, want, rtol=1e-12)
        # the update is within a whisker of -eta * sign(tilde)
        np.testing.assert_allclose(np.abs(after - before), cfg.eta, rtol=1e-4)


def test_altlora_plus_trust_region_bound():
    """Per-entry steps stay inside the provable AdamW-style trust region.

    The naive |step| <= eta bound does not survive momentum realignment
    (the realigned first moment can outrun the unaligned second moment),
    so the enforceable bound is eta (1 - beta1) / sqrt(1 - beta2). The
    pinned run below stays well inside it; its empirical worst ratio is
    frozen as a regression value.
    """
    stream = RandomStream(67)
    layer = _random_layer(stream, k=10, d=14, r=3)
    teacher = layer.w0 + stream.normal(10, 14) / np.sqrt(14)
    x = stream.normal(14, 40)
    cfg = optim.TrainConfig(eta=0.01, lam=1e-6, order=optim.B_FIRST)
    state = optim.make_state(optim.ALTLORA_PLUS, layer)
    from altlora.adapter import ToyModel, training_pass

    model = ToyModel(layer)
    y = teacher @ x
    provable = cfg.eta * (1.0 - cfg.beta1) / np.sqrt(1.0 - cfg.beta2) * (1.0 + 1e-6)
    worst = 0.0
    for _ in range(10):
        a_before, b_before = layer.a.copy(), layer.b.copy()
        _, g = training_pass(model, x, y)
        optim.altlora_plus_step(layer, state, g, cfg)
        step_inf = max(np.max(np.abs(layer.a - a_before)), np.max(np.abs(layer.b - b_before)))
        assert step_inf <= provable
        worst = max(worst, step_inf / cfg.eta)
    assert worst <= 1.3  # frozen from this run (observed 1.2797)


def test_altlora_plus_bias_correction_flag():
    stream = RandomStream(62)
    layer = _random_layer(stream, k=6, d=9, r=2)
    g = as_gradient(stream.normal(6, 9))
    grad_b = lora_grads(g, layer)[1]
    on, off = layer.copy(), layer.copy()
    cfg_on = optim.TrainConfig(eta=0.1, lam=1e-6, order=optim.B_FIRST)
    cfg_off = replace(cfg_on, bias_correction=False)
    optim.altlora_plus_step(on, optim.make_state(optim.ALTLORA_PLUS, on), g, cfg_on)
    optim.altlora_plus_step(off, optim.make_state(optim.ALTLORA_PLUS, off), g, cfg_off)
    assert not np.array_equal(on.b, off.b)
    # raw first update without correction: m = (1-b1) g~, v = (1-b2) g~^2
    tilde = optim.scaled_grad_b(grad_b, layer.a, layer.s, cfg_on.lam)
    m = (1 - cfg_off.beta1) * tilde
    v = (1 - cfg_off.beta2) * tilde * tilde
    want = layer.b - cfg_off.eta * m / (np.sqrt(v) + cfg_off.eps)
    np.testing.assert_allclose(off.b, want, rtol=1e-12)


@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
def test_altlora_plus_bias_correction_counts_per_factor_updates(order):
    # Phases alternate from t = 0, so step t is update t // 2 + 1 of the
    # factor it moves, and its moments are corrected by that power of beta.
    stream = RandomStream(63)
    layer = _random_layer(stream, k=6, d=9, r=2)
    target = stream.normal(6, 9)
    cfg = optim.TrainConfig(eta=0.05, lam=1e-6, order=order)
    state = optim.make_state(optim.ALTLORA_PLUS, layer)
    for t in range(6):
        g = as_gradient(merged_weight(layer) - target)
        grad_a, grad_b = lora_grads(g, layer)
        phase = optim.update_phase(t, order)
        if phase == "a":
            x, m, v = layer.a, state.ma, state.va
            tilde = optim.scaled_grad_a(grad_a, layer.b, layer.s, cfg.lam)
        else:
            x, m, v = layer.b, state.mb, state.vb
            tilde = optim.scaled_grad_b(grad_b, layer.a, layer.s, cfg.lam)
        m = cfg.beta1 * m + (1 - cfg.beta1) * tilde
        v = cfg.beta2 * v + (1 - cfg.beta2) * tilde * tilde
        n = t // 2 + 1
        want = x - cfg.eta * (m / (1 - cfg.beta1**n)) / (np.sqrt(v / (1 - cfg.beta2**n)) + cfg.eps)
        optim.altlora_plus_step(layer, state, g, cfg)
        np.testing.assert_allclose(layer.a if phase == "a" else layer.b, want, rtol=1e-12)


@pytest.mark.parametrize("kind", [optim.ALTLORA_PLUS, optim.LORA_ADAM])
def test_an_adaptive_step_requires_second_moment_state(kind):
    # One guard for both adaptive rows, and nothing moves before it trips.
    stream = RandomStream(71)
    layer = _random_layer(stream, k=4, d=6, r=2)
    state = optim.AltLoraState.init(layer)  # no second moments
    a, b, ma, mb, t = layer.a, layer.b, state.ma, state.mb, state.t
    with pytest.raises(ValueError, match=rf"^{kind} needs a state built with second_moment=True$"):
        optim.make_stepper(kind)(layer, state, as_gradient(stream.normal(4, 6)), optim.TrainConfig(eta=0.1))
    assert layer.a is a and layer.b is b and state.ma is ma and state.mb is mb and state.t == t


@pytest.mark.parametrize(
    "order, kind",
    [(order, kind) for order in (optim.A_FIRST, optim.B_FIRST) for kind in (optim.ALTLORA, optim.ALTLORA_PLUS)]
    + [(optim.B_FIRST, kind) for kind in (optim.LORA_SGD, optim.LORA_ADAM, optim.SCALEDGD_JOINT)],
)
def test_b_phase_is_the_a_phase_of_the_transposed_problem(kind, order):
    # The twin (W0^T, B^T, A^T) trained on G^T in the opposite order must
    # track the transposes of every factor and buffer of the original run.
    # A joint row ignores the order, so one serves it. lora_plus has no twin
    # in the table: its ratio scales B's rate only.
    stream = RandomStream(113)
    layer = _random_layer(stream, k=12, d=20, r=3)
    target = stream.normal(12, 20) / np.sqrt(20)
    twin = LoraLayer(layer.w0.T, layer.b.T, layer.a.T, layer.alpha)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.9, gamma=0.01, order=order)
    cfg_twin = replace(cfg, order=optim.B_FIRST if order == optim.A_FIRST else optim.A_FIRST)
    state, state_twin = optim.make_state(kind, layer), optim.make_state(kind, twin)
    step = optim.make_stepper(kind)
    for _ in range(8):
        step(layer, state, as_gradient(merged_weight(layer) - target), cfg)
        step(twin, state_twin, as_gradient(merged_weight(twin) - target.T), cfg_twin)
        pairs = [(layer.a, twin.b), (layer.b, twin.a), (state.ma, state_twin.mb), (state.mb, state_twin.ma)]
        if state.va is not None:
            pairs += [(state.va, state_twin.vb), (state.vb, state_twin.va)]
        for got, twin_buf in pairs:
            assert rel_error(twin_buf.T, got) <= 1e-12
        assert state.t == state_twin.t


@pytest.mark.parametrize("kind", optim.OPTIMIZERS)
@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
def test_one_step_peaks_at_a_few_factor_pairs_per_run(kind, runs, order):
    # Every stepper, alone and stacked, on a compressed gradient (u = P,
    # k x r', and v = X QX^T, d x r'): a step holds factor-shaped arrays
    # only. One factor pair, (k + d) r floats, is 1/64 of one k x d array
    # here. Two steps after the first are traced, so both phases of an
    # alternating row are, with moments already nonzero.
    k, d, r, rr = 512, 512, 4, 8
    lead = (runs,) if runs > 1 else ()
    stream = RandomStream(167)
    layer = LoraLayer(stream.normal(*lead, k, d) / np.sqrt(d), stream.normal(*lead, r, d) / np.sqrt(d),
                      stream.normal(*lead, k, r) / 2, float(r))
    u, v = stream.normal(*lead, k, rr) / k, stream.normal(*lead, d, rr)
    cfg = optim.TrainConfig(eta=0.01, beta1=0.9, gamma=0.01, order=order)
    state, step = optim.make_state(kind, layer), optim.make_stepper(kind)
    step(layer, state, FullGradient(u, v), cfg)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            step(layer, state, FullGradient(u, v), cfg)  # a fresh one, whose dense g is not yet built
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 6 * (k + d) * r * 8 * runs


@pytest.mark.parametrize("kind", [optim.ALTLORA, optim.ALTLORA_PLUS])
@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
@pytest.mark.parametrize("beta1", [0.0, 0.9])
@pytest.mark.parametrize("lam", [0.0, 1e-6])
def test_step_matches_the_snapshot_stepper(kind, order, beta1, lam):
    # The snapshot stepper realigns a moment only when its own factor next
    # moves; realigning the opposite moment as soon as a factor moves must
    # give the same trajectory. With momentum the realignment runs against
    # differently laid out copies of the same factor, so only the last bits
    # may differ.
    stream = RandomStream(131)
    layer = _random_layer(stream, k=16, d=64, r=4)  # a shape where the layouts change bits
    target = stream.normal(16, 64) / np.sqrt(64)
    adaptive = kind == optim.ALTLORA_PLUS
    cfg = optim.TrainConfig(eta=0.05, beta1=beta1, gamma=0.01, lam=lam, order=order)
    state = optim.make_state(kind, layer)
    old_layer = layer.copy()
    old = ref.SnapshotState.init(old_layer, second_moment=adaptive)
    step = optim.make_stepper(kind)
    for t in range(24):
        step(layer, state, as_gradient(merged_weight(layer) - target), cfg)
        ref.alternating_step(old_layer, old, as_gradient(merged_weight(old_layer) - target), cfg, adaptive)
        ma, mb = old.ma, old.mb
        if beta1 != 0.0:  # carry the snapshot stepper's stale moment to the current factor
            if optim.update_phase(t, order) == "a":
                mb = optim.align_momentum_b(mb, old.prev_a, old_layer.a, lam)
            else:
                ma = optim.align_momentum_a(ma, old.prev_b, old_layer.b, lam)
        pairs = [(layer.a, old_layer.a), (layer.b, old_layer.b), (state.ma, ma), (state.mb, mb)]
        if adaptive:
            pairs += [(state.va, old.va), (state.vb, old.vb)]
        for got, want in pairs:
            if beta1 == 0.0:
                assert np.array_equal(got, want)
            else:
                assert rel_error(got, want) <= 1e-12
    assert state.t == old.t == 24


# ---------------------------------------------------------------------------
# One factor gradient and one Gram factorization per phase


def _count_calls(monkeypatch, *names):
    """Wrap each optim.<name> so that every call appends its name to the returned list."""
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(optim, name, counted(name, getattr(optim, name)))
    return calls


def _run_steps(kind, layer, state, cfg, steps, stream):
    step = optim.make_stepper(kind)
    target = stream.normal(layer.k, layer.d) / np.sqrt(layer.d)
    for _ in range(steps):
        step(layer, state, as_gradient(merged_weight(layer) - target), cfg)


@pytest.mark.parametrize("kind", [optim.ALTLORA, optim.ALTLORA_PLUS])
@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
@pytest.mark.parametrize("beta1, extra", [(0.9, 1), (0.0, 0)])
def test_gram_inverses_per_alternating_run(kind, order, beta1, extra, monkeypatch):
    # T steps make T + 1 inverses with momentum: one fresh in the first
    # phase, then one per realignment, each reused by the next phase.
    # Without momentum nothing is realigned: one fresh inverse per phase.
    calls = _count_calls(monkeypatch, "damped_gram_inverse")
    stream = RandomStream(141)
    layer = _random_layer(stream, k=12, d=20, r=3)
    cfg = optim.TrainConfig(eta=0.05, beta1=beta1, lam=1e-6, order=order)
    state = optim.make_state(kind, layer)
    _run_steps(kind, layer, state, cfg, 7, stream)
    assert len(calls) == 7 + extra
    assert ("gram" in layer._memo) == (beta1 != 0.0)  # only a realignment sets the carry


@pytest.mark.parametrize(
    "kind, per_step",
    [(optim.LORA_SGD, 0), (optim.LORA_ADAM, 0), (optim.LORA_PLUS, 0), (optim.SCALEDGD_JOINT, 2)],
)
def test_gram_inverses_per_baseline_run(kind, per_step, monkeypatch):
    calls = _count_calls(monkeypatch, "damped_gram_inverse")
    stream = RandomStream(142)
    layer = _random_layer(stream, k=12, d=20, r=3)
    _run_steps(kind, layer, optim.make_state(kind, layer), optim.TrainConfig(eta=0.01, lam=1e-6), 7, stream)
    assert len(calls) == 7 * per_step


@pytest.mark.parametrize("kind", [optim.ALTLORA, optim.ALTLORA_PLUS])
@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
def test_each_phase_forms_only_its_factor_gradient(kind, order, monkeypatch):
    calls = _count_calls(monkeypatch, "lora_grad_a", "lora_grad_b", "lora_grads")
    stream = RandomStream(143)
    layer = _random_layer(stream, k=12, d=20, r=3)
    state = optim.make_state(kind, layer)
    step = optim.make_stepper(kind)
    target = stream.normal(12, 20)
    cfg = optim.TrainConfig(eta=0.05, lam=1e-6, order=order)
    for t in range(6):
        calls.clear()
        step(layer, state, as_gradient(merged_weight(layer) - target), cfg)
        assert calls == ["lora_grad_" + optim.update_phase(t, order)]


@pytest.mark.parametrize("kind", [optim.ALTLORA, optim.ALTLORA_PLUS])
@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
@pytest.mark.parametrize("change", ["rebind", "perturb", "lam"])
def test_a_carry_whose_key_does_not_match_is_not_used(kind, order, change):
    # The earlier phase body factors every Gram afresh. After the fixed
    # factor is rebound (same bits, new array), replaced by a perturbed
    # array, or lam changes, the step must match it bit for bit; a step
    # that used the stale inverse would not after "perturb" or "lam".
    stream = RandomStream(145)
    layer = _random_layer(stream, k=12, d=20, r=3)
    target = stream.normal(12, 20)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.9, lam=1e-6, order=order)
    state = optim.make_state(kind, layer)
    step = optim.make_stepper(kind)
    for t in range(5):
        step(layer, state, as_gradient(merged_weight(layer) - target), cfg)
        owner = "b" if optim.update_phase(state.t, order) == "a" else "a"
        if change == "lam":
            cfg = replace(cfg, lam=2e-6 if cfg.lam == 1e-6 else 1e-6)
        else:
            fixed = getattr(layer, owner)
            moved = fixed.copy() if change == "rebind" else fixed + 1e-3 * stream.normal(*fixed.shape)
            setattr(layer, owner, moved)
        assert "gram" in layer._memo
        earlier_layer, earlier_state = layer.copy(), copy.deepcopy(state)
        g = FullGradient(stream.normal(12, 8), stream.normal(20, 8) / np.sqrt(20))
        step(layer, state, g, cfg)
        pass_ref.alternating_step(earlier_layer, earlier_state, g, cfg, kind == optim.ALTLORA_PLUS)
        pairs = [(layer.a, earlier_layer.a), (layer.b, earlier_layer.b), (state.ma, earlier_state.ma),
                 (state.mb, earlier_state.mb), (state.va, earlier_state.va), (state.vb, earlier_state.vb)]
        for got, want in pairs:
            assert (got is None and want is None) or np.array_equal(got, want), t


@pytest.mark.parametrize("kind", [optim.ALTLORA, optim.ALTLORA_PLUS])
@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
def test_an_equal_lam_in_another_float_misses_the_carry_with_the_same_bits(kind, order, monkeypatch):
    # The carry keys on the lam object, as every memo entry keys on its
    # operands. A twin holding the same carry but stepping with an equal lam
    # built as a new float factors the fixed factor's Gram afresh, and that
    # inverse has the carried one's bits.
    calls = _count_calls(monkeypatch, "damped_gram_inverse")
    stream = RandomStream(148)
    layer = _random_layer(stream, k=12, d=20, r=3)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.9, lam=1e-6, order=order)
    state = optim.make_state(kind, layer)
    step = optim.make_stepper(kind)
    step(layer, state, as_gradient(stream.normal(12, 20)), cfg)
    twin, twin_state = layer.copy(), copy.deepcopy(state)
    twin._memo.update(layer._memo)  # the same carry
    equal = replace(cfg, lam=float("1e-6"))
    assert equal.lam == cfg.lam and equal.lam is not cfg.lam
    g = FullGradient(stream.normal(12, 8), stream.normal(20, 8) / np.sqrt(20))
    calls.clear()
    step(layer, state, g, cfg)
    assert len(calls) == 1  # the carry hits: only the realignment's inverse
    step(twin, twin_state, g, equal)
    assert len(calls) == 3  # the carry misses: a fresh inverse, then the realignment's
    pairs = [(layer.a, twin.a), (layer.b, twin.b), (state.ma, twin_state.ma), (state.mb, twin_state.mb),
             (state.va, twin_state.va), (state.vb, twin_state.vb)]
    for got, want in pairs:
        assert (got is None and want is None) or np.array_equal(got, want)


def test_a_copied_layer_starts_with_an_empty_memo():
    # The copy binds the same read-only arrays, which nothing can write.
    stream = RandomStream(146)
    layer = _random_layer(stream, k=12, d=20, r=3)
    state = optim.make_state(optim.ALTLORA, layer)
    g = as_gradient(stream.normal(12, 20))
    optim.altlora_step(layer, state, g, optim.TrainConfig(eta=0.05, beta1=0.9, lam=1e-6))
    carry = layer._memo["gram"]
    twin = layer.copy()
    assert twin._memo == {}
    assert twin.w0 is layer.w0 and twin.a is layer.a and twin.b is layer.b and twin.alpha == layer.alpha
    optim.altlora_step(twin, copy.deepcopy(state), g, optim.TrainConfig(eta=0.05, beta1=0.9, lam=1e-6))
    assert layer._memo == {"gram": carry}  # the source keeps its own


def test_the_carry_follows_the_layer_not_the_state(monkeypatch):
    # A second state stepping the same layer takes the layer's carry: its
    # phase factors only the realignment's Gram, and it ends bit for bit
    # where the earlier phase body, which factors every Gram afresh, does.
    calls = _count_calls(monkeypatch, "damped_gram_inverse")
    stream = RandomStream(147)
    layer = _random_layer(stream, k=12, d=20, r=3)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.9, lam=1e-6)
    state = optim.make_state(optim.ALTLORA, layer)
    optim.altlora_step(layer, state, as_gradient(stream.normal(12, 20)), cfg)
    earlier_layer, earlier_state, other = layer.copy(), copy.deepcopy(state), copy.deepcopy(state)
    g = as_gradient(stream.normal(12, 20))
    calls.clear()
    optim.altlora_step(layer, other, g, cfg)
    assert len(calls) == 1
    pass_ref.alternating_step(earlier_layer, earlier_state, g, cfg, False)
    for got, want in [(layer.a, earlier_layer.a), (layer.b, earlier_layer.b), (other.ma, earlier_state.ma),
                      (other.mb, earlier_state.mb)]:
        assert np.array_equal(got, want)


def test_an_unknown_optimizer_kind_has_no_state_and_no_stepper():
    layer = _random_layer(RandomStream(148), k=6, d=8, r=2)
    with pytest.raises(ValueError, match=r"^unknown optimizer kind 'bogus'$"):
        optim.make_state("bogus", layer)
    with pytest.raises(ValueError, match=r"^unknown optimizer kind 'bogus'$"):
        optim.make_stepper("bogus")


@pytest.mark.parametrize("kind", [None, *optim.OPTIMIZERS])
def test_a_plain_array_gradient_is_a_type_error_that_names_the_wrapper(kind):
    # Gradients have one form: a dense G is wrapped, and nothing moves before the error.
    stream = RandomStream(147)
    layer = _random_layer(stream, k=6, d=8, r=2)
    a, b = layer.a, layer.b
    g = stream.normal(6, 8)
    message = r"not ndarray; pass a dense k x d G as FullGradient\(G, np\.eye\(d\)\)$"
    for order in (optim.A_FIRST, optim.B_FIRST):  # an alternating step's A- and B-phase
        with pytest.raises(TypeError, match=message):
            if kind is None:
                lora_grads(g, layer)
            else:
                cfg = optim.TrainConfig(eta=0.1, order=order)
                optim.make_stepper(kind)(layer, optim.make_state(kind, layer), g, cfg)
    assert layer.a is a and layer.b is b


# ---------------------------------------------------------------------------
# Baselines


def test_lora_sgd_zero_b_keeps_a_fixed():
    stream = RandomStream(73)
    layer = LoraLayer(stream.normal(5, 7), stream.normal(2, 7), np.zeros((5, 2)), 2.0)
    state = optim.make_state(optim.LORA_SGD, layer)
    a_before = layer.a.copy()
    g = as_gradient(stream.normal(5, 7))
    optim.baseline_step(optim.LORA_SGD, layer, state, g, optim.TrainConfig(eta=0.1))
    assert np.array_equal(layer.a, a_before)
    assert np.any(layer.b != 0.0)


def test_scaledgd_joint_update_term_by_term():
    stream = RandomStream(79)
    layer = _random_layer(stream, alpha=8)  # s = 2
    g = stream.normal(16, 32)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.0, lam=1e-4)
    work = layer.copy()
    state = optim.make_state(optim.SCALEDGD_JOINT, work)
    optim.baseline_step(optim.SCALEDGD_JOINT, work, state, as_gradient(g), cfg)
    dw = equivalent_update(layer, work)
    right = damped_gram_inverse(layer.a, "right", cfg.lam)
    left = damped_gram_inverse(layer.b, "left", cfg.lam)
    want = -cfg.eta * (layer.b @ left @ layer.b.T @ g)
    want -= cfg.eta * (g @ layer.a.T @ right @ layer.a)
    want += (cfg.eta**2 / layer.s) * (g @ layer.a.T @ right @ left @ layer.b.T @ g)
    assert rel_error(dw, want) < 1e-10


def test_lora_plus_ratio_one_reproduces_sgd():
    stream = RandomStream(83)
    layer = _random_layer(stream, k=6, d=8, r=2)
    g = as_gradient(stream.normal(6, 8))
    sgd = layer.copy()
    plus = layer.copy()
    cfg = optim.TrainConfig(eta=0.1, lora_plus_ratio=1.0)
    optim.baseline_step(optim.LORA_SGD, sgd, optim.make_state(optim.LORA_SGD, sgd), g, cfg)
    optim.baseline_step(optim.LORA_PLUS, plus, optim.make_state(optim.LORA_PLUS, plus), g, cfg)
    assert np.array_equal(sgd.a, plus.a)
    assert np.array_equal(sgd.b, plus.b)


def test_lora_plus_scales_b_rate():
    stream = RandomStream(89)
    layer = _random_layer(stream, k=6, d=8, r=2)
    g = as_gradient(stream.normal(6, 8))
    one = layer.copy()
    sixteen = layer.copy()
    optim.baseline_step(
        optim.LORA_SGD, one, optim.make_state(optim.LORA_SGD, one), g, optim.TrainConfig(eta=0.1)
    )
    optim.baseline_step(
        optim.LORA_PLUS,
        sixteen,
        optim.make_state(optim.LORA_PLUS, sixteen),
        g,
        optim.TrainConfig(eta=0.1),
    )
    np.testing.assert_allclose(sixteen.b - layer.b, 16.0 * (one.b - layer.b), rtol=1e-12)
    assert np.array_equal(sixteen.a, one.a)


# ---------------------------------------------------------------------------
# Ancillary-matrix gradient pair


def test_lorapro_orthonormal_factors_hand_form():
    stream = RandomStream(97)
    from altlora.matcore import orthonormal_columns

    b = orthonormal_columns(6, 2, stream)
    a = orthonormal_columns(8, 2, stream).T
    layer = LoraLayer(np.zeros((6, 8)), a, b, alpha=2.0)  # s = 1
    g = stream.normal(6, 8)
    g_a, g_b = optim.lorapro_equiv_grad(as_gradient(g), layer, np.zeros((2, 2)), 0.0)
    np.testing.assert_allclose(g_a, b.T @ g, atol=1e-12)
    np.testing.assert_allclose(g_b, (np.eye(6) - b @ b.T) @ g @ a.T, atol=1e-12)


def test_lorapro_equivalent_gradient_independent_of_x():
    stream = RandomStream(101)
    layer = _random_layer(stream, k=10, d=12, r=3)
    g = as_gradient(stream.normal(10, 12))
    x1, x2 = stream.normal(3, 3), stream.normal(3, 3)
    pair1 = optim.lorapro_equiv_grad(g, layer, x1, 1e-8)
    pair2 = optim.lorapro_equiv_grad(g, layer, x2, 1e-8)
    eq1 = optim.equivalent_gradient(*pair1, layer)
    eq2 = optim.equivalent_gradient(*pair2, layer)
    assert rel_error(eq1, eq2) < 1e-10
    assert rel_error(pair1[0], pair2[0]) > 1e-3  # the pairs themselves differ


def test_lorapro_zero_b_with_damping():
    stream = RandomStream(103)
    a = stream.normal(2, 8)
    layer = LoraLayer(stream.normal(5, 8), a, np.zeros((5, 2)), alpha=4.0)  # s = 2
    g = stream.normal(5, 8)
    g_a, g_b = optim.lorapro_equiv_grad(as_gradient(g), layer, np.zeros((2, 2)), 1e-3)
    np.testing.assert_array_equal(g_a, np.zeros((2, 8)))
    want = g @ a.T @ damped_gram_inverse(a, "right", 1e-3) / layer.s
    np.testing.assert_allclose(g_b, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# State budget


def test_state_memory_stays_factor_shaped():
    stream = RandomStream(107)
    layer = _random_layer(stream, k=32, d=48, r=4)
    for kind in optim.OPTIMIZERS:
        state = optim.make_state(kind, layer)
        state.check_budget(layer)
        bound = 6 * (layer.k * layer.r + layer.r * layer.d)
        assert state.entry_count() <= bound
    bad = optim.AltLoraState.init(layer)
    bad.ma = np.zeros((layer.k, layer.d))
    with pytest.raises(AssertionError):
        bad.check_budget(layer)


@pytest.mark.parametrize("slot", ["ma", "mb", "va", "vb"])
def test_check_budget_trips_on_a_k_by_d_buffer_in_every_slot(slot):
    stream = RandomStream(108)
    layer = _random_layer(stream, k=32, d=48, r=4)
    state = optim.make_state(optim.ALTLORA_PLUS, layer)
    setattr(state, slot, np.zeros((layer.k, layer.d)))
    with pytest.raises(AssertionError, match=r"non-factor shape \(32, 48\)"):
        state.check_budget(layer)


@pytest.mark.parametrize("slot, shape", [("ma", (32, 4)), ("va", (32, 4)), ("mb", (4, 48)), ("vb", (4, 48))])
def test_check_budget_trips_on_the_other_factor_shape(slot, shape):
    # k != d, so an r x d buffer in a k x r slot (or the reverse) is caught.
    stream = RandomStream(109)
    layer = _random_layer(stream, k=32, d=48, r=4)
    state = optim.make_state(optim.ALTLORA_PLUS, layer)
    setattr(state, slot, np.zeros(shape))
    with pytest.raises(AssertionError, match=rf"{slot} has non-factor shape"):
        state.check_budget(layer)


_SLOTS = ("ma", "va", "mb", "vb")


@pytest.mark.parametrize("first, second", [(x, y) for i, x in enumerate(_SLOTS) for y in _SLOTS[i + 1:]])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
def test_check_budget_names_the_first_wrong_slot_in_the_order_ma_va_mb_vb(first, second, lead):
    stream = RandomStream(110)
    layer = LoraLayer(stream.normal(*lead, 32, 48), stream.normal(*lead, 4, 48), stream.normal(*lead, 32, 4), 4.0)
    state = optim.make_state(optim.ALTLORA_PLUS, layer)
    state.check_budget(layer)
    setattr(state, second, np.zeros((*lead, 32, 48)))
    setattr(state, first, np.zeros((5, 5)))
    want = (*lead, 4, 48) if first in ("ma", "va") else (*lead, 32, 4)
    with pytest.raises(AssertionError) as exc:
        state.check_budget(layer)
    assert str(exc.value) == f"optimizer buffer {first} has non-factor shape (5, 5), not {want}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["eta", "gamma", "lam", "eps", "lora_plus_ratio"])
def test_train_config_rejects_a_non_finite_hyperparameter(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        optim.TrainConfig(**{"eta": 0.1, name: value})


def test_train_config_validation():
    with pytest.raises(ValueError):
        optim.TrainConfig(eta=-0.1)
    with pytest.raises(ValueError):
        optim.TrainConfig(eta=0.1, beta1=1.0)
    with pytest.raises(ValueError):
        optim.TrainConfig(eta=0.1, order="sideways")
    for ratio in (0.0, -1.0):
        with pytest.raises(ValueError, match="lora_plus_ratio"):
            optim.TrainConfig(eta=0.1, lora_plus_ratio=ratio)
    for ratio in (-0.1, 1.5, 3.0):
        with pytest.raises(ValueError, match="warmup_ratio"):
            optim.TrainConfig(eta=0.1, schedule="cosine", warmup_ratio=ratio)
    for ratio in (0.0, 1.0):
        optim.TrainConfig(eta=0.1, schedule="cosine", warmup_ratio=ratio)
    cosine = optim.TrainConfig(eta=1.0, schedule="cosine", steps=100)
    assert optim.effective_eta(cosine, 0) == pytest.approx(1.0)
    assert optim.effective_eta(cosine, 50) == pytest.approx(0.5)
    constant = optim.TrainConfig(eta=0.3)
    assert optim.effective_eta(constant, 12345) == 0.3
