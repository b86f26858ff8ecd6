"""The earlier training pass, kept as a reference.

`bench.run_experiment` now runs one `adapter.training_pass` per step, which
forms the residual Y - T once for both the loss and dY; and `forward`, the
factored `lora_grads` and `scaled_grad_a` skip the scale s = alpha / r
when it is 1.0. An alternating phase now forms only the moving factor's
gradient and takes the fixed factor's Gram inverse from the previous
realignment; every stepper takes its moments from one shared rule; and
every optimizer is a row of one rule table, stepped through one factor move.
The functions here are the formulations they replaced: forward, then
mse_loss, then full_gradient, with s always applied; a phase that forms
both factor gradients and a fresh Gram inverse in every scaled gradient
and realignment; and baseline steps that write each moment formula out in
their own branch, all reached through make_stepper. The tests check that
every output bit stayed the same.
Its run_experiment is also the dense oracle of both heads: it trains toward
Y = W* X (the lowrank head) from W0 X formed once per run and takes weight_err and
grad_norm from the merged weight, the dense teacher_weight and the dense gradient,
where the runner forms the lowrank residual from the factored target and, for both
heads, weight_err from one QR (bench._evaluator). The lowrank head is compared
within a rounding bound; the ReLU head byte for byte, but for its weight_err,
which takes the lowrank head's bound.
"""

import functools
import math
from dataclasses import replace

import numpy as np

from altlora import bench, optim
from altlora.adapter import FullGradient, merged_weight
from altlora.matcore import SingularGram, damped_gram_inverse, frobenius


def teacher_weight(task):
    """The dense k x d teacher W* = W0 + U Sigma V^T of a generated task."""
    return task.model.layer.w0 + task.us @ task.vt


def forward(model, x, base=None):
    """Z = W0 X + s B (A X), with W0 X given as base or multiplied here."""
    layer = model.layer
    ax = np.dot(layer.a, x)
    z = np.dot(layer.b, ax)
    z *= layer.s
    z += layer.w0 @ x if base is None else base
    y = z if model.w2 is None else np.dot(model.w2, np.maximum(z, 0.0))
    return y, {"z": z, "y": y, "ax": ax}


def mse_loss(y, target):
    diff = y - target
    return float(np.add.reduce(np.square(diff, out=diff), axis=None) / y.shape[1])


def full_gradient(model, x, target, cache):
    dy = cache["y"] - target
    dy *= 2.0 / x.shape[1]
    if model.w2 is None:
        return [FullGradient(dy, x)]
    dz = model.w2.T @ dy
    dz *= cache["z"] > 0.0
    return [FullGradient(dz, x)]


def lora_grads(g, layer):
    """The factored path only, as the runner calls it, with A v formed here."""
    s, a, b, u, v = layer.s, layer.a, layer.b, g.u, g.v
    return np.dot(s * np.dot(b.T, u), v.T), np.dot(u, (s * np.dot(a, v)).T)


def scaled_grad_a(grad_a, b, s, lam):
    return damped_gram_inverse(b, "left", lam) @ grad_a / (s * s)


def align_momentum_a(ma, b_old, b_new, lam):
    return damped_gram_inverse(b_new, "left", lam) @ b_new.T @ b_old @ ma


def alternating_step(layer, state, g, cfg, adaptive):
    """The earlier phase body: both factor gradients, a fresh inverse per use."""
    grad_a, grad_b = lora_grads(g, layer)
    a_phase = optim.update_phase(state.t, cfg.order) == "a"
    if a_phase:
        x, y, grad, m, m_y = layer.a, layer.b, grad_a, state.ma, state.mb.T
    else:
        x, y, grad, m, m_y = layer.b.T, layer.a.T, grad_b.T, state.mb.T, state.ma
    tilde = scaled_grad_a(grad, y, layer.s, cfg.lam)
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * tilde if cfg.beta1 != 0.0 else tilde
    direction = m
    if adaptive:
        tau = state.t // 2 + 1
        v = cfg.beta2 * (state.va if a_phase else state.vb.T) + (1.0 - cfg.beta2) * (tilde * tilde)
        state.va, state.vb = (v, state.vb) if a_phase else (state.va, v.T)
        c1, c2 = (1.0 - cfg.beta1**tau, 1.0 - cfg.beta2**tau) if cfg.bias_correction else (1.0, 1.0)
        direction = (m / c1) / (np.sqrt(v / c2) + cfg.eps)
    x_new = x - cfg.eta * (direction + cfg.gamma * x) if cfg.gamma else x - cfg.eta * direction
    if cfg.beta1 != 0.0:
        m_y = align_momentum_a(m_y, x.T, x_new.T, cfg.lam)
    if a_phase:
        layer.a, state.ma, state.mb = x_new, m, m_y.T
    else:
        layer.b, state.mb, state.ma = x_new.T, m.T, m_y
    state.t += 1
    state.check_budget(layer)
    return layer, state


def baseline_step(kind, layer, state, g, cfg):
    """The earlier baseline body: each branch writes out its own moments and steps."""
    grad_a, grad_b = lora_grads(g, layer)

    def descend(x, eta, direction):
        return x - eta * (direction + cfg.gamma * x) if cfg.gamma else x - eta * direction

    if kind in (optim.LORA_SGD, optim.LORA_PLUS):
        eta_b = cfg.lora_plus_ratio * cfg.eta if kind == optim.LORA_PLUS else cfg.eta
        layer.a = descend(layer.a, cfg.eta, grad_a)
        layer.b = descend(layer.b, eta_b, grad_b)
    elif kind == optim.LORA_ADAM:
        tau = state.t + 1
        state.ma = cfg.beta1 * state.ma + (1.0 - cfg.beta1) * grad_a
        state.va = cfg.beta2 * state.va + (1.0 - cfg.beta2) * (grad_a * grad_a)
        state.mb = cfg.beta1 * state.mb + (1.0 - cfg.beta1) * grad_b
        state.vb = cfg.beta2 * state.vb + (1.0 - cfg.beta2) * (grad_b * grad_b)
        c1, c2 = (1.0 - cfg.beta1**tau, 1.0 - cfg.beta2**tau) if cfg.bias_correction else (1.0, 1.0)
        dir_a = (state.ma / c1) / (np.sqrt(state.va / c2) + cfg.eps)
        dir_b = (state.mb / c1) / (np.sqrt(state.vb / c2) + cfg.eps)
        layer.a = descend(layer.a, cfg.eta, dir_a)
        layer.b = descend(layer.b, cfg.eta, dir_b)
    elif kind == optim.SCALEDGD_JOINT:
        tilde_a = scaled_grad_a(grad_a, layer.b, layer.s, cfg.lam)
        tilde_b = scaled_grad_a(grad_b.T, layer.a.T, layer.s, cfg.lam).T
        if cfg.beta1 != 0.0:
            state.ma = cfg.beta1 * state.ma + (1.0 - cfg.beta1) * tilde_a
            state.mb = cfg.beta1 * state.mb + (1.0 - cfg.beta1) * tilde_b
        else:
            state.ma, state.mb = tilde_a, tilde_b
        layer.a = descend(layer.a, cfg.eta, state.ma)
        layer.b = descend(layer.b, cfg.eta, state.mb)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    state.t += 1
    state.check_budget(layer)
    return layer, state


def make_stepper(kind):
    """The stepper of optimizer kind, (layer, state, g, cfg), from the written-out bodies above."""
    if kind in (optim.ALTLORA, optim.ALTLORA_PLUS):
        return functools.partial(alternating_step, adaptive=kind == optim.ALTLORA_PLUS)
    return functools.partial(baseline_step, kind)


def run_experiment(spec):
    """The runner loop: forward, mse_loss and full_gradient on every pass.

    Run it with `optim.make_stepper` replaced by make_stepper above, so that
    the steppers it trains with are the written-out ones.
    """
    task = bench.generate_task(spec)
    model, x, teacher = task.model, task.x, teacher_weight(task)
    y = teacher @ x if model.w2 is None else task.target
    cfg = spec.train
    stepper = optim.make_stepper(spec.optimizer)
    state = optim.make_state(spec.optimizer, model.layer)
    base = model.layer.w0 @ x
    flops_per_step = bench._task_flops(spec) + bench._optimizer_flops(spec)
    teacher_norm = max(frobenius(teacher), 1e-300)

    layer, steps, eval_every = model.layer, cfg.steps, spec.eval_every
    rows = []
    steps_to_threshold = -1
    loss = math.nan
    for t in range(steps + 1):
        y_hat, cache = forward(model, x, base)
        loss = mse_loss(y_hat, y)
        if not math.isfinite(loss) or loss > bench.DIVERGENCE_LIMIT:
            rec = bench.RunRecord(rows, steps_to_threshold, diverged=True, final_loss=loss)
            raise bench.DivergenceDetected(f"loss {loss} at step {t}", rec)
        if steps_to_threshold < 0 and loss <= bench.LOSS_THRESHOLD:
            steps_to_threshold = t
        g = full_gradient(model, x, y, cache)[0]
        if t % eval_every == 0 or t == steps:
            werr = frobenius(merged_weight(layer) - teacher) / teacher_norm
            rows.append((t, loss, werr, frobenius(g.g), state.entry_count(), t * flops_per_step))
        if t == steps:
            break
        eta_t = optim.effective_eta(cfg, t)
        step_cfg = cfg if eta_t == cfg.eta else replace(cfg, eta=eta_t)
        try:
            stepper(layer, state, g, step_cfg)
        except SingularGram as exc:
            rec = bench.RunRecord(rows, steps_to_threshold, diverged=True, final_loss=loss)
            raise bench.DivergenceDetected(f"singular Gram in the update at step {t}: {exc}", rec) from exc
    return bench.RunRecord(rows, steps_to_threshold, final_loss=loss)
