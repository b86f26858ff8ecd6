"""The earlier training pass, kept as a reference.

`bench.run_experiment` now runs one `adapter.training_pass` per step, which
forms the residual Y - T once for both the loss and dY; and `forward`, the
factored `lora_grads` and `scaled_grad_a` skip the scale s = alpha / r
when it is 1.0. The functions here are the formulations they replaced:
forward, then mse_loss, then full_gradient, with s always applied. The
tests check that every output bit stayed the same.
"""

import math
from dataclasses import replace

import numpy as np

from altlora import bench, optim
from altlora.adapter import LINEAR_REGRESSION, FullGradient, merged_weight
from altlora.matcore import SingularGram, damped_gram_inverse, frobenius


def forward(model, x):
    layer = model.layer
    ax = np.dot(layer.a, x)
    z = np.dot(layer.b, ax)
    z *= layer.s
    z += model._base_product(x)
    y = z if model.kind == LINEAR_REGRESSION else np.dot(model.w2, np.maximum(z, 0.0))
    return y, {"z": z, "y": y, "ax": (layer.a, x, ax)}


def mse_loss(y, target):
    diff = y - target
    return float(np.add.reduce(np.square(diff, out=diff), axis=None) / y.shape[1])


def full_gradient(model, x, target, cache):
    dy = cache["y"] - target
    dy *= 2.0 / x.shape[1]
    if model.kind == LINEAR_REGRESSION:
        return [FullGradient(dy, x, cache.get("ax"))]
    dz = model.w2.T @ dy
    dz *= cache["z"] > 0.0
    return [FullGradient(dz, x, cache.get("ax"))]


def lora_grads(g, layer):
    """The factored path only, as the runner calls it."""
    s, a, b = layer.s, layer.a, layer.b
    u, v, held = g.u, g.v, g.ax
    reuse = held is not None and held[0] is a and held[1] is v
    av = held[2] if reuse else np.dot(a, v)
    return np.dot(s * np.dot(b.T, u), v.T), np.dot(u, (s * av).T)


def scaled_grad_a(grad_a, b, s, lam):
    return damped_gram_inverse(b, "left", lam) @ grad_a / (s * s)


def run_experiment(spec):
    """The runner loop: forward, mse_loss and full_gradient on every pass.

    The steppers are the library's; run it with `optim.lora_grads` and
    `optim.scaled_grad_a` replaced by the ones above for the whole
    reference.
    """
    task = bench.generate_task(spec)
    model, x, y = task.model, task.x, task.y
    cfg = spec.train
    stepper = optim.make_stepper(spec.optimizer)
    state = optim.make_state(spec.optimizer, model.layer)
    model.cache_base(x)
    flops_per_step = bench._task_flops(spec) + bench._optimizer_flops(spec)
    teacher_norm = max(frobenius(task.teacher_weight), 1e-300)

    layer, steps, eval_every = model.layer, cfg.steps, spec.eval_every
    rows = []
    steps_to_threshold = -1
    loss = math.nan
    for t in range(steps + 1):
        y_hat, cache = forward(model, x)
        loss = mse_loss(y_hat, y)
        if not math.isfinite(loss) or loss > bench.DIVERGENCE_LIMIT:
            rec = bench.RunRecord(rows, steps_to_threshold, diverged=True, final_loss=loss)
            raise bench.DivergenceDetected(f"loss {loss} at step {t}", rec)
        if steps_to_threshold < 0 and loss <= bench.LOSS_THRESHOLD:
            steps_to_threshold = t
        g = full_gradient(model, x, y, cache)[0]
        if t % eval_every == 0 or t == steps:
            werr = frobenius(merged_weight(layer) - task.teacher_weight) / teacher_norm
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
