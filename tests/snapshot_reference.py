"""The earlier alternating stepper, which realigned each moment lazily.

It kept a snapshot of each factor (prev_a, prev_b) and realigned a moment
only when its own factor next moved, against the snapshot of the opposite
factor; per-factor update counters (tau_a, tau_b) drove bias correction.
`optim` now realigns the opposite moment as soon as a factor moves and
keeps no snapshots, so the tests can check that the trajectories agree.
"""

from dataclasses import dataclass

import numpy as np

from altlora.adapter import lora_grads
from altlora.optim import align_momentum_a, scaled_grad_a, update_phase


@dataclass
class SnapshotState:
    ma: np.ndarray
    mb: np.ndarray
    prev_a: np.ndarray
    prev_b: np.ndarray
    va: np.ndarray | None = None
    vb: np.ndarray | None = None
    t: int = 0
    tau_a: int = 0
    tau_b: int = 0

    @classmethod
    def init(cls, layer, second_moment=False):
        r, d, k = layer.r, layer.d, layer.k
        return cls(
            ma=np.zeros((r, d)),
            mb=np.zeros((k, r)),
            prev_a=layer.a.copy(),
            prev_b=layer.b.copy(),
            va=np.zeros((r, d)) if second_moment else None,
            vb=np.zeros((k, r)) if second_moment else None,
        )


def _descend(x, eta, direction, gamma):
    return x - eta * (direction + gamma * x) if gamma else x - eta * direction


def alternating_step(layer, state, g, cfg, adaptive):
    grad_a, grad_b = lora_grads(g, layer)
    a_phase = update_phase(state.t, cfg.order) == "a"
    if a_phase:
        x, y, grad, m, prev_y = layer.a, layer.b, grad_a, state.ma, state.prev_b
    else:
        x, y, grad, m, prev_y = layer.b.T, layer.a.T, grad_b.T, state.mb.T, state.prev_a.T
    tilde = scaled_grad_a(grad, y, layer.s, cfg.lam)
    if cfg.beta1 != 0.0:
        m = cfg.beta1 * align_momentum_a(m, prev_y, y, cfg.lam) + (1.0 - cfg.beta1) * tilde
    else:
        m = tilde
    direction = m
    tau = (state.tau_a if a_phase else state.tau_b) + 1
    if adaptive:
        v = cfg.beta2 * (state.va if a_phase else state.vb.T) + (1.0 - cfg.beta2) * (tilde * tilde)
        state.va, state.vb = (v, state.vb) if a_phase else (state.va, v.T)
        c1, c2 = (1.0 - cfg.beta1**tau, 1.0 - cfg.beta2**tau) if cfg.bias_correction else (1.0, 1.0)
        direction = (m / c1) / (np.sqrt(v / c2) + cfg.eps)
    x = _descend(x, cfg.eta, direction, cfg.gamma)
    if a_phase:
        layer.a, state.ma, state.tau_a, state.prev_b = x, m, tau, layer.b.copy()
    else:
        layer.b, state.mb, state.tau_b, state.prev_a = x.T, m.T, tau, layer.a.copy()
    state.t += 1
    return layer, state
