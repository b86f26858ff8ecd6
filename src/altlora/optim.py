"""Optimizers over low-rank factor pairs.

The centerpiece is the alternating scheme: each step updates exactly one
factor with a Gram-preconditioned ("scaled") gradient, and the opposite
factor's first moment is at once re-expressed in the coordinates of the
factor that moved. That realignment is what keeps the momentum's
contribution to the merged weight intact across subspace changes, and it is
what the trajectory-invariance checks in :mod:`altlora.oracle` exercise.

Scaled gradients (one factor at a time, damping lam >= 0):

    scaled_grad_a = (1/s^2) (B^T B + lam I)^-1 grad_a
    scaled_grad_b = (1/s^2) grad_b (A A^T + lam I)^-1

Momentum realignment (old -> new opposite factor):

    align_momentum_a = (Bn^T Bn + lam I)^-1 Bn^T Bo M^A
    align_momentum_b = M^B Ao An^T (An An^T + lam I)^-1

Each _b form is the transpose of its _a form on the transposed problem
(A <-> B^T, G <-> G^T). So the B-phase is the A-phase of that problem, and
one phase body serves both phases of AltLoRA and of AltLoRA+, which only
adds an elementwise second-moment transform.

Baselines (plain SGD on raw factor gradients, elementwise AdamW, a two-rate
variant, and a joint scaled-gradient stepper) share the same state record.
No stepper in this module allocates a k x d buffer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adapter import LoraLayer, gradient_array, lora_grads
from .matcore import damped_gram_inverse

A_FIRST = "a_first"
B_FIRST = "b_first"

ALTLORA = "altlora"
ALTLORA_PLUS = "altlora_plus"
LORA_SGD = "lora_sgd"
LORA_ADAM = "lora_adam"
LORA_PLUS = "lora_plus"
SCALEDGD_JOINT = "scaledgd_joint"

OPTIMIZERS = (ALTLORA, ALTLORA_PLUS, LORA_SGD, LORA_ADAM, LORA_PLUS, SCALEDGD_JOINT)
BASELINES = (LORA_SGD, LORA_ADAM, LORA_PLUS, SCALEDGD_JOINT)

# Default Gram damping; removes full-rank requirements and makes the
# standard B = 0 initialization work without branching.
DEFAULT_DAMPING = 1e-6


@dataclass
class TrainConfig:
    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    gamma: float = 0.0
    lam: float = DEFAULT_DAMPING
    order: str = B_FIRST
    steps: int = 1
    eps: float = 1e-8
    lora_plus_ratio: float = 16.0
    bias_correction: bool = True
    schedule: str = "constant"
    warmup_ratio: float = 0.0

    def __post_init__(self):
        if self.eta < 0.0:
            raise ValueError(f"learning rate must be nonnegative, got {self.eta}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if self.gamma < 0.0 or self.lam < 0.0:
            raise ValueError("gamma and lam must be nonnegative")
        if self.order not in (A_FIRST, B_FIRST):
            raise ValueError(f"order must be a_first or b_first, got {self.order!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"schedule must be constant or cosine, got {self.schedule!r}")
        if self.lora_plus_ratio <= 0.0:
            raise ValueError(f"lora_plus_ratio must be positive, got {self.lora_plus_ratio}")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ValueError(f"warmup_ratio must be in [0, 1], got {self.warmup_ratio}")


def effective_eta(cfg: TrainConfig, t: int) -> float:
    """Learning rate at step t under the configured schedule."""
    if cfg.schedule == "constant":
        return cfg.eta
    total = max(cfg.steps, 1)
    warm = int(cfg.warmup_ratio * total)
    if warm > 0 and t < warm:
        return cfg.eta * (t + 1) / warm
    span = max(total - warm, 1)
    return cfg.eta * 0.5 * (1.0 + math.cos(math.pi * (t - warm) / span))


@dataclass
class AltLoraState:
    """Per-layer optimizer state; every buffer is factor-shaped.

    ma (r x d) and mb (k x r) are first moments, each kept in the
    coordinates of the current opposite factor. va / vb are elementwise
    second moments (AltLoRA+ and Adam baselines only). t counts steps.
    """

    ma: np.ndarray
    mb: np.ndarray
    va: np.ndarray | None = None
    vb: np.ndarray | None = None
    t: int = 0

    @classmethod
    def init(cls, layer: LoraLayer, second_moment: bool = False) -> "AltLoraState":
        r, d, k = layer.r, layer.d, layer.k
        return cls(
            ma=np.zeros((r, d)),
            mb=np.zeros((k, r)),
            va=np.zeros((r, d)) if second_moment else None,
            vb=np.zeros((k, r)) if second_moment else None,
        )

    def copy(self) -> "AltLoraState":
        return AltLoraState(
            ma=self.ma.copy(),
            mb=self.mb.copy(),
            va=None if self.va is None else self.va.copy(),
            vb=None if self.vb is None else self.vb.copy(),
            t=self.t,
        )

    def entry_count(self) -> int:
        return sum([buf.size for buf in (self.ma, self.mb, self.va, self.vb) if buf is not None])

    def check_budget(self, layer: LoraLayer) -> None:
        """Assert every buffer is factor-shaped, r x d or k x r.

        Trips if any code path ever materializes a k x d optimizer buffer.
        The shape check is the whole budget: four factor-shaped buffers hold
        at most 4 max(kr, rd) < 4(kr + rd) entries.
        """
        allowed = ((layer.r, layer.d), (layer.k, layer.r))
        for buf in (self.ma, self.mb, self.va, self.vb):
            if buf is not None and buf.shape not in allowed:
                raise AssertionError(f"optimizer buffer has non-factor shape {buf.shape}")


# ---------------------------------------------------------------------------
# Scaled gradients and momentum alignment (the closed forms under test)


def scaled_grad_a(grad_a: np.ndarray, b: np.ndarray, s: float, lam: float) -> np.ndarray:
    """Preconditioned A-gradient: (1/s^2) (B^T B + lam I)^-1 grad_a."""
    tilde = damped_gram_inverse(b, "left", lam) @ grad_a
    return tilde / (s * s) if s != 1.0 else tilde  # over 1.0 is the identity on every float


def scaled_grad_b(grad_b: np.ndarray, a: np.ndarray, s: float, lam: float) -> np.ndarray:
    """Preconditioned B-gradient: (1/s^2) grad_b (A A^T + lam I)^-1.

    The transpose of scaled_grad_a on the transposed problem (A <-> B^T).
    In the alternating scheme the A passed here is the already-updated
    factor, with the gradient re-evaluated at the half-step weight.
    """
    return scaled_grad_a(grad_b.T, a.T, s, lam).T


def align_momentum_b(mb: np.ndarray, a_old: np.ndarray, a_new: np.ndarray, lam: float) -> np.ndarray:
    """Carry the B-moment from the a_old row space onto a_new's.

    Least-squares re-expression: mb a_old a_new^T (a_new a_new^T + lam I)^-1,
    the minimizer of || mb a_old - z a_new ||_F. Evaluated as the transposed
    align_momentum_a, so the k x d product mb a_old never forms.
    """
    return align_momentum_a(mb.T, a_old.T, a_new.T, lam).T


def align_momentum_a(ma: np.ndarray, b_old: np.ndarray, b_new: np.ndarray, lam: float) -> np.ndarray:
    """Mirror of align_momentum_b: (Bn^T Bn + lam I)^-1 Bn^T Bo ma."""
    return damped_gram_inverse(b_new, "left", lam) @ b_new.T @ b_old @ ma


def update_phase(t: int, order: str) -> str:
    """Which factor moves at step t under order a_first or b_first: "a" or "b"."""
    return "a" if (t % 2 == 0) == (order == A_FIRST) else "b"


def _descend(x: np.ndarray, eta: float, direction: np.ndarray, gamma: float) -> np.ndarray:
    """x - eta (direction + gamma x); the decay term is formed only when gamma != 0."""
    return x - eta * (direction + gamma * x) if gamma else x - eta * direction


# ---------------------------------------------------------------------------
# Alternating steppers


def _alternating_step(layer: LoraLayer, state: AltLoraState, g, cfg: TrainConfig, adaptive: bool):
    """One phase of altlora_step, or of altlora_plus_step when ``adaptive``.

    Written for the A-phase. The B-phase is the A-phase of the transposed
    problem (A <-> B^T, G <-> G^T): it runs on transposed views of the
    factors and moments, and stores the transposes back. m_y is the opposite
    factor's moment with r rows (mb^T or ma), as align_momentum_a takes it.
    """
    grad_a, grad_b = lora_grads(g, layer)
    a_phase = update_phase(state.t, cfg.order) == "a"
    if a_phase:
        x, y, grad, m, m_y = layer.a, layer.b, grad_a, state.ma, state.mb.T
    else:
        x, y, grad, m, m_y = layer.b.T, layer.a.T, grad_b.T, state.mb.T, state.ma
    tilde = scaled_grad_a(grad, y, layer.s, cfg.lam)
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * tilde if cfg.beta1 != 0.0 else tilde
    direction = m
    if adaptive:
        tau = state.t // 2 + 1  # this factor's update count: phases alternate from t = 0
        v = cfg.beta2 * (state.va if a_phase else state.vb.T) + (1.0 - cfg.beta2) * (tilde * tilde)
        state.va, state.vb = (v, state.vb) if a_phase else (state.va, v.T)
        c1, c2 = (1.0 - cfg.beta1**tau, 1.0 - cfg.beta2**tau) if cfg.bias_correction else (1.0, 1.0)
        direction = (m / c1) / (np.sqrt(v / c2) + cfg.eps)
    x_new = _descend(x, cfg.eta, direction, cfg.gamma)
    if cfg.beta1 != 0.0:  # x moved: align_momentum_b, in this phase's orientation
        m_y = align_momentum_a(m_y, x.T, x_new.T, cfg.lam)
    if a_phase:
        layer.a, state.ma, state.mb = x_new, m, m_y.T
    else:
        layer.b, state.mb, state.ma = x_new.T, m.T, m_y
    state.t += 1
    state.check_budget(layer)
    return layer, state


def altlora_step(layer: LoraLayer, state: AltLoraState, g, cfg: TrainConfig):
    """One alternating step with first-moment momentum.

    Updates exactly one factor (phase set by t and cfg.order): the raw
    factor gradient is Gram-preconditioned, mixed with beta1 into the
    factor's moment, and applied with decoupled weight decay. The opposite
    factor's moment is then realigned to the factor that moved.
    """
    return _alternating_step(layer, state, g, cfg, adaptive=False)


def altlora_plus_step(layer: LoraLayer, state: AltLoraState, g, cfg: TrainConfig):
    """Alternating step with AdamW-style elementwise second moments.

    First moments are realigned exactly as in altlora_step; second moments
    are plain elementwise EMAs of the squared scaled gradient and are NOT
    subspace-realigned, which is why this variant gives up transformation
    invariance. Bias correction (per-factor update counts, t // 2 + 1) is on
    by default behind cfg.bias_correction.
    """
    if state.va is None or state.vb is None:
        raise ValueError("altlora_plus_step needs a state built with second_moment=True")
    return _alternating_step(layer, state, g, cfg, adaptive=True)


# ---------------------------------------------------------------------------
# Baselines


def baseline_step(kind: str, layer: LoraLayer, state: AltLoraState, g, cfg: TrainConfig):
    """One joint step of a baseline optimizer (both factors move at once)."""
    grad_a, grad_b = lora_grads(g, layer)
    if kind in (LORA_SGD, LORA_PLUS):
        eta_b = cfg.lora_plus_ratio * cfg.eta if kind == LORA_PLUS else cfg.eta
        layer.a = _descend(layer.a, cfg.eta, grad_a, cfg.gamma)
        layer.b = _descend(layer.b, eta_b, grad_b, cfg.gamma)
    elif kind == LORA_ADAM:
        if state.va is None or state.vb is None:
            raise ValueError("lora_adam needs a state built with second_moment=True")
        tau = state.t + 1
        state.ma = cfg.beta1 * state.ma + (1.0 - cfg.beta1) * grad_a
        state.va = cfg.beta2 * state.va + (1.0 - cfg.beta2) * (grad_a * grad_a)
        state.mb = cfg.beta1 * state.mb + (1.0 - cfg.beta1) * grad_b
        state.vb = cfg.beta2 * state.vb + (1.0 - cfg.beta2) * (grad_b * grad_b)
        c1, c2 = (1.0 - cfg.beta1**tau, 1.0 - cfg.beta2**tau) if cfg.bias_correction else (1.0, 1.0)
        dir_a = (state.ma / c1) / (np.sqrt(state.va / c2) + cfg.eps)
        dir_b = (state.mb / c1) / (np.sqrt(state.vb / c2) + cfg.eps)
        layer.a = _descend(layer.a, cfg.eta, dir_a, cfg.gamma)
        layer.b = _descend(layer.b, cfg.eta, dir_b, cfg.gamma)
    elif kind == SCALEDGD_JOINT:
        # Both scaled gradients from the same G at the same point; this is
        # the stepper whose merged-weight update carries the eta^2 cross
        # term that the alternating scheme avoids. Momentum, when enabled,
        # is a plain EMA on the scaled gradients (no realignment).
        tilde_a = scaled_grad_a(grad_a, layer.b, layer.s, cfg.lam)
        tilde_b = scaled_grad_b(grad_b, layer.a, layer.s, cfg.lam)
        if cfg.beta1 != 0.0:
            state.ma = cfg.beta1 * state.ma + (1.0 - cfg.beta1) * tilde_a
            state.mb = cfg.beta1 * state.mb + (1.0 - cfg.beta1) * tilde_b
        else:
            state.ma, state.mb = tilde_a, tilde_b
        layer.a = _descend(layer.a, cfg.eta, state.ma, cfg.gamma)
        layer.b = _descend(layer.b, cfg.eta, state.mb, cfg.gamma)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    state.t += 1
    state.check_budget(layer)
    return layer, state


def make_state(kind: str, layer: LoraLayer) -> AltLoraState:
    """State record sized for the given optimizer kind."""
    needs_second = kind in (ALTLORA_PLUS, LORA_ADAM)
    return AltLoraState.init(layer, second_moment=needs_second)


def make_stepper(kind: str):
    """Uniform stepping callable (layer, state, g, cfg) for any optimizer."""
    if kind == ALTLORA:
        return altlora_step
    if kind == ALTLORA_PLUS:
        return altlora_plus_step
    if kind in BASELINES:
        return functools.partial(baseline_step, kind)
    raise ValueError(f"unknown optimizer kind {kind!r}")


# ---------------------------------------------------------------------------
# Reference: the joint-update equivalent gradient with an ancillary matrix


def lorapro_equiv_grad(g, layer: LoraLayer, x_aux: np.ndarray, lam: float):
    """Joint-update gradient pair parameterized by an ancillary r x r matrix.

        g_a = (1/s) (B^T B + lam I)^-1 B^T G + X A
        g_b = (1/s) [I - B (B^T B + lam I)^-1 B^T] G A^T (A A^T + lam I)^-1 - B X

    The induced merged-weight change s B g_a + s g_b A is independent of X:
    the ancillary matrix only redistributes the update between the factors.
    """
    gm = gradient_array(g)
    a, b, s = layer.a, layer.b, layer.s
    binv = damped_gram_inverse(b, "left", lam)
    ainv = damped_gram_inverse(a, "right", lam)
    bt_g = b.T @ gm
    g_a = binv @ bt_g / s + x_aux @ a
    g_b = (gm - b @ (binv @ bt_g)) @ a.T @ ainv / s - b @ x_aux
    return g_a, g_b


def equivalent_gradient(g_a: np.ndarray, g_b: np.ndarray, layer: LoraLayer) -> np.ndarray:
    """Merged-weight change rate induced by a factor gradient pair."""
    return layer.s * (layer.b @ g_a) + layer.s * (g_b @ layer.a)
