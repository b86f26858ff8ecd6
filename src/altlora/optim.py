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
One moment rule, _moments, serves every stepper: the beta1 EMA and, for
AltLoRA+ and AdamW, the bias-corrected elementwise second-moment direction.
No stepper in this module allocates a k x d buffer.

Every stepper also steps a stack of S runs (a layer whose arrays carry a
leading axis (S, ...), with the state built for it): the runs move in
lockstep under one cfg and one shared t, so one phase, one learning rate
and one bias correction hold for all of them, and each slice ends bit for
bit where it would alone. A singular Gram in any slice fails the stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adapter import FullGradient, LoraLayer, _factors, lora_grad_a, lora_grad_b, lora_grads
from .matcore import _gram_inverse, damped_gram_inverse

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
        for name in ("eta", "gamma", "lam", "eps", "lora_plus_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    """Per-layer optimizer state: the factor-shaped moments and t.

    ma (r x d) and mb (k x r) are first moments, each kept in the
    coordinates of the current opposite factor. va / vb are elementwise
    second moments (AltLoRA+ and Adam baselines only). t counts steps.
    init shapes each buffer as its factor, leading axes included.
    """

    ma: np.ndarray
    mb: np.ndarray
    va: np.ndarray | None = None
    vb: np.ndarray | None = None
    t: int = 0

    @classmethod
    def init(cls, layer: LoraLayer, second_moment: bool = False) -> "AltLoraState":
        return cls(
            ma=np.zeros(layer.a.shape),
            mb=np.zeros(layer.b.shape),
            va=np.zeros(layer.a.shape) if second_moment else None,
            vb=np.zeros(layer.b.shape) if second_moment else None,
        )

    def entry_count(self) -> int:
        return sum([buf.size for buf in (self.ma, self.mb, self.va, self.vb) if buf is not None])

    def check_budget(self, layer: LoraLayer) -> None:
        """Assert every buffer has its slot's exact shape.

        ma and va are r x d, mb and vb are k x r, each behind the layer's
        leading axes. Trips if any code path ever materializes a k x d
        optimizer buffer or puts a buffer in the wrong slot. The shape check
        is the whole budget: 2(kr + rd) entries per run.
        """
        lead, r = layer.a.shape[:-2], layer.r
        a_shape, b_shape = lead + (r, layer.d), lead + (layer.k, r)
        slots = (("ma", self.ma, a_shape), ("va", self.va, a_shape), ("mb", self.mb, b_shape),
                 ("vb", self.vb, b_shape))
        for name, buf, shape in slots:
            if buf is not None and buf.shape != shape:
                raise AssertionError(f"optimizer buffer {name} has non-factor shape {buf.shape}, not {shape}")


# ---------------------------------------------------------------------------
# Scaled gradients and momentum alignment (the closed forms under test)


def precondition_a(inv: np.ndarray, grad_a: np.ndarray, s: float) -> np.ndarray:
    """scaled_grad_a given its Gram inverse: (1/s^2) inv grad_a."""
    tilde = inv @ grad_a
    return tilde / (s * s) if s != 1.0 else tilde  # over 1.0 is the identity on every float


def scaled_grad_a(grad_a: np.ndarray, b: np.ndarray, s: float, lam: float) -> np.ndarray:
    """Preconditioned A-gradient: (1/s^2) (B^T B + lam I)^-1 grad_a."""
    return precondition_a(damped_gram_inverse(b, "left", lam), grad_a, s)


def scaled_grad_b(grad_b: np.ndarray, a: np.ndarray, s: float, lam: float) -> np.ndarray:
    """Preconditioned B-gradient: (1/s^2) grad_b (A A^T + lam I)^-1.

    The transpose of scaled_grad_a on the transposed problem (A <-> B^T).
    In the alternating scheme the A passed here is the already-updated
    factor, with the gradient re-evaluated at the half-step weight.
    """
    return scaled_grad_a(grad_b.mT, a.mT, s, lam).mT


def align_momentum_b(mb: np.ndarray, a_old: np.ndarray, a_new: np.ndarray, lam: float) -> np.ndarray:
    """Carry the B-moment from the a_old row space onto a_new's.

    Least-squares re-expression: mb a_old a_new^T (a_new a_new^T + lam I)^-1,
    the minimizer of || mb a_old - z a_new ||_F. Evaluated as the transposed
    align_momentum_a, so the k x d product mb a_old never forms.
    """
    return align_momentum_a(mb.mT, a_old.mT, a_new.mT, lam).mT


def realign_a(inv: np.ndarray, ma: np.ndarray, b_old: np.ndarray, b_new: np.ndarray) -> np.ndarray:
    """align_momentum_a given its Gram inverse: inv Bn^T Bo ma."""
    return inv @ b_new.mT @ b_old @ ma


def align_momentum_a(ma: np.ndarray, b_old: np.ndarray, b_new: np.ndarray, lam: float) -> np.ndarray:
    """Mirror of align_momentum_b: (Bn^T Bn + lam I)^-1 Bn^T Bo ma."""
    return realign_a(damped_gram_inverse(b_new, "left", lam), ma, b_old, b_new)


def update_phase(t: int, order: str) -> str:
    """Which factor moves at step t under order a_first or b_first: "a" or "b"."""
    return "a" if (t % 2 == 0) == (order == A_FIRST) else "b"


def _descend(x: np.ndarray, eta: float, direction: np.ndarray, gamma: float) -> np.ndarray:
    """x - eta (direction + gamma x); the decay term is formed only when gamma != 0."""
    return x - eta * (direction + gamma * x) if gamma else x - eta * direction


def _moments(m: np.ndarray, grad: np.ndarray, cfg: TrainConfig, v: np.ndarray | None = None, tau: int = 1):
    """(m, v, direction) after one gradient: the moment rule of every stepper.

    m is the beta1 EMA of grad (grad itself at beta1 = 0). The direction is
    m, or, given a second moment v (the beta2 EMA of grad^2), the AdamW
    m_hat / (sqrt(v_hat) + eps), bias corrected for update count tau when
    cfg.bias_correction is on.
    """
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad if cfg.beta1 != 0.0 else grad
    if v is None:
        return m, None, m
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * (grad * grad)
    c1, c2 = (1.0 - cfg.beta1**tau, 1.0 - cfg.beta2**tau) if cfg.bias_correction else (1.0, 1.0)
    return m, v, (m / c1) / (np.sqrt(v / c2) + cfg.eps)


# ---------------------------------------------------------------------------
# Alternating steppers


def _alternating_step(layer: LoraLayer, state: AltLoraState, g: FullGradient, cfg: TrainConfig, adaptive: bool):
    """One phase of altlora_step, or of altlora_plus_step when ``adaptive``.

    Written for the A-phase. The B-phase is the A-phase of the transposed
    problem (A <-> B^T, G <-> G^T): it runs on transposed views of the
    factors and moments, and stores the transposes back. m_y is the opposite
    factor's moment with r rows (mb^T or ma), as align_momentum_a takes it.

    Only the moving factor's gradient is formed. The Gram inverse of the
    fixed factor y is the carried one, else a fresh one. With beta1 != 0 the
    realignment's inverse for the moved factor is the layer's memo entry
    "gram", keyed on the array bound to layer.a or layer.b and on the cfg.lam
    object: an equal lam in another float misses and recomputes the same bits.
    """
    a_phase = update_phase(state.t, cfg.order) == "a"
    if a_phase:
        x, y, y_bound, m, m_y = layer.a, layer.b, layer.b, state.ma, state.mb.mT
        grad = lora_grad_a(g, layer)
    else:
        x, y, y_bound, m, m_y = layer.b.mT, layer.a.mT, layer.a, state.mb.mT, state.ma
        grad = lora_grad_b(g, layer).mT
    # a stack skips the public name, whose perfbench FLOP hook reads a 2-D shape
    inverse = damped_gram_inverse if x.ndim == 2 else _gram_inverse
    y_inv = layer._held("gram", y_bound, cfg.lam)
    if y_inv is None:
        y_inv = inverse(y, "left", cfg.lam)
    tilde = precondition_a(y_inv, grad, layer.s)
    v = (state.va if a_phase else state.vb.mT) if adaptive else None
    m, v, direction = _moments(m, tilde, cfg, v, state.t // 2 + 1)  # tau: this factor's update count
    if adaptive:
        state.va, state.vb = (v, state.vb) if a_phase else (state.va, v.mT)
    x_new = _descend(x, cfg.eta, direction, cfg.gamma)
    x_bound = x_new if a_phase else x_new.mT  # the array layer.a or layer.b is bound to
    if cfg.beta1 != 0.0:  # x moved: align_momentum_b, in this phase's orientation
        x_inv = layer._product("gram", x_bound, cfg.lam, inverse, x_new.mT, "left", cfg.lam)
        m_y = realign_a(x_inv, m_y, x.mT, x_new.mT)
    if a_phase:
        layer.a, state.ma, state.mb = x_bound, m, m_y.mT
    else:
        layer.b, state.mb, state.ma = x_bound, m.mT, m_y
    state.t += 1
    state.check_budget(layer)


def altlora_step(layer: LoraLayer, state: AltLoraState, g: FullGradient, cfg: TrainConfig):
    """One alternating step with first-moment momentum, for the FullGradient g.

    Updates exactly one factor (phase set by t and cfg.order): the raw
    factor gradient is Gram-preconditioned, mixed with beta1 into the
    factor's moment, and applied with decoupled weight decay. The opposite
    factor's moment is then realigned to the factor that moved.
    """
    _alternating_step(layer, state, g, cfg, adaptive=False)


def altlora_plus_step(layer: LoraLayer, state: AltLoraState, g: FullGradient, cfg: TrainConfig):
    """Alternating step with AdamW-style elementwise second moments, for the FullGradient g.

    First moments are realigned exactly as in altlora_step; second moments
    are plain elementwise EMAs of the squared scaled gradient and are NOT
    subspace-realigned, which is why this variant gives up transformation
    invariance. Bias correction (per-factor update counts, t // 2 + 1) is on
    by default behind cfg.bias_correction.
    """
    if state.va is None or state.vb is None:
        raise ValueError("altlora_plus_step needs a state built with second_moment=True")
    _alternating_step(layer, state, g, cfg, adaptive=True)


# ---------------------------------------------------------------------------
# Baselines


def baseline_step(kind: str, layer: LoraLayer, state: AltLoraState, g: FullGradient, cfg: TrainConfig):
    """One joint step of a baseline optimizer (both factors move at once) for the FullGradient g."""
    grad_a, grad_b = lora_grads(g, layer)
    eta_b = cfg.eta
    if kind in (LORA_SGD, LORA_PLUS):
        dir_a, dir_b = grad_a, grad_b
        if kind == LORA_PLUS:
            eta_b = cfg.lora_plus_ratio * cfg.eta
    elif kind == LORA_ADAM:
        if state.va is None or state.vb is None:
            raise ValueError("lora_adam needs a state built with second_moment=True")
        state.ma, state.va, dir_a = _moments(state.ma, grad_a, cfg, state.va, state.t + 1)
        state.mb, state.vb, dir_b = _moments(state.mb, grad_b, cfg, state.vb, state.t + 1)
    elif kind == SCALEDGD_JOINT:
        # Both scaled gradients from the same G at the same point; this is
        # the stepper whose merged-weight update carries the eta^2 cross
        # term that the alternating scheme avoids. Momentum, when enabled,
        # is a plain EMA on the scaled gradients (no realignment).
        tilde_a = scaled_grad_a(grad_a, layer.b, layer.s, cfg.lam)
        tilde_b = scaled_grad_b(grad_b, layer.a, layer.s, cfg.lam)
        state.ma, _, dir_a = _moments(state.ma, tilde_a, cfg)
        state.mb, _, dir_b = _moments(state.mb, tilde_b, cfg)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    layer.a = _descend(layer.a, cfg.eta, dir_a, cfg.gamma)
    layer.b = _descend(layer.b, eta_b, dir_b, cfg.gamma)
    state.t += 1
    state.check_budget(layer)


def make_state(kind: str, layer: LoraLayer) -> AltLoraState:
    """State record sized for the given optimizer kind."""
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return AltLoraState.init(layer, second_moment=kind in (ALTLORA_PLUS, LORA_ADAM))


def make_stepper(kind: str):
    """Uniform stepping callable (layer, state, g, cfg) for any optimizer. A step
    returns None: it rebinds the layer's factors and updates the state in place."""
    if kind == ALTLORA:
        return altlora_step
    if kind == ALTLORA_PLUS:
        return altlora_plus_step
    if kind in BASELINES:
        return functools.partial(baseline_step, kind)
    raise ValueError(f"unknown optimizer kind {kind!r}")


# ---------------------------------------------------------------------------
# Reference: the joint-update equivalent gradient with an ancillary matrix


def lorapro_equiv_grad(g: FullGradient, layer: LoraLayer, x_aux: np.ndarray, lam: float):
    """Joint-update gradient pair parameterized by an ancillary r x r matrix.

        g_a = (1/s) (B^T B + lam I)^-1 B^T G + X A
        g_b = (1/s) [I - B (B^T B + lam I)^-1 B^T] G A^T (A A^T + lam I)^-1 - B X

    The induced merged-weight change s B g_a + s g_b A is independent of X:
    the ancillary matrix only redistributes the update between the factors.
    G is the dense form g.g of the FullGradient g.
    """
    _factors(g, layer)  # the kernels' check: a FullGradient whose shapes fit the layer
    gm = g.g
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
