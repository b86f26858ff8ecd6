"""Optimizers over low-rank factor pairs.

The centerpiece is the alternating scheme: each step updates exactly one
factor with a Gram-preconditioned ("scaled") gradient, and the opposite
factor's first moment is at once re-expressed in the coordinates of the
factor that moved. That realignment keeps the momentum's contribution to the
merged weight intact across subspace changes, and it is what the
trajectory-invariance checks in :mod:`altlora.oracle` exercise.

    scaled_grad_a = (1/s^2) (B^T B + lam I)^-1 grad_a       (damping lam >= 0)
    scaled_grad_b = (1/s^2) grad_b (A A^T + lam I)^-1
    align_momentum_a = (Bn^T Bn + lam I)^-1 Bn^T Bo M^A      (old -> new B)
    align_momentum_b = M^B Ao An^T (An An^T + lam I)^-1      (old -> new A)

Each _b form is the _a form of the transposed problem (A <-> B^T, G <-> G^T).
So one factor move, _move (moment, then descent, on an already scaled
gradient), written for A, serves every optimizer, and every row of the one
table, _RULES, moves B as A of the transposed problem. The baselines (SGD on
the raw factor gradients, its two-rate LoRA+ variant, elementwise AdamW and
the joint scaled-gradient step) share the state record and move both factors
from one G with parts of the move off; AltLoRA+ adds the elementwise second
moment.
No stepper allocates a k x d buffer.

Every stepper also steps a stack of S runs (arrays with a leading axis
(S, ...), the state built for it) in lockstep under one cfg and one t, so one
phase, learning rate and bias correction hold for all: each slice ends bit for
bit where it would alone, and a singular Gram in any slice fails the stack.
Every Gram inverse comes from _left_gram_inverse, the one place that routes a
stack past the public damped_gram_inverse.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
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


def _left_gram_inverse(y: np.ndarray, lam: float) -> np.ndarray:
    """(y^T y + lam I)^-1 for the steppers: damped_gram_inverse for a matrix, and for a stack
    its private body matcore._gram_inverse, since perfbench's FLOP hook on the public name reads a 2-D shape."""
    return (damped_gram_inverse if y.ndim == 2 else _gram_inverse)(y, "left", lam)


def update_phase(t: int, order: str) -> str:
    """Which factor moves at step t under order a_first or b_first: "a" or "b"."""
    return "a" if (t % 2 == 0) == (order == A_FIRST) else "b"


# ---------------------------------------------------------------------------
# The six optimizers: one rule table, one factor move, one step


# One row per optimizer, read by make_state and _step; OPTIMIZERS is its keys in order and
# BASELINES its rows that are not alternating. alternating: one factor per step, the phase
# from (t, order), with momentum; else both move from one G. precondition: the Gram-scaled
# gradient. momentum: the beta1 EMA. adaptive: the elementwise second moment (a row with it
# has momentum). lora_plus: B moves at lora_plus_ratio * eta.
_Rule = namedtuple("_Rule", "alternating precondition momentum adaptive lora_plus")
_RULES = {  # alternating, precondition, momentum, adaptive, lora_plus
    ALTLORA: _Rule(True, True, True, False, False),
    ALTLORA_PLUS: _Rule(True, True, True, True, False),
    LORA_SGD: _Rule(False, False, False, False, False),
    LORA_ADAM: _Rule(False, False, True, True, False),
    LORA_PLUS: _Rule(False, False, False, False, True),
    SCALEDGD_JOINT: _Rule(False, True, True, False, False),
}
OPTIMIZERS = tuple(_RULES)
BASELINES = tuple(kind for kind, rule in _RULES.items() if not rule.alternating)


def _move(x, grad, m, v, tau: int, eta: float, cfg: TrainConfig):
    """One factor's move, written for A: (x_new, m, v) after its gradient grad, already
    Gram-scaled on a row that preconditions. The moment rule of every stepper: without m the
    direction is grad; with m it is m, the beta1 EMA of grad (grad itself at beta1 = 0), or,
    given a second moment v (the beta2 EMA of grad^2), the AdamW m_hat / (sqrt(v_hat) + eps),
    bias corrected for update count tau when cfg.bias_correction is on. The descent is
    x - eta (direction + gamma x), its decay term formed only when gamma != 0."""
    if m is not None:
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad if cfg.beta1 != 0.0 else grad
        if v is not None:
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * (grad * grad)
            c1, c2 = (1.0 - cfg.beta1**tau, 1.0 - cfg.beta2**tau) if cfg.bias_correction else (1.0, 1.0)
        grad = m if v is None else (m / c1) / (np.sqrt(v / c2) + cfg.eps)
    return (x - eta * (grad + cfg.gamma * x) if cfg.gamma else x - eta * grad), m, v


def _fixed_inverse(layer: LoraLayer, y: np.ndarray, turn: bool, lam: float) -> np.ndarray:
    """(y^T y + lam I)^-1, of y.mT when turn: the memo entry "gram" if it holds y's, else fresh."""
    inv = layer._held("gram", y, lam)
    return inv if inv is not None else _left_gram_inverse(y.mT if turn else y, lam)


def _step(kind: str, layer: LoraLayer, state: AltLoraState, g: FullGradient, cfg: TrainConfig):
    """One step of optimizer kind: its row of _RULES, each moving factor through _move.

    Every row moves B as A of the transposed problem (A <-> B^T, G <-> G^T),
    on .mT views bound back. Every gradient and Gram inverse is taken before
    anything moves, so a SingularGram leaves the layer and the state
    untouched; a row that preconditions rebinds each gradient to its scaled
    form where it takes the inverse, so the raw one is freed before the move,
    and a joint row frees A's gradient before B moves. An alternating row at
    beta1 != 0 then realigns the other moment to the moved factor, whose
    inverse becomes the memo entry "gram", keyed on the array bound to the
    factor and on the cfg.lam object.
    """
    alternating, precondition, momentum, adaptive, lora_plus = _RULES[kind]
    if adaptive and (state.va is None or state.vb is None):
        raise ValueError(f"{kind} needs a state built with second_moment=True")
    a, b, lam = layer.a, layer.b, cfg.lam
    if alternating:  # only the moving factor's gradient; tau is its own update count
        moves_a = update_phase(state.t, cfg.order) == "a"
        grad_a, grad_b = (lora_grad_a(g, layer), None) if moves_a else (None, lora_grad_b(g, layer))
        tau = state.t // 2 + 1
    else:
        (grad_a, grad_b), tau = lora_grads(g, layer), state.t + 1
    grad_b = grad_b if grad_b is None else grad_b.mT
    if precondition:  # layer.s enters only with a Gram
        if grad_a is not None:
            grad_a = precondition_a(_fixed_inverse(layer, b, False, lam), grad_a, layer.s)
        if grad_b is not None:
            grad_b = precondition_a(_fixed_inverse(layer, a, True, lam), grad_b, layer.s)
    if grad_a is not None:
        layer.a, ma, va = _move(a, grad_a, state.ma if momentum else None, state.va if adaptive else None,
                                tau, cfg.eta, cfg)
        if momentum:
            state.ma, state.va = ma, va if adaptive else state.va
        del grad_a  # a joint row's B move need not hold it
    if grad_b is not None:
        eta = cfg.lora_plus_ratio * cfg.eta if lora_plus else cfg.eta
        x, mb, vb = _move(b.mT, grad_b, state.mb.mT if momentum else None, state.vb.mT if adaptive else None,
                          tau, eta, cfg)
        layer.b = x.mT  # the one array that also keys the realignment's memo entry
        if momentum:
            state.mb, state.vb = mb.mT, vb.mT if adaptive else state.vb
    if alternating and cfg.beta1 != 0.0:
        if moves_a:
            a_inv = layer._product("gram", layer.a, lam, _left_gram_inverse, layer.a.mT, lam)
            state.mb = realign_a(a_inv, state.mb.mT, a.mT, layer.a.mT).mT
        else:
            b_inv = layer._product("gram", layer.b, lam, _left_gram_inverse, layer.b, lam)
            state.ma = realign_a(b_inv, state.ma, b, layer.b)
    state.t += 1
    state.check_budget(layer)


def altlora_step(layer: LoraLayer, state: AltLoraState, g: FullGradient, cfg: TrainConfig):
    """One alternating step with first-moment momentum, for the FullGradient g.

    Updates exactly one factor (phase set by t and cfg.order): the raw
    factor gradient is Gram-preconditioned, mixed with beta1 into the
    factor's moment, and applied with decoupled weight decay. The opposite
    factor's moment is then realigned to the factor that moved.
    """
    _step(ALTLORA, layer, state, g, cfg)


def altlora_plus_step(layer: LoraLayer, state: AltLoraState, g: FullGradient, cfg: TrainConfig):
    """Alternating step with AdamW-style elementwise second moments, for the FullGradient g.

    First moments are realigned exactly as in altlora_step; second moments
    are plain elementwise EMAs of the squared scaled gradient and are NOT
    subspace-realigned, which is why this variant gives up transformation
    invariance. Bias correction (per-factor update counts, t // 2 + 1) is on
    by default behind cfg.bias_correction.
    """
    _step(ALTLORA_PLUS, layer, state, g, cfg)


def baseline_step(kind: str, layer: LoraLayer, state: AltLoraState, g: FullGradient, cfg: TrainConfig):
    """One joint step of a baseline optimizer (both factors move at once) for the FullGradient g.
    scaledgd_joint's merged-weight update carries the eta^2 cross term that alternating avoids."""
    if kind not in BASELINES:
        raise ValueError(f"unknown baseline kind {kind!r}")
    _step(kind, layer, state, g, cfg)


def make_state(kind: str, layer: LoraLayer) -> AltLoraState:
    """State record sized for the given optimizer kind."""
    if kind not in _RULES:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return AltLoraState.init(layer, second_moment=_RULES[kind].adaptive)


def make_stepper(kind: str):
    """Uniform stepping callable (layer, state, g, cfg) for any optimizer. A step
    returns None: it rebinds the layer's factors and updates the state in place."""
    if kind not in _RULES:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return {ALTLORA: altlora_step, ALTLORA_PLUS: altlora_plus_step}.get(kind) or functools.partial(baseline_step, kind)


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
