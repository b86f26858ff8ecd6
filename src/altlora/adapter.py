"""Low-rank adapted layers and the two hand-differentiated toy models.

A layer holds a frozen base weight W0 plus trainable factors A (r x d) and
B (k x r) with scaling s = alpha / r; the effective weight is W0 + s B A.
The toy models (a linear regression head and a two-layer ReLU network with
an adapted first layer) come with manual forward/backward for MSE, which
supplies the loss gradient with respect to the merged weight as the factors
of G = dZ X^T, so no training pass forms a k x d array. A linear head may
train toward a FactoredTarget, whose pass does not form W0 X either, and
past SQUARE_CHUNK residual entries per run no k x m array at all.

Leading axis: every array of a layer, a model, a batch and a gradient may
carry a leading run axis (S, ...), and the pass then runs S independent runs
at once, each slice bit for bit what it would be alone. The scale alpha is
one float for the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .matcore import SQUARE_CHUNK, RandomStream, ShapeMismatch, as_matrix, frobenius, jacobi_svd, sum_of_squares

INIT_POLICIES = ("gaussian", "kaiming", "spectral", "zero")
_F64 = np.dtype(np.float64)

# The pass multiplies matrices with np.dot, the BLAS call @ makes without
# matmul's dispatch. np.dot has no stacked form, so a stack takes np.matmul.
# The two agree bit for bit on finite operands (tests/test_adapter.py); they
# differ only on inf or signed-zero entries at an inner dimension of 1 with a
# vector result, where the pass keeps np.dot's bits.


@dataclass
class LoraLayer:
    """Frozen base weight plus trainable low-rank factors.

    w0: k x d, never mutated by optimizer steps.
    a:  r x d trainable; b: k x r trainable.
    alpha: scaling numerator, positive and finite whenever it is bound; the
    applied factor is s = alpha / r.
    A stack of S runs gives each array a leading axis (S, ...).
    w0, a and b are bound read-only: a step rebinds a factor, never writes it.

    _memo, the library's one memo, is read by _held and written, frozen, by
    _product alone; each entry (first, second, product) keys on the identity of
    first and second: W0 X, A X, X QX^T (A X, target), X vx^T (x, target), R_P
    (B, target) and the Gram carry (factor, lam, inverse); rebinding alpha, which
    R_P reads, empties it. _work, never in it, holds what never leaves a pass: a
    compressed pass's QX and R_P QX.
    """

    w0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    alpha: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _work: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        if name == "alpha":  # checked before the memo is touched, so a rejected value changes nothing
            if not 0.0 < value < np.inf:
                raise ValueError(f"alpha must be positive and finite, got {value}")
            self.__dict__.get("_memo", {}).clear()
        object.__setattr__(self, name, _frozen(value) if name in ("w0", "a", "b") else value)

    def __post_init__(self):
        w0, a, b = self.w0, self.a, self.b
        if (min(w0.ndim, a.ndim, b.ndim) < 2 or a.shape[-1] != w0.shape[-1]
                or b.shape[-2:] != (w0.shape[-2], a.shape[-2]) or a.shape[:-2] != b.shape[:-2]):
            raise ShapeMismatch(f"factor shapes {b.shape} x {a.shape} do not match base {w0.shape}")
        r, low = a.shape[-2], min(w0.shape[-2:])
        if not 0 < r <= low:
            raise ShapeMismatch(f"rank {r} of factors {b.shape} x {a.shape} is not in 1..min(k, d) = {low}")

    @property
    def k(self) -> int:
        return self.w0.shape[-2]

    @property
    def d(self) -> int:
        return self.w0.shape[-1]

    @property
    def r(self) -> int:
        return self.a.shape[-2]

    @property
    def s(self) -> float:
        return self.alpha / self.a.shape[-2]

    def copy(self) -> "LoraLayer":
        """A layer over the same read-only w0, a and b, with an empty memo and workspace."""
        return LoraLayer(self.w0, self.a, self.b, self.alpha)

    def _buffer(self, name: str, shape: tuple) -> np.ndarray:
        """The workspace's float64 array name of this shape, made on first use."""
        if (buf := self._work.get(name)) is None or buf.shape != shape:
            buf = self._work[name] = np.empty(shape)
        return buf

    def _held(self, name: str, first, second):
        """The product of memo entry name computed from these very objects, else
        None (README, "Read-only inputs and the pass memo")."""
        held_first, held_second, product = self._memo.get(name, (None, None, None))
        return product if held_first is first and held_second is second else None

    def _product(self, name: str, first, second, dot, *operands) -> np.ndarray:
        """The product of the memo entry (first, second, dot(*operands)), the
        operands by default (first, second); multiplied only when _held misses."""
        product = self._held(name, first, second)
        if product is None:
            product = dot(*(operands or (first, second)))
            product.setflags(False)
            self._memo[name] = (first, second, product)
        return product


@dataclass
class FullGradient:
    """Loss gradient w.r.t. the merged weight of one adapted layer, G = u v^T.

    The inner dimension is m or r'. Mostly u (k x m) is the gradient w.r.t.
    the layer's outputs Z and v (d x m) its inputs; a compressed factored
    pass gives the rank-r' pair u = (2/m) P (k x r'), v = X QX^T (d x r')
    instead, the layer's memo entry. A dense G is FullGradient(G, np.eye(d)),
    whose g is a finite G bit for bit but for the sign of a zero. The dense
    k x d ``g`` is the oracle form, built on first access and then kept; the
    oracles and the ReLU head's eval rows read it.
    """

    u: np.ndarray
    v: np.ndarray

    @cached_property
    def g(self) -> np.ndarray:
        return self.u @ self.v.mT


def _f64(x) -> np.ndarray:
    """x as a float64 ndarray, skipping np.asarray's cost when x already is one."""
    return x if type(x) is np.ndarray and x.dtype is _F64 else np.asarray(x, dtype=np.float64)


def _frozen(x) -> np.ndarray:
    """x as a float64 ndarray, made read-only in place, not copied. A view's
    base, which numpy collapses to the array that owns a slice's memory, is
    made read-only too, so no write through it can reach a memo entry."""
    x = _f64(x)
    x.setflags(False)
    if isinstance(x.base, np.ndarray):
        x.base.setflags(False)
    return x


@dataclass(frozen=True)
class FactoredTarget:
    """The target W0 X + us vx of a linear head: for a teacher W0 + U Sigma V^T,
    us = U Sigma (k x r*) and vx = V^T X (r* x m). W0, the layer's own base,
    cancels from the residual. A stack's target has the runs' axes (a
    np.broadcast_to view will do). Frozen, and us and vx are read-only."""

    us: np.ndarray
    vx: np.ndarray

    def __post_init__(self):
        us, vx = _frozen(self.us), _frozen(self.vx)
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "vx", vx)
        if min(us.ndim, vx.ndim) < 2 or us.shape[-1] != vx.shape[-2]:
            raise ShapeMismatch(f"factored target {us.shape} x {vx.shape}: the rank counts disagree")

    @cached_property
    def _neg_us(self) -> np.ndarray:  # -us, P's block: negated once, then copied by every pass
        return -self.us


@dataclass
class ToyModel:
    """A toy network with exactly one adapted layer; its head is whether it has a w2.

    No w2, the linear head:  y = (w0 + s b a) x.
    A frozen w2, the ReLU head: y = w2 @ relu((w0 + s b a) x).
    """

    layer: LoraLayer
    w2: np.ndarray | None = None

    def __post_init__(self):
        if self.w2 is not None:
            self.w2 = np.asarray(self.w2, dtype=np.float64)
            if self.w2.shape[-1] != self.layer.k:
                raise ShapeMismatch(
                    f"second layer {self.w2.shape} does not compose with width {self.layer.k}"
                )


def merged_weight(layer: LoraLayer) -> np.ndarray:
    return layer.w0 + layer.s * (layer.b @ layer.a)


def forward(model: ToyModel, x: np.ndarray):
    """Evaluate the model on a batch (one column per sample).

    The adapted layer computes Z = W0 X + s B (A X), with W0 X and A X from
    the layer's memo; the merged weight is never formed. x is made read-only.
    Returns (y, z): the output and Z, which the ReLU head's backward reads.
    """
    x = _frozen(x)
    layer = model.layer
    if x.ndim < 2 or x.shape[-2] != layer.d:
        raise ShapeMismatch(f"batch shape {x.shape} does not match input dim {layer.d}")
    dot = np.dot if layer.a.ndim == x.ndim == 2 else np.matmul
    z = dot(layer.b, layer._product("ax", layer.a, x, dot))
    s = layer.s
    if s != 1.0:  # times 1.0 is the identity on every float, so the default alpha = r skips it
        z *= s
    z += layer._product("w0x", layer.w0, x, np.matmul)
    y = z if model.w2 is None else dot(model.w2, np.maximum(z, 0.0))
    return y, z


def _residual(y: np.ndarray, target, out=None) -> np.ndarray:
    """Y - T, into ``out`` when given (out=y subtracts in place)."""
    target = _f64(target)
    if y.shape != target.shape:
        raise ShapeMismatch(f"prediction {y.shape} vs target {target.shape}")
    return np.subtract(y, target, out=out)


def _mean_square(res: np.ndarray, out=None):
    """sum(res^2) / m by np.sum's reduction, minus its wrapper: a float for one
    run, the (S,) array of each slice's value for a stack.

    out=res squares res in place. Without out, one run reduces by
    sum_of_squares, which makes no res-sized temporary.
    """
    if out is None and res.ndim == 2:  # sum_of_squares reduces with axis=None: the same bits as (-2, -1)
        return float(sum_of_squares(res) / res.shape[1])
    mean = np.add.reduce(np.square(res, out=out), axis=(-2, -1)) / res.shape[-1]
    return float(mean) if res.ndim == 2 else mean


def _backward(model: ToyModel, x: np.ndarray, dy: np.ndarray, z) -> FullGradient:
    """The factors of G = dZ X^T; dy holds Y - T and is scaled in place into dY = (2/m) (Y - T).
    z is forward's Z, which only the ReLU head reads."""
    dy *= 2.0 / x.shape[-1]
    if model.w2 is None:
        return FullGradient(dy, x)
    dz = model.w2.mT @ dy
    dz *= z > 0.0  # ReLU derivative at exactly 0 is taken as 0; in place, no k x m temporary
    return FullGradient(dz, x)


def mse_loss(y: np.ndarray, target: np.ndarray):
    """Mean squared error with 1/m batch normalization (m = columns), per slice of a stack."""
    diff = _residual(_f64(y), target)
    return _mean_square(diff, out=diff)


def _p(layer: LoraLayer, target: FactoredTarget) -> np.ndarray:
    """P = [s B, -us] (k x r'), r' = r + r*, a new array: the one builder of P,
    which the pass and the eval rows of both heads call. Y - T = P QX."""
    p = np.concatenate((layer.b, target._neg_us), axis=-1)
    if layer.s != 1.0:  # as in forward
        p[..., :layer.r] *= layer.s
    return p


def _qx(layer: LoraLayer, ax: np.ndarray, target: FactoredTarget, work: bool = False) -> np.ndarray:
    """QX = [A X; vx] (r' x m), a new array, or with work written over the layer's workspace."""
    vx = target.vx
    qx = layer._buffer("qx", (*ax.shape[:-2], ax.shape[-2] + vx.shape[-2], ax.shape[-1])) if work else None
    return np.concatenate((ax, vx), axis=-2, out=qx)


def _compressed(layer: LoraLayer, x: np.ndarray) -> bool:
    """Whether a factored pass over batch x takes the compressed form: past
    sum_of_squares' whole-square size; below it one GEMM P QX is cheaper."""
    return layer.k * x.shape[-1] > SQUARE_CHUNK


def _gradient_v(layer: LoraLayer, x: np.ndarray, ax: np.ndarray, target: FactoredTarget, dot,
                qx: np.ndarray | None = None) -> np.ndarray:
    """v = X QX^T (d x r'), the memo's entry for (A X, target): the one route to it.

    In the compressed form the first v for (x, target) is multiplied whole and
    its vx block X vx^T, which no step changes, is kept as the memo's entry for
    (x, target); every later v, after a new A, is [X (A X)^T, X vx^T], one
    product of width r. The residual form multiplies it whole. qx is QX when
    the caller has it, else it is formed on a miss."""
    def form(ax, target):
        xvx = layer._held("xvx", x, target)
        if xvx is not None:
            return np.concatenate((dot(x, ax.mT), xvx), axis=-1)
        v = dot(x, (_qx(layer, ax, target) if qx is None else qx).mT)
        if _compressed(layer, x):
            layer._product("xvx", x, target, np.copy, v[..., ax.shape[-2]:])
        return v

    return layer._product("v", ax, target, form)


def _factored_pass(model: ToyModel, x: np.ndarray, target: FactoredTarget) -> tuple[float, FullGradient]:
    """training_pass toward a FactoredTarget: Y - T = s B (A X) - us vx = P QX, with no W0 X.

    A compressed pass forms no k x m array: its loss is ||R_P QX||_F^2 / m
    for R_P = qr(P), as accurate as P QX since Householder QR is backward
    stable, and its gradient the rank-r' factors ((2/m) P, X QX^T). A X,
    X QX^T and X vx^T, the products of inner dimension m, and R_P come from
    the layer's memo: the pass after a B-phase reuses the first two, the pass
    after an A-phase R_P and X vx^T, so its X QX^T is one product of width r
    (_gradient_v). QX and R_P QX are written over the layer's workspace; P is
    new, and scaled in place into u. The residual form takes new arrays."""
    layer = model.layer
    if model.w2 is not None:
        raise ValueError("a factored target needs the linear head")
    dot = np.dot if layer.a.ndim == x.ndim == 2 else np.matmul
    m = x.shape[-1]
    compressed = _compressed(layer, x)
    try:  # the product and the concatenations check that k, m and the run axes fit
        ax = layer._product("ax", layer.a, x, dot)
        p, qx = _p(layer, target), _qx(layer, ax, target, work=compressed)
    except ValueError:
        raise ShapeMismatch(f"factored target {target.us.shape} x {target.vx.shape} does not fit the layer "
                            f"{layer.b.shape[:-1]} and batch {x.shape}") from None
    if compressed:
        v = _gradient_v(layer, x, ax, target, dot, qx)
        rq = dot(layer._product("rp", layer.b, target, np.linalg.qr, p, "r"), qx, out=layer._buffer("rq", qx.shape))
        p *= 2.0 / m
        return _mean_square(rq, out=rq), FullGradient(p, v)
    res = dot(p, qx)
    del p, qx  # freed before the loss squares the residual; eval rows rebuild them
    return _mean_square(res), _backward(model, x, res, None)


def training_pass(model: ToyModel, x: np.ndarray, target) -> tuple[float, FullGradient]:
    """One forward and backward pass: the MSE loss and its FullGradient.

    On a stack of S runs the loss is the (S,) array of the runs' losses.

    The library's one pass: the runner, the width probe and the checks of
    gradients and gauge invariance all call it. The target's type picks the
    residual Y - T: P QX for a FactoredTarget (unless compressed), else
    subtracted in place from forward's fresh output. It is formed once,
    reduced into the loss by mse_loss's arithmetic and then scaled in place
    into dY; the gradient is kept as the factors of G = dZ X^T. x is made
    read-only.
    """
    x = _frozen(x)
    if isinstance(target, FactoredTarget):
        return _factored_pass(model, x, target)
    y, z = forward(model, x)
    res = _residual(y, target, out=y)
    return _mean_square(res), _backward(model, x, res, z)


def factored_norms(layer: LoraLayer, target: FactoredTarget, vt: np.ndarray, x: np.ndarray | None = None):
    """(||s B A - U Sigma V^T||_F, ||G||_F) toward target = (U Sigma, V^T X); no batch x, no G.

    ||P M||_F = ||R_P M||_F for R_P = qr(P), s B A - U Sigma V^T = P [A; V^T] and
    G = (2/m) P (X QX^T)^T, so neither norm forms a k x d or k x m array. The ReLU
    row passes target = FactoredTarget(U Sigma, V^T), W* as the target of X = I, and
    no x. R_P and X QX^T are the memo's if a pass left them (a compressed pass leaves
    both), and the row then forms no P and no QX; else it forms and stores what it missed,
    X QX^T through _gradient_v, which also stores or reads X vx^T (x, target) in the
    compressed form.
    """
    rp = layer._product("rp", layer.b, target, lambda b, t: np.linalg.qr(_p(layer, t), "r"))
    err = frobenius(np.dot(rp, np.concatenate((layer.a, vt))))
    if x is None:
        return err, None
    v = _gradient_v(layer, x, layer._product("ax", layer.a, x, np.dot), target, np.dot)
    return err, 2.0 / x.shape[1] * frobenius(np.dot(rp, v.T))


def _factors(g: FullGradient, layer: LoraLayer):
    """(u, v) of a FullGradient whose shapes fit the layer."""
    if not isinstance(g, FullGradient):
        raise TypeError(f"a gradient is a FullGradient, not {type(g).__name__}; "
                        f"pass a dense k x d G as FullGradient(G, np.eye(d))")
    u, v = g.u, g.v
    if u.shape[-2] != layer.k or v.shape[-2] != layer.d or u.shape[-1] != v.shape[-1]:
        raise ShapeMismatch(f"gradient factors {u.shape} x {v.shape} vs layer {(layer.k, layer.d)}")
    return u, v


def lora_grad_a(g: FullGradient, layer: LoraLayer) -> np.ndarray:
    """grad_a = s B^T G for the FullGradient G = u v^T, as s (B^T u) v^T."""
    s, b = layer.s, layer.b
    u, v = _factors(g, layer)
    dot = np.dot if b.ndim == u.ndim == 2 else np.matmul
    btu = dot(b.mT, u)
    if s != 1.0:  # as in forward
        btu *= s
    return dot(btu, v.mT)


def lora_grad_b(g: FullGradient, layer: LoraLayer) -> np.ndarray:
    """grad_b = s G A^T for the FullGradient G = u v^T, as u (s A v)^T.

    A v is the pass's A X when the layer's memo holds it for this very A and v.
    """
    s, a = layer.s, layer.a
    u, v = _factors(g, layer)
    dot = np.dot if a.ndim == u.ndim == 2 else np.matmul
    av = layer._held("ax", a, v)
    if av is None:
        av = dot(a, v)
    if s != 1.0:  # av may be the memo's, so it is scaled into a new array
        av = s * av
    return dot(u, av.mT)


def lora_grads(g: FullGradient, layer: LoraLayer):
    """Factor gradients induced by the chain rule through W = W0 + s B A.

    (lora_grad_a, lora_grad_b): grad_a = s B^T G, grad_b = s G A^T, with no
    k x d product; g is a FullGradient (a dense G is FullGradient(G, I)). An
    alternating phase calls only the one for the factor it moves.
    """
    return lora_grad_a(g, layer), lora_grad_b(g, layer)


# ---------------------------------------------------------------------------
# Initialization policies


def _init_factor(policy: str, rows: int, cols: int, stream: RandomStream, spectral) -> np.ndarray:
    """One factor under a named policy; Gaussian and Kaiming scale by the fan-in cols.

    spectral() returns the factor's slice of the SVD of w0; only "spectral" calls it.
    """
    if policy == "zero":
        return np.zeros((rows, cols))
    if policy == "gaussian":
        return stream.normal(rows, cols) / np.sqrt(cols)
    if policy == "kaiming":
        return stream.normal(rows, cols) * np.sqrt(2.0 / cols)
    if policy == "spectral":
        return spectral().copy()
    raise ValueError(f"unknown init policy {policy!r}")


def init_layer(
    w0,
    r: int,
    alpha: float | None = None,
    init_a: str = "kaiming",
    init_b: str = "zero",
    stream: RandomStream | None = None,
    seed: int = 0,
) -> LoraLayer:
    """Build an adapted layer from a base weight and named init policies.

    Defaults follow the standard recipe: Kaiming for A, zero for B, so the
    initial update s B A vanishes. "spectral" takes the top-r singular
    vectors of w0 (one-sided Jacobi SVD). alpha defaults to r, i.e. s = 1.
    A finite 2-D float64 ndarray w0 is bound as it is (read-only), not copied.
    """
    w0 = as_matrix(w0, name="w0")
    if stream is None:
        stream = RandomStream(seed)
    k, d = w0.shape
    svd = cache(lambda: jacobi_svd(w0))  # once per layer, and only for "spectral"
    a = _init_factor(init_a, r, d, stream, lambda: svd()[2][:r])
    b = _init_factor(init_b, k, r, stream, lambda: svd()[0][:, :r])
    return LoraLayer(w0, a, b, float(alpha) if alpha is not None else float(r))
