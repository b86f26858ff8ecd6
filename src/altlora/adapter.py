"""Low-rank adapted layers and the two hand-differentiated toy models.

A layer holds a frozen base weight W0 plus trainable factors A (r x d) and
B (k x r) with scaling s = alpha / r; the effective weight is W0 + s B A.
The toy models (a linear regression head and a two-layer ReLU network with
an adapted first layer) come with manual forward/backward for MSE, which
supplies the loss gradient with respect to the merged weight as the factors
of G = dZ X^T, so no training pass forms a k x d array.

Leading axis: every array of a layer, a model, a batch and a gradient may
carry a leading run axis (S, ...), and the pass then runs S independent runs
at once, each slice bit for bit what it would be alone. The scale alpha is
one float for the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .matcore import RandomStream, ShapeMismatch, as_matrix, jacobi_svd

LINEAR_REGRESSION = "linear_regression"
TWO_LAYER_RELU = "two_layer_relu"

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
    alpha: scaling numerator; the applied factor is s = alpha / r.
    A stack of S runs gives each array a leading axis (S, ...).
    """

    w0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    alpha: float

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        k, d = self.w0.shape[-2:]
        r = self.a.shape[-2]
        if self.a.shape[-1] != d or self.b.shape[-2:] != (k, r) or self.a.shape[:-2] != self.b.shape[:-2]:
            raise ShapeMismatch(
                f"factor shapes {self.b.shape} x {self.a.shape} do not match base {self.w0.shape}"
            )
        if r > min(k, d):
            raise ShapeMismatch(f"rank {r} exceeds min(k, d) = {min(k, d)}")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

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
        return LoraLayer(self.w0, self.a.copy(), self.b.copy(), self.alpha)


@dataclass
class FullGradient:
    """Loss gradient w.r.t. the merged weight of one adapted layer, G = u v^T.

    u (k x m) is the gradient w.r.t. the layer's outputs Z and v (d x m) its
    inputs. The dense k x d ``g`` is built on first access and then kept;
    only oracles and eval rows read it. ``ax`` is forward's (A, X, A X):
    lora_grad_b reuses A X while the layer's A is that array and v is X.
    """

    u: np.ndarray
    v: np.ndarray
    ax: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def g(self) -> np.ndarray:
        return self.u @ self.v.mT


def _f64(x) -> np.ndarray:
    """x as a float64 ndarray, skipping np.asarray's cost when x already is one."""
    return x if type(x) is np.ndarray and x.dtype is _F64 else np.asarray(x, dtype=np.float64)


def gradient_array(g) -> np.ndarray:
    """The dense gradient matrix of a FullGradient or of any array-like."""
    return g.g if isinstance(g, FullGradient) else np.asarray(g, dtype=np.float64)


@dataclass
class ToyModel:
    """A toy network with exactly one adapted layer.

    kind="linear_regression": y = (w0 + s b a) x.
    kind="two_layer_relu":    y = w2 @ relu((w0 + s b a) x) with frozen w2.
    """

    kind: str
    layer: LoraLayer
    w2: np.ndarray | None = None
    # (w0, x, w0 @ x) of the batch given to cache_base
    _base: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (LINEAR_REGRESSION, TWO_LAYER_RELU):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == TWO_LAYER_RELU:
            if self.w2 is None:
                raise ShapeMismatch("two_layer_relu requires a frozen second layer")
            self.w2 = np.asarray(self.w2, dtype=np.float64)
            if self.w2.shape[-1] != self.layer.k:
                raise ShapeMismatch(
                    f"second layer {self.w2.shape} does not compose with width {self.layer.k}"
                )

    def cache_base(self, x) -> None:
        """Compute the frozen base product W0 X once for a batch used again.

        forward on this same array, with the same w0, reuses it instead of
        redoing the k x d x m product; any other batch is multiplied afresh.
        """
        x = np.asarray(x, dtype=np.float64)
        self._base = (self.layer.w0, x, self.layer.w0 @ x)

    def _base_product(self, x: np.ndarray) -> np.ndarray:
        w0 = self.layer.w0
        if self._base is not None and self._base[0] is w0 and self._base[1] is x:
            return self._base[2]
        return w0 @ x


def merged_weight(layer: LoraLayer) -> np.ndarray:
    return layer.w0 + layer.s * (layer.b @ layer.a)


def forward(model: ToyModel, x: np.ndarray):
    """Evaluate the model on a batch (one column per sample).

    The adapted layer computes Z = W0 X + s B (A X); the merged weight is
    never formed. Returns (y, cache); cache holds Z and (A, X, A X) for backward.
    """
    x = _f64(x)
    layer = model.layer
    if x.ndim < 2 or x.shape[-2] != layer.d:
        raise ShapeMismatch(f"batch shape {x.shape} does not match input dim {layer.d}")
    dot = np.dot if layer.a.ndim == x.ndim == 2 else np.matmul
    ax = dot(layer.a, x)
    z = dot(layer.b, ax)
    s = layer.s
    if s != 1.0:  # times 1.0 is the identity on every float, so the default alpha = r skips it
        z *= s
    z += model._base_product(x)
    y = z if model.kind == LINEAR_REGRESSION else dot(model.w2, np.maximum(z, 0.0))
    return y, {"z": z, "ax": (layer.a, x, ax)}


def _residual(y: np.ndarray, target, out=None) -> np.ndarray:
    """Y - T, into ``out`` when given (out=y subtracts in place)."""
    target = _f64(target)
    if y.shape != target.shape:
        raise ShapeMismatch(f"prediction {y.shape} vs target {target.shape}")
    return np.subtract(y, target, out=out)


def _mean_square(res: np.ndarray, out=None):
    """sum(res^2) / m by np.sum's reduction, minus its wrapper; out=res squares in place.

    A float for one run; for a stack, the (S,) array of each slice's value.
    """
    sq = np.square(res, out=out)
    if res.ndim == 2:  # axis=None: the same bits as (-2, -1), and cheaper
        return float(np.add.reduce(sq, axis=None) / res.shape[1])
    return np.add.reduce(sq, axis=(-2, -1)) / res.shape[-1]


def _backward(model: ToyModel, x: np.ndarray, dy: np.ndarray, cache) -> FullGradient:
    """The factors of G = dZ X^T; dy holds Y - T and is scaled in place into dY = (2/m) (Y - T)."""
    dy *= 2.0 / x.shape[-1]
    if model.kind == LINEAR_REGRESSION:
        return FullGradient(dy, x, cache.get("ax"))
    dz = model.w2.mT @ dy
    dz *= cache["z"] > 0.0  # ReLU derivative at exactly 0 is taken as 0; in place, no k x m temporary
    return FullGradient(dz, x, cache.get("ax"))


def mse_loss(y: np.ndarray, target: np.ndarray):
    """Mean squared error with 1/m batch normalization (m = columns), per slice of a stack."""
    diff = _residual(_f64(y), target)
    return _mean_square(diff, out=diff)


def training_pass(model: ToyModel, x: np.ndarray, target: np.ndarray) -> tuple[float, FullGradient]:
    """One forward and backward pass: the MSE loss and its FullGradient.

    On a stack of S runs the loss is the (S,) array of the runs' losses.

    The library's one pass: the runner, the width probe and the checks of
    gradients and gauge invariance all call it. The residual Y - T is formed
    once, in place on forward's fresh output, reduced into the loss by
    mse_loss's arithmetic and then scaled in place into dY; the gradient is
    kept as the factors of G = dZ X^T, with forward's A X.
    """
    x = _f64(x)
    y, cache = forward(model, x)
    res = _residual(y, target, out=y)
    return _mean_square(res), _backward(model, x, res, cache)


def _factors(g: FullGradient, layer: LoraLayer):
    """(u, v) of a FullGradient whose shapes fit the layer."""
    u, v = g.u, g.v
    if u.shape[-2] != layer.k or v.shape[-2] != layer.d or u.shape[-1] != v.shape[-1]:
        raise ShapeMismatch(f"gradient factors {u.shape} x {v.shape} vs layer {(layer.k, layer.d)}")
    return u, v


def _dense(g, layer: LoraLayer) -> np.ndarray:
    gm = gradient_array(g)
    if gm.shape[-2:] != (layer.k, layer.d):
        raise ShapeMismatch(f"gradient {gm.shape} vs layer {(layer.k, layer.d)}")
    return gm


def lora_grad_a(g, layer: LoraLayer) -> np.ndarray:
    """grad_a = s B^T G; for G = u v^T (a FullGradient), s (B^T u) v^T."""
    s, b = layer.s, layer.b
    if not isinstance(g, FullGradient):
        return s * (b.mT @ _dense(g, layer))
    u, v = _factors(g, layer)
    dot = np.dot if b.ndim == u.ndim == 2 else np.matmul
    btu = dot(b.mT, u)
    if s != 1.0:  # as in forward
        btu *= s
    return dot(btu, v.mT)


def lora_grad_b(g, layer: LoraLayer) -> np.ndarray:
    """grad_b = s G A^T; for G = u v^T (a FullGradient), u (s A v)^T.

    A v is forward's A X when the gradient carries it for this very A and v.
    """
    s, a = layer.s, layer.a
    if not isinstance(g, FullGradient):
        return s * (_dense(g, layer) @ a.mT)
    u, v = _factors(g, layer)
    dot = np.dot if a.ndim == u.ndim == 2 else np.matmul
    held = g.ax
    av = held[2] if held is not None and held[0] is a and held[1] is v else dot(a, v)
    if s != 1.0:  # av may be forward's, so it is scaled into a new array
        av = s * av
    return dot(u, av.mT)


def lora_grads(g, layer: LoraLayer):
    """Factor gradients induced by the chain rule through W = W0 + s B A.

    (lora_grad_a, lora_grad_b): grad_a = s B^T G, grad_b = s G A^T, with no
    k x d product when G is a FullGradient. An alternating phase calls only
    the one for the factor it moves.
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
    """
    w0 = as_matrix(w0, name="w0")
    if stream is None:
        stream = RandomStream(seed)
    k, d = w0.shape
    svd = cache(lambda: jacobi_svd(w0))  # once per layer, and only for "spectral"
    a = _init_factor(init_a, r, d, stream, lambda: svd()[2][:r])
    b = _init_factor(init_b, k, r, stream, lambda: svd()[0][:, :r])
    return LoraLayer(w0, a, b, float(alpha) if alpha is not None else float(r))
