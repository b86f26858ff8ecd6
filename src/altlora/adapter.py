"""Low-rank adapted layers and the two hand-differentiated toy models.

A layer holds a frozen base weight W0 plus trainable factors A (r x d) and
B (k x r) with scaling s = alpha / r; the effective weight is W0 + s B A.
The toy models (a linear regression head and a two-layer ReLU network with
an adapted first layer) come with manual forward/backward for MSE, which
supplies the dense loss gradient with respect to the merged weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import RandomStream, ShapeMismatch, as_matrix, jacobi_svd

LINEAR_REGRESSION = "linear_regression"
TWO_LAYER_RELU = "two_layer_relu"

INIT_POLICIES = ("gaussian", "kaiming", "spectral", "zero")


@dataclass
class LoraLayer:
    """Frozen base weight plus trainable low-rank factors.

    w0: k x d, never mutated by optimizer steps.
    a:  r x d trainable; b: k x r trainable.
    alpha: scaling numerator; the applied factor is s = alpha / r.
    """

    w0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    alpha: float

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        k, d = self.w0.shape
        r = self.a.shape[0]
        if self.a.shape[1] != d or self.b.shape != (k, r):
            raise ShapeMismatch(
                f"factor shapes {self.b.shape} x {self.a.shape} do not match base {self.w0.shape}"
            )
        if r > min(k, d):
            raise ShapeMismatch(f"rank {r} exceeds min(k, d) = {min(k, d)}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def k(self) -> int:
        return self.w0.shape[0]

    @property
    def d(self) -> int:
        return self.w0.shape[1]

    @property
    def r(self) -> int:
        return self.a.shape[0]

    @property
    def s(self) -> float:
        return self.alpha / self.r

    def copy(self) -> "LoraLayer":
        return LoraLayer(self.w0, self.a.copy(), self.b.copy(), self.alpha)


@dataclass
class FullGradient:
    """Dense loss gradient w.r.t. the merged weight of one adapted layer."""

    g: np.ndarray


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

    def __post_init__(self):
        if self.kind not in (LINEAR_REGRESSION, TWO_LAYER_RELU):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == TWO_LAYER_RELU:
            if self.w2 is None:
                raise ShapeMismatch("two_layer_relu requires a frozen second layer")
            self.w2 = np.asarray(self.w2, dtype=np.float64)
            if self.w2.shape[1] != self.layer.k:
                raise ShapeMismatch(
                    f"second layer {self.w2.shape} does not compose with width {self.layer.k}"
                )

    def copy(self) -> "ToyModel":
        return ToyModel(self.kind, self.layer.copy(), self.w2)


def merged_weight(layer: LoraLayer) -> np.ndarray:
    return layer.w0 + layer.s * (layer.b @ layer.a)


def forward(model: ToyModel, x: np.ndarray):
    """Evaluate the model on a batch (one column per sample).

    Returns (y, cache); the cache carries what backward needs.
    """
    x = np.asarray(x, dtype=np.float64)
    layer = model.layer
    if x.ndim != 2 or x.shape[0] != layer.d:
        raise ShapeMismatch(f"batch shape {x.shape} does not match input dim {layer.d}")
    w = merged_weight(layer)
    z = w @ x
    if model.kind == LINEAR_REGRESSION:
        return z, {"x": x}
    h = np.maximum(z, 0.0)
    y = model.w2 @ h
    return y, {"x": x, "z": z}


def mse_loss(y: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error with 1/m batch normalization (m = columns)."""
    y = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if y.shape != target.shape:
        raise ShapeMismatch(f"prediction {y.shape} vs target {target.shape}")
    m = y.shape[1]
    diff = y - target
    return float(np.sum(diff * diff) / m)


def full_gradient(model: ToyModel, x: np.ndarray, target: np.ndarray, cache) -> list[FullGradient]:
    """Gradient of the MSE loss w.r.t. each adapted layer's merged weight."""
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    m = x.shape[1]
    if model.kind == LINEAR_REGRESSION:
        y = merged_weight(model.layer) @ x
        dy = (2.0 / m) * (y - target)
        return [FullGradient(dy @ x.T)]
    z = cache["z"]
    h = np.maximum(z, 0.0)
    y = model.w2 @ h
    dy = (2.0 / m) * (y - target)
    # ReLU derivative at exactly 0 is taken as 0
    dz = (model.w2.T @ dy) * (z > 0.0)
    return [FullGradient(dz @ x.T)]


def lora_grads(g, layer: LoraLayer):
    """Factor gradients induced by the chain rule through W = W0 + s B A.

    grad_a = s B^T G,  grad_b = s G A^T.
    """
    gm = gradient_array(g)
    if gm.shape != (layer.k, layer.d):
        raise ShapeMismatch(f"gradient {gm.shape} vs layer {(layer.k, layer.d)}")
    return layer.s * (layer.b.T @ gm), layer.s * (gm @ layer.a.T)


# ---------------------------------------------------------------------------
# Initialization policies


def _init_a(policy: str, r: int, d: int, w0: np.ndarray, stream: RandomStream) -> np.ndarray:
    if policy == "zero":
        return np.zeros((r, d))
    if policy == "gaussian":
        return stream.normal(r, d) / np.sqrt(d)
    if policy == "kaiming":
        return stream.normal(r, d) * np.sqrt(2.0 / d)
    if policy == "spectral":
        _, _, vt = jacobi_svd(w0)
        return vt[:r].copy()
    raise ValueError(f"unknown init policy {policy!r}")


def _init_b(policy: str, k: int, r: int, w0: np.ndarray, stream: RandomStream) -> np.ndarray:
    if policy == "zero":
        return np.zeros((k, r))
    if policy == "gaussian":
        return stream.normal(k, r) / np.sqrt(r)
    if policy == "kaiming":
        return stream.normal(k, r) * np.sqrt(2.0 / r)
    if policy == "spectral":
        u, _, _ = jacobi_svd(w0)
        return u[:, :r].copy()
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
    a = _init_a(init_a, r, d, w0, stream)
    b = _init_b(init_b, k, r, w0, stream)
    return LoraLayer(w0, a, b, float(alpha) if alpha is not None else float(r))
