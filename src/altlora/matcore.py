"""Dense matrix kernels shared by the whole library.

Everything here is pure float64 numpy: ridge-damped Gram inverses formed
from numpy's Cholesky factor under an explicit pivot threshold, subspace
projectors, seeded random factor generation, and a one-sided Jacobi SVD
used as an independent spectral oracle.

Randomness contract: all sampling goes through :class:`RandomStream`, a
PCG64 bit generator whose uniform doubles feed an explicit Box-Muller
transform. The generator family is named and fixed so identical seeds
reproduce identical matrices.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularGram",
    "ShapeMismatch",
    "RandomStream",
    "as_matrix",
    "cholesky_factor",
    "damped_gram_inverse",
    "projector",
    "orthonormal_columns",
    "gauge_sample",
    "jacobi_svd",
    "frobenius",
    "rel_error",
]

# Cholesky pivots below PIVOT_RTOL * trace(gram) are treated as singular.
PIVOT_RTOL = 1e-12


class SingularGram(Exception):
    """Gram matrix is numerically singular and no damping was supplied."""


class ShapeMismatch(Exception):
    """Operand dimensions do not compose."""


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate external data as a finite 2-D float64 matrix (copies)."""
    m = np.array(data, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"{name}: expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: entries must be finite (no NaN/Inf)")
    return m


def frobenius(m: np.ndarray) -> float:
    return math.sqrt(np.add.reduce(np.square(m, dtype=np.float64), axis=None))  # np.sum's pairwise sum


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """Relative Frobenius error ||got - want||_F / ||want||_F (0 if both zero)."""
    denom = frobenius(want)
    num = frobenius(np.asarray(got) - np.asarray(want))
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom


# ---------------------------------------------------------------------------
# Gram factorization and inverses


def cholesky_factor(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, pivot-thresholded.

    Raises SingularGram when LAPACK rejects the matrix or any pivot L_jj^2
    is not positive or falls below PIVOT_RTOL * trace(gram), which is the
    library's definition of "numerically singular". A Gram with NaN entries
    raises too instead of factoring into NaNs.
    """
    try:
        lo = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"{exc}; supply a damping lambda > 0") from exc
    tol = PIVOT_RTOL * float(np.trace(gram))
    pivots = lo.diagonal() ** 2
    least = pivots.min()
    if not (least > 0.0 and least >= tol):  # a NaN pivot or tol fails here too
        j = int(np.argmin((pivots > 0.0) & (pivots >= tol)))
        raise SingularGram(
            f"pivot {pivots[j]:.3e} below threshold {tol:.3e} at column {j}; "
            "supply a damping lambda > 0"
        )
    return lo


def damped_gram_inverse(m: np.ndarray, side: str, lam: float) -> np.ndarray:
    """Inverse of the ridge-damped Gram matrix of ``m``.

    side="left"  -> (m.T @ m + lam I)^-1, an r x r matrix with r = cols(m);
    side="right" -> (m @ m.T + lam I)^-1, with r = rows(m).

    Computed as L^-T L^-1 from the Cholesky factor L in one symmetric
    product (BLAS syrk), so the result is exactly symmetric. With lam = 0 a
    rank-deficient Gram raises SingularGram, and so does a Gram with NaN
    entries at any lam.
    """
    m = np.asarray(m, dtype=np.float64)
    if lam < 0.0:
        raise ValueError(f"damping must be nonnegative, got {lam}")
    if side == "left":
        gram = np.dot(m.T, m)
    elif side == "right":
        gram = np.dot(m, m.T)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if lam > 0.0:
        diag = gram.ravel()[:: gram.shape[0] + 1]  # a view: gram is a fresh C-ordered array
        diag += lam
    linv = np.linalg.inv(cholesky_factor(gram))
    return np.dot(linv.T, linv)


def projector(m: np.ndarray, space: str, lam: float) -> np.ndarray:
    """Orthogonal projector onto the column space or row space of ``m``.

    space="column": m is k x r, returns k x k  m (m.T m + lam I)^-1 m.T.
    space="row":    m is r x d, returns d x d  m.T (m m.T + lam I)^-1 m.

    With lam = 0 and full-rank m the result is symmetric idempotent.
    """
    m = np.asarray(m, dtype=np.float64)
    if space == "column":
        return m @ damped_gram_inverse(m, "left", lam) @ m.T
    if space == "row":
        return m.T @ damped_gram_inverse(m, "right", lam) @ m
    raise ValueError(f"space must be 'column' or 'row', got {space!r}")


# ---------------------------------------------------------------------------
# Seeded randomness


class RandomStream:
    """Seeded random stream: PCG64 uniforms, gaussians via Box-Muller.

    Only ``BitGenerator.random`` raw doubles are consumed, so the stream is
    reproducible wherever numpy's PCG64 is; the Gaussian transform is our
    own and does not depend on numpy's distribution internals.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def uniform(self, *shape: int) -> np.ndarray:
        return self._gen.random(shape if shape else None)

    def normal(self, *shape: int) -> np.ndarray:
        count = math.prod(shape)
        half = (count + 1) // 2
        u = self._gen.random(2 * half)  # u1 then u2, one draw of 2 ceil(count/2)
        radius, angle = u[:half], u[half:]
        np.subtract(1.0, radius, radius)  # (0, 1]: log is finite
        np.log(radius, radius)
        radius *= -2.0
        np.sqrt(radius, radius)
        angle *= 2.0 * np.pi
        z = np.empty(2 * half)
        np.multiply(radius, np.cos(angle), z[:half])
        np.multiply(radius, np.sin(angle), z[half:])
        return z[:count].reshape(shape) if shape else float(z[0])


def orthonormal_columns(rows: int, cols: int, stream: RandomStream) -> np.ndarray:
    """Seeded rows x cols matrix with orthonormal columns (twice-iterated MGS)."""
    if cols > rows:
        raise ShapeMismatch(f"cannot fit {cols} orthonormal columns in dimension {rows}")
    a = stream.normal(rows, cols)
    q = np.zeros((rows, cols))
    for j in range(cols):
        v = a[:, j].copy()
        for _ in range(2):
            for i in range(j):
                v -= (q[:, i] @ v) * q[:, i]
        nv = float(np.linalg.norm(v))
        if nv < 1e-12:
            raise ValueError("degenerate sample while orthonormalizing")
        q[:, j] = v / nv
    return q


def gauge_sample(r: int, cond_max: float, seed: int) -> np.ndarray:
    """Invertible r x r matrix with condition number <= cond_max.

    Built as Q diag(d) Q'^T with independent seeded orthogonal Q, Q' and
    singular values log-uniform in [1/sqrt(cond_max), sqrt(cond_max)].
    Deterministic per seed.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if cond_max < 1.0:
        raise ValueError(f"cond_max must be >= 1, got {cond_max}")
    stream = RandomStream(seed)
    q1 = orthonormal_columns(r, r, stream)
    q2 = orthonormal_columns(r, r, stream)
    half_log = 0.5 * math.log(cond_max)
    sing = np.exp(-half_log + stream.uniform(r) * (2.0 * half_log))
    return (q1 * sing) @ q2.T


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD (independent spectral oracle)


def jacobi_svd(a: np.ndarray, max_sweeps: int = 60, tol: float = 1e-14):
    """Singular value decomposition by one-sided Jacobi rotations.

    Returns (u, s, vt) with a = u @ diag(s) @ vt and s descending. Chosen
    for its independence from the construction paths under test; adequate
    for the matrix sizes this library targets.
    """
    a = np.asarray(a, dtype=np.float64)
    transposed = a.shape[0] < a.shape[1]
    w = (a.T if transposed else a).copy()
    n = w.shape[1]
    v = np.eye(n)
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = w[:, p] @ w[:, p]
                aqq = w[:, q] @ w[:, q]
                apq = w[:, p] @ w[:, q]
                if abs(apq) <= tol * math.sqrt(app * aqq) or apq == 0.0:
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                wp = w[:, p].copy()
                w[:, p] = c * wp - s * w[:, q]
                w[:, q] = s * wp + c * w[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if not rotated:
            break
    sing = np.sqrt(np.sum(w * w, axis=0))
    order = np.argsort(-sing)
    sing = sing[order]
    w = w[:, order]
    v = v[:, order]
    u = np.where(sing > 0.0, w / np.where(sing > 0.0, sing, 1.0), 0.0)
    if transposed:
        return v, sing, u.T
    return u, sing, v.T
