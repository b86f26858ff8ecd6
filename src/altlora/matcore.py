"""Dense matrix kernels shared by the whole library.

Everything here is pure float64 numpy: ridge-damped Gram inverses formed
from numpy's Cholesky factor under an explicit pivot threshold, subspace
projectors from Householder Q (no Gram), seeded random factor generation,
and a one-sided Jacobi SVD used as an independent spectral oracle.
``cholesky_factor``, ``damped_gram_inverse``, ``projector``, ``frobenius``
and ``rel_error`` also take a stack of matrices on leading axes, each
slice giving its 2-D bits.

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

# Squared pivots below PIVOT_RTOL * scale are numerically singular (_judge_pivots).
PIVOT_RTOL = 1e-12


class SingularGram(Exception):
    """A Gram matrix (or a projector's R) is numerically singular and no damping was supplied."""


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


def _squares(m) -> np.float64 | np.ndarray:
    """sum_of_squares of a matrix, or of each trailing 2-D slice of a stack, each slice reduced whole:
    its matrix's bits up to SQUARE_CHUNK entries a slice (tests/test_adapter.py)."""
    return sum_of_squares(m) if np.ndim(m) <= 2 else np.add.reduce(np.square(m, dtype=np.float64), axis=(-2, -1))


def frobenius(m) -> float | np.ndarray:
    """||m||_F as a float, or the array of each trailing 2-D slice's for a stack."""
    squares = _squares(m)
    return np.sqrt(squares) if type(squares) is np.ndarray else math.sqrt(squares)


def rel_error(got, want) -> float | np.ndarray:
    """Relative Frobenius error ||got - want||_F / ||want||_F (0 if both zero).

    A stack gives each slice's, by the same arithmetic: 0 where both are
    zero, inf where only the difference is nonzero.
    """
    denom = frobenius(want)
    num = frobenius(np.asarray(got) - np.asarray(want))
    if type(num) is np.ndarray:
        return np.divide(num, denom, out=np.where(num == 0.0, 0.0, math.inf), where=denom != 0.0)
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom


# ---------------------------------------------------------------------------
# Gram factorization and inverses


def cholesky_factor(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, pivot-thresholded.

    Raises SingularGram when LAPACK rejects the matrix, or when _judge_pivots
    fails a pivot L_jj^2 against the scale trace(gram). A Gram with NaN
    entries raises too instead of factoring into NaNs.

    A stack (S, r, r) is factored slice by slice with each slice's own
    threshold; one singular slice raises for the whole stack, naming it.
    """
    try:
        lo = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"{_failing_slice(gram)}{exc}; supply a damping lambda > 0") from exc
    _judge_pivots(lo.diagonal(0, -2, -1) ** 2, gram.trace(0, -2, -1), hint="; supply a damping lambda > 0")
    return lo


def _judge_pivots(pivots: np.ndarray, scale, what: str = "", hint: str = "") -> None:
    """The library's one "numerically singular" rule, on a factor's squared pivots (..., n).

    Raises SingularGram if a pivot is NaN, not positive or below PIVOT_RTOL * scale (one scale
    per slice), naming the first failing slice and column between ``what`` and ``hint``.
    """
    tol = PIVOT_RTOL * scale
    least = pivots.min(-1)
    healthy = (least > 0.0) & (least >= tol)  # a NaN pivot or tol fails here too
    if not (healthy if pivots.ndim == 1 else healthy.all()):  # a matrix skips .all(), a microsecond per call
        *where, j = _first_index(~((pivots > 0.0) & (pivots >= tol[..., None])))
        where = tuple(where)
        raise SingularGram(f"{_slice_name(where)}{what}pivot {pivots[where][j]:.3e} below threshold "
                           f"{tol[where]:.3e} at column {j}{hint}")


def _first_index(bad) -> tuple:
    """The index of bad's first True entry, () for a true 0-d bad."""
    return tuple(int(i) for i in np.argwhere(bad)[0])


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
    """The body of damped_gram_inverse, which optim._left_gram_inverse calls on a stack."""
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


def projector(m: np.ndarray, space: str) -> np.ndarray:
    """Q Q^T, the orthogonal projector onto the column space of m, or of m.T at space="row".

    Q is from the reduced Householder QR; no Gram is formed. A factor short of
    rank raises SingularGram: _judge_pivots fails a pivot R_jj^2 against the
    scale ||m||_F^2, and a wide R's missing pivots count as zeros. A stack
    (S, rows, cols) gives the stack of the slices' projectors, bit for bit,
    each slice judged by its own pivots and norm; one singular slice raises
    for the stack, naming it as cholesky_factor does.
    """
    if space not in ("column", "row"):
        raise ValueError(f"space must be 'column' or 'row', got {space!r}")
    m = np.asarray(m, dtype=np.float64)
    q, r = np.linalg.qr(m if space == "column" else m.mT)
    pivots = r.diagonal(0, -2, -1) ** 2
    if r.shape[-2] < r.shape[-1]:  # a wide R is short of rank
        pivots = np.concatenate((pivots, np.zeros((*r.shape[:-2], r.shape[-1] - r.shape[-2]))), -1)
    _judge_pivots(pivots, _squares(m), f"{space} space: ")
    return q @ q.mT


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
        out = self._box_muller(1, math.prod(shape))
        out.shape = shape  # in place: the output owns its memory, so freezing it freezes all of it
        return out if shape else float(out[()])

    def normal_stack(self, n: int, *shape: int) -> np.ndarray:
        """n consecutive normal(*shape) draws as one (n, *shape) array, bit for bit."""
        out = self._box_muller(n, math.prod(shape))
        out.shape = (n, *shape)
        return out

    def _box_muller(self, blocks: int, count: int) -> np.ndarray:
        """blocks consecutive draws of count Gaussians: one uniform draw, (blocks, 2, half) as u1 and u2.

        Transformed in place a chunk at a time: up to NORMAL_CHUNK pairs of one
        block, or whole blocks of at most NORMAL_CHUNK / 8 pairs, whose strided
        ufuncs numpy buffers (3 operands of a product); the cos buffer and those
        buffers stay within NORMAL_CHUNK pairs. Returns the owned (blocks, count).
        """
        half = (count + 1) // 2
        z = self._gen.random(blocks * 2 * half)
        z.shape = (blocks, 2, half)
        radius, angle = z[:, 0], z[:, 1]
        rows = max(1, NORMAL_CHUNK // 8 // max(half, 1))
        if rows >= blocks and half <= NORMAL_CHUNK:
            chunks = ((radius, angle),)
        else:
            chunks = ((radius[i:i + rows, lo:lo + NORMAL_CHUNK], angle[i:i + rows, lo:lo + NORMAL_CHUNK])
                      for i in range(0, blocks, rows) for lo in range(0, half, NORMAL_CHUNK))
        cos = np.empty(min(min(rows, blocks) * half, NORMAL_CHUNK))  # the only temporary: cos of one chunk
        for rho, theta in chunks:
            np.subtract(1.0, rho, rho)  # (0, 1]: log is finite
            np.log(rho, rho)
            rho *= -2.0
            np.sqrt(rho, rho)
            theta *= 2.0 * np.pi
            c = cos[:theta.size].reshape(theta.shape)
            np.cos(theta, c)
            np.sin(theta, theta)  # then radius times each, in place
            theta *= rho
            rho *= c
        z.shape = (blocks, 2 * half)
        return z if count == 2 * half else z[:, :count].copy()  # an odd count drew one spare entry a block


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
