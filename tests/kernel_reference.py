"""Earlier formulations of the shared matcore kernels, kept as references.

`matcore` computes these kernels with fewer numpy calls. The functions here
are the plain formulations they replaced, so the tests can check that every
output bit stayed the same.
"""

import numpy as np

from altlora.matcore import PIVOT_RTOL, SingularGram


def cholesky_factor(gram):
    try:
        lo = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"{exc}; supply a damping lambda > 0") from exc
    tol = PIVOT_RTOL * float(np.trace(gram))
    pivots = np.diagonal(lo) ** 2
    ok = (pivots > 0.0) & (pivots >= tol)
    if not ok.all():
        j = int(np.argmin(ok))
        raise SingularGram(
            f"pivot {pivots[j]:.3e} below threshold {tol:.3e} at column {j}; "
            "supply a damping lambda > 0"
        )
    return lo


def damped_gram_inverse(m, side, lam):
    m = np.asarray(m, dtype=np.float64)
    if lam < 0.0:
        raise ValueError(f"damping must be nonnegative, got {lam}")
    if side == "left":
        gram = m.T @ m
    elif side == "right":
        gram = m @ m.T
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if lam > 0.0:
        gram = gram + lam * np.eye(gram.shape[0])
    linv = np.linalg.inv(cholesky_factor(gram))
    inv = linv.T @ linv
    return (inv + inv.T) / 2.0


def frobenius(m):
    return float(np.sqrt(np.sum(np.asarray(m, dtype=np.float64) ** 2)))


class RandomStream:
    """Box-Muller on two separate uniform draws of ceil(n/2) doubles each."""

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def uniform(self, *shape):
        return self._gen.random(shape if shape else None)

    def normal(self, *shape):
        count = int(np.prod(shape)) if shape else 1
        half = (count + 1) // 2
        u1 = 1.0 - self._gen.random(half)  # (0, 1]: log is finite
        u2 = self._gen.random(half)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]
        return z.reshape(shape) if shape else float(z[0])
