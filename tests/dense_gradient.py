"""A dense gradient G in the one form the library's kernels take.

The factor-gradient kernels, the steppers and the oracles take a
FullGradient, the factors of G = u v^T. A test that draws G as a k x d
matrix passes FullGradient(G, I): u = G and v is the d x d identity, so its
dense form g is a finite G bit for bit but for the sign of a zero (a
platform fact checked in test_adapter.py).
"""

import numpy as np

from altlora.adapter import FullGradient


def as_gradient(g) -> FullGradient:
    """The k x d matrix g as FullGradient(g, np.eye(d))."""
    g = np.asarray(g, dtype=np.float64)
    return FullGradient(g, np.eye(g.shape[-1]))
