"""Calibration kernels: how fast the machine runs right now.

On a shared host the throughput a process gets drifts by up to 2x within
seconds (other tenants on the same cores), and a plain wall-clock median
over a run inherits that drift. The benchmark therefore times a fixed
kernel next to every operation and reports times in reference seconds:

    reference_s = measured_s * REFERENCE_S[kernel] / kernel_s

where ``kernel_s`` is the kernel's time measured around the operation.
``interp`` (a bytecode loop, a chain of tiny matmuls and a toy
factor-gradient loop) tracks the interpreter-bound workloads; ``blas``
(256 x 256 matmuls) tracks the BLAS-bound one. The constants are the kernels' typical times on a quiet
2-vCPU Xeon with one BLAS thread, so a reference second is roughly a wall
second there. The kernels use numpy only, never the library under test.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 8))
_BLOCK = _rng.standard_normal((256, 256))
_W = _rng.standard_normal((32, 32))
_X = _rng.standard_normal((32, 128))
_A = _rng.standard_normal((4, 32)) * 0.1
_B = _rng.standard_normal((32, 4)) * 0.1


class _Factors:
    def __init__(self):
        self.a, self.b = _A, _B


def _interp() -> None:
    total = 0
    for i in range(80000):
        total += i * i % 7
    x = _SMALL
    for _ in range(2000):
        x = (x @ _SMALL) * 0.1
    # A toy factor-gradient loop at desk scale: many tiny numpy calls and
    # attribute reads, the mix a desk-scale training step makes.
    f = _Factors()
    for _ in range(250):
        err = (_W + f.b @ f.a) @ _X - _X
        loss = float(np.sum(err * err)) / _X.shape[1]
        g = err @ _X.T * (2.0 / _X.shape[1])
        f.a, f.b = f.a - 1e-3 * (f.b.T @ g), f.b - 1e-3 * (g @ f.a.T) - 1e-9 * loss


def _blas() -> None:
    for _ in range(32):
        _BLOCK @ _BLOCK


KERNELS = {"interp": _interp, "blas": _blas}
REFERENCE_S = {"interp": 0.019, "blas": 0.017}


def measure(kernel: str) -> float:
    """Seconds one run of the kernel takes now."""
    run = KERNELS[kernel]
    start = time.perf_counter()
    run()
    return time.perf_counter() - start
