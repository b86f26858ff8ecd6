"""Per-instance formulations of the stacked oracle checks, kept as references.

`oracle` steps and scores the fixed-shape instances of four checks as
stacks. The functions here are the loops those checks replaced, one
instance at a time with 2-D kernels, so the tests can check that every
deviation, verdict and info field stayed the same bit for bit. Each check
returns (instances, deviations, passed, info).
"""

from dataclasses import replace

import numpy as np

from altlora import optim
from altlora.adapter import FullGradient, LoraLayer
from altlora.matcore import PIVOT_RTOL, RandomStream, SingularGram, frobenius, gauge_sample, rel_error, sum_of_squares
from altlora.oracle import PreconditionViolated, equivalent_update, joint_cross_term


def projector(m, space):
    m = np.asarray(m, dtype=np.float64)
    q, r = np.linalg.qr(m if space == "column" else m.T)
    least = np.min(r.diagonal() ** 2) if len(r) == r.shape[1] else 0.0
    tol = PIVOT_RTOL * sum_of_squares(m)
    if not (least > 0.0 and least >= tol):
        raise SingularGram(f"{space} space: least pivot {least:.3e} below threshold {tol:.3e}")
    return q @ q.T


def projector_gauge_check(a1, b1, a2, b2):
    prod_dev = rel_error(b2 @ a2, b1 @ a1)
    if prod_dev > 1e-10:
        raise PreconditionViolated(f"factor products differ by {prod_dev:.3e} > 1e-10")
    col_dev = rel_error(projector(b2, "column"), projector(b1, "column"))
    row_dev = rel_error(projector(a2, "row"), projector(a1, "row"))
    return float(np.max([col_dev, row_dev]))


def decompose_pair_step(layer, g_t, g_half, cfg):
    """(col_term, row_term, cross_term, residual_norm) of one 2-D instance."""
    gt, gh = g_t.g, g_half.g
    alt = layer.copy()
    st = optim.AltLoraState.init(alt)
    cfg_alt = replace(cfg, order=optim.A_FIRST)
    optim.altlora_step(alt, st, g_t, cfg_alt)
    a_plus = alt.a
    optim.altlora_step(alt, st, g_half, cfg_alt)
    dw_alt = equivalent_update(layer, alt)
    col_term = cfg.eta * (projector(layer.b, "column") @ gt)
    row_term = cfg.eta * (gh @ projector(a_plus, "row"))
    residual = frobenius(dw_alt + col_term + row_term)
    joint = layer.copy()
    optim.baseline_step(optim.SCALEDGD_JOINT, joint, optim.AltLoraState.init(joint), g_t, cfg)
    cross = equivalent_update(layer, joint) + col_term + cfg.eta * (gt @ projector(layer.a, "row"))
    return col_term, row_term, cross, residual


def _pair_instance(stream, k=16, d=32, r=4):
    layer = LoraLayer(stream.normal(k, d) / np.sqrt(d), stream.normal(r, d), stream.normal(k, r), alpha=float(r))
    g_t = stream.normal(k, d)
    g_half = stream.normal(k, d)
    return layer, FullGradient(g_t, np.eye(d)), FullGradient(g_half, np.eye(d))


def _judged(instances, devs, tol, info=None):
    devs = np.asarray(devs, dtype=float)
    return instances, devs, bool(devs.max() <= tol), info or {}


def lstsq_local_minimality(seed, instances=5, probes=1000):
    stream = RandomStream(seed)
    for _ in range(instances):
        k, d, r = 16, 32, 4
        b = stream.normal(k, r)
        g = stream.normal(k, d)
        z = optim.scaled_grad_a(b.T @ g, b, 1.0, 0.0)
        base = frobenius(b @ z - g)
        for _ in range(probes):
            delta = stream.normal(r, d)
            delta *= 1e-3 / frobenius(delta)
            if frobenius(b @ (z + delta) - g) <= base:
                return instances, np.array([np.inf]), False, {}
    return instances, np.array([0.0]), True, {"probes": probes}


def projector_gauge_invariance(seed, instances=200):
    stream = RandomStream(seed)
    devs = []
    for i in range(instances):
        k, d, r = 12, 20, 3
        a1 = stream.normal(r, d)
        b1 = stream.normal(k, r)
        gauge = gauge_sample(r, 10.0, seed + i + 1000)
        devs.append(projector_gauge_check(a1, b1, np.linalg.solve(gauge, a1), b1 @ gauge))
    return _judged(instances, devs, 1e-9)


def pair_step_residual(seed, instances=100):
    stream = RandomStream(seed)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.0, lam=0.0)
    devs = []
    for _ in range(instances):
        col, row, _, residual = decompose_pair_step(*_pair_instance(stream), cfg)
        devs.append(residual / max(frobenius(col + row), 1e-300))
    return _judged(instances, devs, 1e-10)


def joint_cross_term_check(seed, instances=100):
    stream = RandomStream(seed)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.0, lam=0.0)
    devs, nonzero = [], True
    for _ in range(instances):
        layer, g_t, _ = _pair_instance(stream)
        cross = decompose_pair_step(layer, g_t, g_t, cfg)[2]
        devs.append(rel_error(cross, joint_cross_term(layer, g_t, cfg.eta)))
        bound = 1e-8 * cfg.eta**2 * frobenius(g_t.g) ** 2
        nonzero = nonzero and frobenius(cross) > bound
    instances, devs, passed, _ = _judged(instances, devs, 1e-10)
    return instances, devs, passed and nonzero, {"nonzero": nonzero}


CHECKS = {
    "lstsq_local_minimality": lstsq_local_minimality,
    "projector_gauge_invariance": projector_gauge_invariance,
    "pair_step_residual": pair_step_residual,
    "joint_cross_term": joint_cross_term_check,
}
