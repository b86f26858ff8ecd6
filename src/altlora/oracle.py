"""Independent brute-force verifiers for the library's closed-form claims.

Every optimality claim made by :mod:`altlora.optim` is re-derived here by a
deliberately different route, never through the Gram the library factors:
each least-squares objective (the joint cross term's two included) is solved
by SVD least squares on its own design, each projector is Householder Q Q^T,
merged-weight updates are materialized densely, and optimizer trajectories
are replayed under gauge changes. This module is allowed to allocate k x d
verification buffers; it is exempt from the optimizer's memory budget.

The checks of fixed-shape instances step and score them as stacks of at
most STACK_INSTANCES on a leading axis (projector_gauge_check and
decompose_pair_step take stacks, and trajectory_invariance_check steps its
gauge twins as one), drawing them in the stream's order; every deviation is
the one the instance would give alone, bit for bit. The checks of
random-shape instances register through the same loop, _per_stack, one
instance at a time (_per_instance).

The named checks at the bottom produce a machine-readable report consumed
by ``altlora verify``.
"""

from __future__ import annotations

import fnmatch
import functools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import optim
from .adapter import (
    FactoredTarget,
    FullGradient,
    LoraLayer,
    ToyModel,
    _factors,
    init_layer,
    lora_grads,
    merged_weight,
    mse_loss,
    training_pass,
)
from .matcore import (
    RandomStream,
    ShapeMismatch,
    _first_index,
    _slice_name,
    damped_gram_inverse,
    frobenius,
    gauge_sample,
    jacobi_svd,
    projector,
    rel_error,
)


class SingularSystem(Exception):
    """A least-squares design of short column rank."""


class PreconditionViolated(Exception):
    """Inputs do not satisfy a check's stated precondition."""


def _worst(devs, least: bool = False) -> float:
    """Largest deviation (smallest with least=True), NaN if any is NaN: built-in max/min drop it."""
    devs = np.asarray(devs, dtype=float)
    return float(devs.min() if least else devs.max())


# ---------------------------------------------------------------------------
# Least-squares oracle


def lstsq_oracle(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """argmin_Z || Y Z - T ||_F, by numpy's SVD least squares on Y itself.

    Deliberately not the library's route: no Gram Y^T Y is formed, so the
    oracle's error grows with kappa(Y), not kappa(Y)^2. A right-side
    objective || Z Y - T ||_F is lstsq_oracle(Y.T, T.T).T. Full column rank
    only (the oracle works at zero damping).
    """
    z, _, rank, _ = np.linalg.lstsq(y, t, rcond=None)
    if rank < y.shape[1]:
        raise SingularSystem(f"design of shape {y.shape} has rank {rank}")
    return z


# ---------------------------------------------------------------------------
# Merged-weight materializations


def equivalent_update(layer_before: LoraLayer, layer_after: LoraLayer) -> np.ndarray:
    """Dense change of the merged weight between two layer snapshots."""
    if (layer_before.k, layer_before.d) != (layer_after.k, layer_after.d):
        raise ShapeMismatch("layer snapshots have different shapes")
    return merged_weight(layer_after) - merged_weight(layer_before)


@dataclass
class DecompositionReport:
    """Projected terms of an alternating pair step and the joint cross term.

    projected_col_term / projected_row_term are the positive quantities the
    alternating pair subtracts from the merged weight; cross_term is the
    measured second-order excess of one joint step; residual_norm is the
    Frobenius defect of the alternating decomposition, one per slice of a
    stack.
    """

    projected_col_term: np.ndarray
    projected_row_term: np.ndarray
    cross_term: np.ndarray
    residual_norm: float | np.ndarray


def joint_cross_term(layer: LoraLayer, g: FullGradient, eta: float) -> np.ndarray:
    """Explicit second-order term of one undamped joint scaled step.

    (eta^2 / s) G A^T (A A^T)^-1 (B^T B)^-1 B^T G with G = g.g: the product
    of argmin_Z ||Z A - G||_F and argmin_Z ||B Z - G||_F, each by lstsq_oracle.
    """
    _factors(g, layer)  # the kernels' check: a FullGradient whose shapes fit the layer
    return (eta**2 / layer.s) * (lstsq_oracle(layer.a.T, g.g.T).T @ lstsq_oracle(layer.b, g.g))


def decompose_pair_step(
    layer: LoraLayer, g_t: FullGradient, g_half: FullGradient, cfg: optim.TrainConfig
) -> DecompositionReport:
    """Split one A-phase + one B-phase against one joint step, densely.

    Runs both on copies with pure undamped projected gradients (requires
    beta1 = 0, gamma = 0 and lam = 0): the steppers take the FullGradients,
    the projector terms Householder Q Q^T. The alternating update must equal
    the sum of the two projector terms exactly; the joint step differs by the cross term.
    A stacked layer and gradients (S, ...) give each slice's report, stacked.
    """
    if cfg.beta1 != 0.0 or cfg.gamma != 0.0 or cfg.lam != 0.0:
        raise ValueError("decomposition requires beta1 = 0, gamma = 0 and lam = 0")
    for g in (g_t, g_half):
        _factors(g, layer)  # the kernels' check: a FullGradient whose shapes fit the layer
    gt, gh = g_t.g, g_half.g

    cfg_alt = replace(cfg, order=optim.A_FIRST)
    alt = layer.copy()
    st = optim.AltLoraState.init(alt)
    optim.altlora_step(alt, st, g_t, cfg_alt)
    a_plus = alt.a  # the next step rebinds alt.a; this array stays as it is
    optim.altlora_step(alt, st, g_half, cfg_alt)
    dw_alt = equivalent_update(layer, alt)

    col_term = cfg.eta * (projector(layer.b, "column") @ gt)
    row_term = cfg.eta * (gh @ projector(a_plus, "row"))
    residual = frobenius(dw_alt + col_term + row_term)

    joint = layer.copy()
    stj = optim.AltLoraState.init(joint)
    optim.baseline_step(optim.SCALEDGD_JOINT, joint, stj, g_t, cfg)
    dw_joint = equivalent_update(layer, joint)
    cross = dw_joint + col_term + cfg.eta * (gt @ projector(layer.a, "row"))

    return DecompositionReport(col_term, row_term, cross, residual)


# ---------------------------------------------------------------------------
# Gauge invariance


def projector_gauge_check(a1, b1, a2, b2) -> float | np.ndarray:
    """How far apart are the projectors of two factorizations of the same update?

    Requires b1 @ a1 == b2 @ a2 (relative Frobenius 1e-10). Returns the larger
    relative deviation of the column- and row-space projectors; the C04 check
    judges it. Stacked factors (S, ...) give the (S,) deviations, and a slice
    whose products differ raises for the stack, naming it.
    """
    prod_dev = np.asarray(rel_error(b2 @ a2, b1 @ a1))
    if (prod_dev > 1e-10).any():
        where = _first_index(prod_dev > 1e-10)
        raise PreconditionViolated(f"{_slice_name(where)}factor products differ by {prod_dev[where]:.3e} > 1e-10")
    col_dev = rel_error(projector(b2, "column"), projector(b1, "column"))
    row_dev = rel_error(projector(a2, "row"), projector(a1, "row"))
    return np.maximum(col_dev, row_dev)  # NaN propagates


# Gauges per stack in the trajectory checks, so 2 x 5 = 10 runs step at once.
# At 1 / 5 / 10 / 20 gauges per stack, trajectory_invariance_altlora at seed
# 1789 took 237 / 146 / 123 / 134 ms (one BLAS thread, 2-vCPU VM), and the
# peak RSS of all 19 checks grew by 0 / 0.3 / 1.2 / 2.9 MB: 5 takes most of
# the time for the least memory (README, "Stacked runs").
TWIN_STACK_GAUGES = 5


def trajectory_invariance_check(
    task,
    cfg: optim.TrainConfig,
    gauge: np.ndarray,
    steps: int,
    optimizer: str = optim.ALTLORA,
) -> np.ndarray:
    """Per-step relative merged-weight deviation between gauge twins.

    Runs the optimizer from (A, B) and from (R^-1 A, B R), both from fresh
    state, on the same linear task (model, x, FactoredTarget) and step
    schedule, and reports ||W1_t - W2_t||_F / ||W1_t||_F after every step.
    Fresh moments are zero, and every gauge maps zero to itself.

    task and gauge are one instance with an r x r gauge, or G instances
    stacked on a leading axis: every array of the model, the batch and the
    target (G, ...) and the gauge (G, r, r). All 2G twins run as one stack
    with the twin axis first, (2, ...): the factors are stack((A, R^-1 A))
    and stack((B, B R)), W0 and x are shared by broadcasting, and the target
    is a broadcast view with the runs' axes. The twins step in lockstep with
    one shared t: each step is one adapter.training_pass, the pass the runner
    trains with, and one call of optim.make_stepper(optimizer).
    Returns the deviations, (steps,) for one gauge and (G, steps) for G; the
    C05 checks judge them.
    """
    model, x, target = task
    layer = model.layer
    a, b = np.stack((layer.a, np.linalg.solve(gauge, layer.a))), np.stack((layer.b, layer.b @ gauge))
    runs = ToyModel(LoraLayer(layer.w0, a, b, layer.alpha), model.w2)
    state = optim.make_state(optimizer, runs.layer)
    lead = b.shape[:-2]  # the runs' axes, (2, ...)
    target = FactoredTarget(*(np.broadcast_to(f, lead + f.shape[-2:]) for f in (target.us, target.vx)))
    stepper = optim.make_stepper(optimizer)

    devs = np.empty(lead[1:] + (steps,))
    for t in range(steps):
        stepper(runs.layer, state, training_pass(runs, x, target)[1], cfg)
        w = merged_weight(runs.layer)
        devs[..., t] = rel_error(w[1], w[0])
        del w  # freed before the next pass: held through it, it doubled the check's page faults
    return devs


# ---------------------------------------------------------------------------
# Named check suite

REPORT_SCHEMA = "altlora-check-report/1"
DEFAULT_CHECK_SEED = 1789

# check name -> callable(seed) -> CheckResult, filled by the registrations below
CHECKS: dict = {}


@dataclass
class CheckResult:
    name: str
    instances: int
    max_deviation: float
    passed: bool
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.isnan(self.max_deviation):  # a NaN deviation fails its check, reported as inf
            self.max_deviation, self.passed = np.inf, False

    def to_json(self) -> dict:
        return {**asdict(self), "passed": bool(self.passed)}


def _check(fn):
    """Register fn(seed) -> (instances, max_deviation, passed[, info]) under fn's name."""
    name = fn.__name__.lstrip("_")
    CHECKS[name] = lambda seed: CheckResult(name, *fn(seed))
    return fn


# Instances per stack in the stacked checks, and probes per block in
# lstsq_local_minimality. 15 keeps a pair stack's largest arrays, its 32 x 32
# row projectors, at 120 KiB, under glibc's 128 KiB mmap threshold; the
# trajectory checks keep TWIN_STACK_GAUGES (README, "Stacked runs").
STACK_INSTANCES = 15


def _stacks(instances: int, first: int = 0) -> list[range]:
    """first, first + 1, ... for ``instances`` in order, as ranges of at most STACK_INSTANCES."""
    end = first + instances
    return [range(lo, min(lo + STACK_INSTANCES, end)) for lo in range(first, end, STACK_INSTANCES)]


def _per_stack(instances: int, tol: float):
    """Register a check from its deviations on a stack, fn(stream, seeds) -> one per seed.

    fn draws and scores the next len(seeds) instances, instance i seeded
    seed + i, at once: seeds is a range of at most STACK_INSTANCES. One
    stream serves the stacks in order; the worst deviation must be within tol.
    """

    def register(deviations):
        @functools.wraps(deviations)
        def run(seed: int):
            stream = RandomStream(seed)
            worst = _worst(np.concatenate([deviations(stream, seeds) for seeds in _stacks(instances, seed)]))
            return instances, worst, worst <= tol

        return _check(run)

    return register


def _per_instance(instances: int, tol: float):
    """_per_stack for a check that draws and scores one instance at a time, fn(stream, seed + i)."""

    def register(deviation):
        @functools.wraps(deviation)
        def deviations(stream: RandomStream, seeds: range) -> list:
            return [deviation(stream, seed) for seed in seeds]

        return _per_stack(instances, tol)(deviations)

    return register


def _random_instance(stream: RandomStream, r_max: int = 8, dim_max: int = 64):
    r = 1 + int(stream.uniform() * r_max)
    k = r + int(stream.uniform() * (dim_max - r))
    d = r + int(stream.uniform() * (dim_max - r))
    s = float(np.exp(stream.normal()))
    return k, d, r, s


@_per_instance(200, 1e-9)
def _gram_inverse_identity(stream: RandomStream, *_) -> float:
    k, d, r, _ = _random_instance(stream)
    m = stream.normal(k, r)
    lam = float(np.exp(stream.normal() - 3.0))
    return rel_error(damped_gram_inverse(m, "left", lam) @ (m.T @ m + lam * np.eye(r)), np.eye(r))


@_per_instance(100, 1e-10)
def _projector_idempotence(stream: RandomStream, *_) -> float:
    k, d, r, _ = _random_instance(stream)
    b = stream.normal(k, r)
    a = stream.normal(r, d)
    column, row = projector(b, "column"), projector(a, "row")
    devs = [rel_error(column @ b, b)]
    for p in (column, row):
        devs += [rel_error(p @ p, p), float(np.max(np.abs(p - p.T))) / max(frobenius(p), 1e-300)]
    return _worst(devs)


@_per_instance(50, 1e-9)
def _gauge_sample_quality(stream: RandomStream, instance_seed: int) -> float:
    r = 1 + int(stream.uniform() * 8)
    cond = 1.0 + float(stream.uniform()) * 9.0
    g1 = gauge_sample(r, cond, instance_seed)
    sing = jacobi_svd(g1)[1]
    if not np.array_equal(g1, gauge_sample(r, cond, instance_seed)) or sing[-1] <= 0.0:
        return np.inf
    return np.maximum(sing[0] / sing[-1] - cond, 0.0)


@_per_instance(200, 1e-9)
def _lstsq_scaled_grad_a(stream: RandomStream, *_) -> float:
    k, d, r, s = _random_instance(stream)
    g = stream.normal(k, d)
    b = stream.normal(k, r)
    got = optim.scaled_grad_a(s * (b.T @ g), b, s, 0.0)
    return rel_error(got, lstsq_oracle(s * b, g))


@_per_instance(200, 1e-9)
def _lstsq_scaled_grad_b(stream: RandomStream, *_) -> float:
    k, d, r, s = _random_instance(stream)
    g = stream.normal(k, d)
    a = stream.normal(r, d)
    got = optim.scaled_grad_b(s * (g @ a.T), a, s, 0.0)
    return rel_error(got, lstsq_oracle(s * a.T, g.T).T)


@_per_instance(200, 1e-9)
def _lstsq_align_momentum_b(stream: RandomStream, *_) -> float:
    k, d, r, s = _random_instance(stream)
    g = stream.normal(k, d)
    mb, a_old, a_new = stream.normal(k, r), stream.normal(r, d), stream.normal(r, d)
    got = optim.align_momentum_b(mb, a_old, a_new, 0.0)
    return rel_error(got, lstsq_oracle(a_new.T, (mb @ a_old).T).T)


@_per_instance(200, 1e-9)
def _lstsq_align_momentum_a(stream: RandomStream, *_) -> float:
    k, d, r, s = _random_instance(stream)
    g = stream.normal(k, d)
    ma, b_old, b_new = stream.normal(r, d), stream.normal(k, r), stream.normal(k, r)
    got = optim.align_momentum_a(ma, b_old, b_new, 0.0)
    return rel_error(got, lstsq_oracle(b_new, b_old @ ma))


@_check
def _lstsq_local_minimality(seed: int):
    instances, probes = 5, 1000
    stream = RandomStream(seed)
    for _ in range(instances):
        k, d, r = 16, 32, 4
        b = stream.normal(k, r)
        g = stream.normal(k, d)
        z = optim.scaled_grad_a(b.T @ g, b, 1.0, 0.0)  # the library's argmin ||B Z - G||_F
        base = frobenius(b @ z - g)
        for block in _stacks(probes):  # a block of probes, each a normal(r, d) draw in turn
            delta = stream.normal_stack(len(block), r, d)
            delta *= (1e-3 / frobenius(delta))[:, None, None]
            if (frobenius(b @ (z + delta) - g) <= base).any():
                return instances, np.inf, False
    return instances, 0.0, True, {"probes": probes}


def _pair_stack(stream: RandomStream, count: int):
    """count pair instances drawn in turn, as one stack: (layer, g_t, g_half) with dense gradients."""
    k, d, r = 16, 32, 4
    drawn = [(stream.normal(k, d) / np.sqrt(d), stream.normal(r, d), stream.normal(k, r),
              stream.normal(k, d), stream.normal(k, d)) for _ in range(count)]
    w0, a, b, g_t, g_half = (np.stack(arrays) for arrays in zip(*drawn))
    eye = np.eye(d)
    return LoraLayer(w0, a, b, alpha=float(r)), FullGradient(g_t, eye), FullGradient(g_half, eye)


_PAIR_CFG = optim.TrainConfig(eta=0.05, beta1=0.0, lam=0.0)


@_per_stack(100, 1e-10)
def _pair_step_residual(stream: RandomStream, seeds: range) -> np.ndarray:
    rep = decompose_pair_step(*_pair_stack(stream, len(seeds)), _PAIR_CFG)
    return rep.residual_norm / np.maximum(frobenius(rep.projected_col_term + rep.projected_row_term), 1e-300)


@_check
def _joint_cross_term(seed: int):
    instances = 100
    stream = RandomStream(seed)
    eta = _PAIR_CFG.eta
    devs, nonzero = [], True
    for stack in _stacks(instances):
        layer, g_t, _ = _pair_stack(stream, len(stack))
        explicit, bounds = [], []
        for i in range(len(stack)):  # the oracle solves one instance at a time
            one = FullGradient(g_t.u[i], g_t.v)
            explicit.append(joint_cross_term(LoraLayer(layer.w0[i], layer.a[i], layer.b[i], layer.alpha), one, eta))
            bounds.append(1e-8 * eta**2 * frobenius(one.g) ** 2)
        cross = decompose_pair_step(layer, g_t, g_t, _PAIR_CFG).cross_term
        devs.append(rel_error(cross, np.stack(explicit)))
        nonzero = nonzero and bool((frobenius(cross) > np.array(bounds)).all())
    worst = _worst(np.concatenate(devs))
    return instances, worst, worst <= 1e-10 and nonzero, {"nonzero": nonzero}


@_check
def _eta_order_slopes(seed: int):
    stream = RandomStream(seed)
    k, d, r = 16, 32, 4
    # well-conditioned factors keep the row-projector term's eta dependence
    # far below the slope tolerance
    layer = LoraLayer(
        np.zeros((k, d)),
        gauge_sample(r, 2.0, seed) @ stream.normal(r, d) / np.sqrt(d),
        stream.normal(k, r) / np.sqrt(r),
        alpha=float(r),
    )
    g_t = FullGradient(stream.normal(k, d) / np.sqrt(d), np.eye(d))
    g_half = FullGradient(stream.normal(k, d) / np.sqrt(d), np.eye(d))
    etas = [1e-2, 1e-3, 1e-4]
    proj_norms, cross_norms = [], []
    for eta in etas:
        cfg = optim.TrainConfig(eta=eta, beta1=0.0, lam=0.0)
        rep = decompose_pair_step(layer, g_t, g_half, cfg)
        proj_norms.append(
            frobenius(rep.projected_col_term) + frobenius(rep.projected_row_term)
        )
        cross_norms.append(frobenius(rep.cross_term))
    log_etas = np.log(etas)
    proj_slope = float(np.polyfit(log_etas, np.log(proj_norms), 1)[0])
    cross_slope = float(np.polyfit(log_etas, np.log(cross_norms), 1)[0])
    dev = _worst([abs(proj_slope - 1.0), abs(cross_slope - 2.0)])
    return len(etas), dev, dev <= 0.01, {"proj_slope": proj_slope, "cross_slope": cross_slope}


@_per_stack(200, 1e-9)
def _projector_gauge_invariance(stream: RandomStream, seeds: range) -> np.ndarray:
    k, d, r = 12, 20, 3
    drawn = [(stream.normal(r, d), stream.normal(k, r), gauge_sample(r, 10.0, seed + 1000)) for seed in seeds]
    a1, b1, gauge = (np.stack(arrays) for arrays in zip(*drawn))
    return projector_gauge_check(a1, b1, np.linalg.solve(gauge, a1), b1 @ gauge)


def _invariance_task(stream: RandomStream):
    """Linear-regression task with full-rank factors (safe at lam = 0); its
    teacher's Delta is full rank and k < d, so the target is (I, Delta X)."""
    k, d, r = 16, 32, 4
    w0 = stream.normal(k, d) / np.sqrt(d)
    layer = LoraLayer(w0, stream.normal(r, d) / np.sqrt(d), stream.normal(k, r) / np.sqrt(r), float(r))
    delta = stream.normal(k, d) / np.sqrt(d)
    x = stream.normal(d, 4 * d)
    return ToyModel(layer), x, FactoredTarget(np.eye(k), delta @ x)


def _gauge_stacks(stream: RandomStream, gauges: int, gauge_seed: int):
    """Draw ``gauges`` invariance tasks, gauge i seeded gauge_seed + i, as (task, gauge) stacks.

    Each stack holds the next TWIN_STACK_GAUGES instances in draw order, drawn
    only when it is asked for, so one stack's arrays are alive at a time.
    """
    for i in range(0, gauges, TWIN_STACK_GAUGES):
        tasks = [_invariance_task(stream) for _ in range(min(TWIN_STACK_GAUGES, gauges - i))]
        alpha, count = tasks[0][0].layer.alpha, len(tasks)
        arrays = zip(*((m.layer.w0, m.layer.a, m.layer.b, x, t.us, t.vx) for m, x, t in tasks))
        w0, a, b, x, us, vx = (np.stack(one) for one in arrays)
        del tasks, arrays  # only the stacked arrays stay alive while the stack runs
        gauge = np.stack([gauge_sample(a.shape[-2], 10.0, gauge_seed + i + j) for j in range(count)])
        yield (ToyModel(LoraLayer(w0, a, b, alpha)), x, FactoredTarget(us, vx)), gauge


@_check
def _trajectory_invariance_altlora(seed: int):
    gauges, steps = 20, 50
    stream = RandomStream(seed)
    devs = []
    for task, gauge in _gauge_stacks(stream, gauges, seed + 31):
        for beta1 in (0.0, 0.9):
            cfg = optim.TrainConfig(eta=0.2, beta1=beta1, lam=0.0, order=optim.B_FIRST)
            devs.append(trajectory_invariance_check(task, cfg, gauge, steps))
    worst = _worst(np.concatenate(devs))
    # informational only: behavior under nonzero weight decay is not part
    # of the gated claim but is recorded alongside it
    decay_task = _invariance_task(stream)
    decay_gauge = gauge_sample(decay_task[0].layer.r, 10.0, seed + 997)
    decay_cfg = optim.TrainConfig(eta=0.2, beta1=0.9, gamma=0.01, lam=0.0, order=optim.B_FIRST)
    decay_devs = trajectory_invariance_check(decay_task, decay_cfg, decay_gauge, steps)
    info = {"weight_decay_deviation_informational": float(decay_devs.max())}
    return gauges, worst, worst <= 1e-6, info


@_check
def _trajectory_invariance_negative_control(seed: int):
    """Elementwise-adaptive baseline must break gauge invariance."""
    gauges, steps = 20, 50
    stream = RandomStream(seed)
    cfg = optim.TrainConfig(eta=0.02, beta1=0.9, beta2=0.999, lam=0.0)
    run_devs = []
    for task, gauge in _gauge_stacks(stream, gauges, seed + 97):
        devs = trajectory_invariance_check(task, cfg, gauge, steps, optimizer=optim.LORA_ADAM)
        run_devs.append(devs.max(axis=1))  # each gauge's worst step; NaN propagates
    least = _worst(np.concatenate(run_devs), least=True)
    note = "max_deviation is the smallest observed divergence; it must exceed 1e-3"
    return gauges, least, least > 1e-3, {"note": note}


@_per_instance(50, 1e-10)
def _lorapro_x_independence(stream: RandomStream, *_) -> float:
    k, d, r, s = _random_instance(stream, r_max=6, dim_max=32)
    layer = LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), s * r)
    g = FullGradient(stream.normal(k, d), np.eye(d))
    x1, x2 = stream.normal(r, r), stream.normal(r, r)
    ga1, gb1 = optim.lorapro_equiv_grad(g, layer, x1, 1e-8)
    ga2, gb2 = optim.lorapro_equiv_grad(g, layer, x2, 1e-8)
    eq1 = optim.equivalent_gradient(ga1, gb1, layer)
    return rel_error(optim.equivalent_gradient(ga2, gb2, layer), eq1)


# The least probe fd_steps takes, as a fraction of the step it was given.
FD_STEP_FLOOR = 1e-3


def fd_steps(model: ToyModel, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """The central-difference step of each merged-weight entry: step, or for
    the ReLU head h_ij = min(step, 1/2 min_n |z_in| / |x_jn|), z = W X at the
    unperturbed merged weight W and n over x_jn != 0. A probe on W[i, j] moves
    z_in by h_ij |x_jn|, so it stays on its side of every ReLU kink, and entries
    with no kink in reach keep step exactly. h_ij is floored at
    FD_STEP_FLOOR * step: a pre-activation nearer its kink than that (an exact
    zero included) may be crossed, and the check reports the deviation."""
    base = merged_weight(model.layer)
    if model.w2 is None:
        return np.full(base.shape, step)
    abs_x = np.abs(x)  # reach[i, j, n] = |z_in| / |x_jn|, inf where x_jn = 0
    reach = np.divide(np.abs(base @ x)[:, None, :], abs_x, out=np.full(base.shape + x.shape[1:], np.inf),
                      where=abs_x != 0.0)
    return np.maximum(np.minimum(step, 0.5 * reach.min(axis=-1)), FD_STEP_FLOOR * step)


def fd_merged_gradient(model: ToyModel, x: np.ndarray, y: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the loss w.r.t. the merged weight, entry
    (i, j) at fd_steps' step h_ij."""
    layer = model.layer
    base = merged_weight(layer)
    grad = np.zeros_like(base)
    steps = fd_steps(model, x, step)

    def loss_at(w):
        if model.w2 is None:
            return mse_loss(w @ x, y)
        return mse_loss(model.w2 @ np.maximum(w @ x, 0.0), y)

    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            h = steps[i, j]
            wp = base.copy()
            wp[i, j] += h
            wm = base.copy()
            wm[i, j] -= h
            grad[i, j] = (loss_at(wp) - loss_at(wm)) / (2.0 * h)
    return grad


def fd_entrywise_deviation(got: np.ndarray, want: np.ndarray) -> float:
    """Worst per-entry relative error, floored against the gradient scale."""
    scale = float(np.max(np.abs(want)))
    floor = max(1e-3 * scale, 1e-12)
    denom = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / denom))


def _fd_models(seed: int):
    stream = RandomStream(seed)
    lin_layer = LoraLayer(stream.normal(3, 4), stream.normal(2, 4), stream.normal(3, 2), 4.0)
    lin = ToyModel(lin_layer)
    x_lin = stream.normal(4, 6)
    y_lin = stream.normal(3, 6)
    relu_layer = LoraLayer(stream.normal(8, 3), stream.normal(2, 3), stream.normal(8, 2), 2.0)
    relu = ToyModel(relu_layer, stream.normal(3, 8))
    x_relu = stream.normal(3, 5)
    y_relu = stream.normal(3, 5)
    lin_target = FactoredTarget(np.eye(3), y_lin - lin_layer.w0 @ x_lin)  # Y as W0 X + I (Y - W0 X)
    return (lin, x_lin, y_lin, lin_target), (relu, x_relu, y_relu, y_relu)


@_check
def _gradient_finite_difference(seed: int):
    devs = []
    for model, x, y, target in _fd_models(seed):
        got = training_pass(model, x, target)[1].g
        devs.append(fd_entrywise_deviation(got, fd_merged_gradient(model, x, y)))
    worst = _worst(devs)
    return len(devs), worst, worst < 1e-6


@_check
def _bzero_stall(seed: int):
    stream = RandomStream(seed)
    layer = init_layer(stream.normal(8, 12), r=2, init_a="kaiming", init_b="zero", seed=seed)
    g = FullGradient(stream.normal(8, 12), np.eye(12))
    grad_a, _ = lora_grads(g, layer)
    scaled = optim.scaled_grad_a(grad_a, layer.b, layer.s, optim.DEFAULT_DAMPING)
    exact = bool(np.all(grad_a == 0.0) and np.all(scaled == 0.0))
    return 1, 0.0 if exact else np.inf, exact


@_check
def _state_budget(seed: int):
    shapes = [(8, 12, 2), (64, 64, 8), (128, 32, 4)]
    for k, d, r in shapes:
        stream = RandomStream(seed + k)
        layer = LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), float(r))
        for kind in (optim.ALTLORA, optim.ALTLORA_PLUS):
            st = optim.make_state(kind, layer)
            try:
                st.check_budget(layer)
            except AssertionError as exc:  # a non-factor buffer fails the check, not the suite
                return len(shapes), np.inf, False, {"optimizer": kind, "layer": [k, d, r], "error": str(exc)}
            if st.entry_count() > 6 * (k * r + r * d):
                return len(shapes), np.inf, False
    return len(shapes), 0.0, True


@_per_instance(50, 1e-12)
def _equivalent_update_identity(stream: RandomStream, *_) -> float:
    k, d, r, s = _random_instance(stream, r_max=6, dim_max=24)
    before = LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), s * r)
    da = stream.normal(r, d)
    db = stream.normal(k, r)
    after = LoraLayer(before.w0, before.a + da, before.b + db, before.alpha)
    want = before.s * (db @ before.a + before.b @ da + db @ da)
    return rel_error(equivalent_update(before, after), want)


def select_checks(pattern: str | None = None) -> list[str]:
    names = sorted(CHECKS)
    if pattern is None:
        return names
    return [n for n in names if fnmatch.fnmatchcase(n, pattern)]


def run_checks(pattern: str | None = None, seed: int = DEFAULT_CHECK_SEED) -> dict:
    """Run the (optionally filtered) check suite; returns the JSON report.

    A pattern that selects no check raises ValueError.
    """
    names = select_checks(pattern)
    if not names:
        raise ValueError(f"no checks selected by pattern {pattern!r}")
    results = [CHECKS[name](seed) for name in names]
    return {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }
