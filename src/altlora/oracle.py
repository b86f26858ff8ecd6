"""Independent brute-force verifiers for the library's closed-form claims.

Every optimality claim made by :mod:`altlora.optim` is re-derived here by a
deliberately different route: least-squares objectives are flattened to
normal-equation systems and solved for all columns with a generic LU
solver, merged-weight updates are materialized densely, and optimizer
trajectories are replayed under gauge changes. This module is allowed to
allocate k x d verification buffers; it is exempt from the optimizer's
memory budget.

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
    damped_gram_inverse,
    frobenius,
    gauge_sample,
    jacobi_svd,
    projector,
    rel_error,
)

LEFT_FACTOR = "left_factor"
RIGHT_FACTOR = "right_factor"
MOMENTUM_A = "momentum_a"
MOMENTUM_B = "momentum_b"


class SingularSystem(Exception):
    """Flattened normal-equation system is rank-deficient."""


class PreconditionViolated(Exception):
    """Inputs do not satisfy a check's stated precondition."""


def _worst(devs, least: bool = False) -> float:
    """Largest deviation (smallest with least=True), NaN if any is NaN: built-in max/min drop it."""
    devs = np.asarray(devs, dtype=float)
    return float(devs.min() if least else devs.max())


# ---------------------------------------------------------------------------
# Least-squares oracle


def _solve_normal_columns(coef: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve coef @ z_j = rhs_j for every column with a generic LU solve.

    Deliberately not the library's Cholesky path.
    """
    if np.linalg.matrix_rank(coef) < coef.shape[0]:
        raise SingularSystem(f"normal matrix of shape {coef.shape} is rank-deficient")
    return np.linalg.solve(coef, rhs)


# objective -> its inputs as (Y, T, s, side): min_Z || s Y Z - T ||_F (left)
# or || s Z Y - T ||_F (right)
_OBJECTIVES = {
    LEFT_FACTOR: lambda i: (i["b"], i["g"], float(i.get("s", 1.0)), "left"),
    RIGHT_FACTOR: lambda i: (i["a"], i["g"], float(i.get("s", 1.0)), "right"),
    MOMENTUM_B: lambda i: (i["a_new"], i["mb"] @ i["a_old"], 1.0, "right"),
    MOMENTUM_A: lambda i: (i["b_new"], i["b_old"] @ i["ma"], 1.0, "left"),
}


def _objective(objective: str, inputs: dict):
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    return _OBJECTIVES[objective](inputs)


def lstsq_oracle(objective: str, **inputs) -> np.ndarray:
    """Independent minimizer for the library's four projection objectives.

    left_factor:  min_Z || s B Z - G ||_F        (inputs b, g, s)
    right_factor: min_Z || s Z A - G ||_F        (inputs a, g, s)
    momentum_b:   min_Z || Mb Aold - Z Anew ||_F (inputs mb, a_old, a_new)
    momentum_a:   min_Z || Bold Ma - Bnew Z ||_F (inputs ma, b_old, b_new)

    Full-rank instances only (the oracle works at zero damping).
    """
    y, t, s, side = _objective(objective, inputs)
    if side == "left":
        return _solve_normal_columns((s * s) * (y.T @ y), s * (y.T @ t))
    # rows of Z decouple: (s^2 Y Y^T) z_i^T = s Y t_i^T
    return _solve_normal_columns((s * s) * (y @ y.T), s * (y @ t.T)).T


def lstsq_residual(objective: str, z: np.ndarray, **inputs) -> float:
    """Frobenius residual of a candidate Z under the chosen objective."""
    y, t, s, side = _objective(objective, inputs)
    return frobenius(((s * y) @ z if side == "left" else (s * z) @ y) - t)


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
    Frobenius defect of the alternating decomposition.
    """

    projected_col_term: np.ndarray
    projected_row_term: np.ndarray
    cross_term: np.ndarray
    residual_norm: float


def joint_cross_term(layer: LoraLayer, g: FullGradient, cfg: optim.TrainConfig) -> np.ndarray:
    """Explicit second-order term of one joint scaled step.

    (eta^2 / s) G A^T (A A^T + lam I)^-1 (B^T B + lam I)^-1 B^T G, G = g.g.
    """
    _factors(g, layer)  # the kernels' check: a FullGradient whose shapes fit the layer
    gm = g.g
    right = damped_gram_inverse(layer.a, "right", cfg.lam)
    left = damped_gram_inverse(layer.b, "left", cfg.lam)
    return (cfg.eta**2 / layer.s) * (gm @ layer.a.T @ right @ left @ layer.b.T @ gm)


def decompose_pair_step(
    layer: LoraLayer, g_t: FullGradient, g_half: FullGradient, cfg: optim.TrainConfig
) -> DecompositionReport:
    """Split one A-phase + one B-phase against one joint step, densely.

    Runs both on copies with pure projected gradients (requires beta1 = 0
    and gamma = 0): the steppers take the FullGradients, the projector terms
    their dense forms. The alternating update must equal the sum of the two
    projector terms exactly; the joint step differs by the cross term.
    """
    if cfg.beta1 != 0.0 or cfg.gamma != 0.0:
        raise ValueError("decomposition requires beta1 = 0 and gamma = 0")
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

    col_term = cfg.eta * (projector(layer.b, "column", cfg.lam) @ gt)
    row_term = cfg.eta * (gh @ projector(a_plus, "row", cfg.lam))
    residual = frobenius(dw_alt + col_term + row_term)

    joint = layer.copy()
    stj = optim.AltLoraState.init(joint)
    optim.baseline_step(optim.SCALEDGD_JOINT, joint, stj, g_t, cfg)
    dw_joint = equivalent_update(layer, joint)
    cross = dw_joint + col_term + cfg.eta * (gt @ projector(layer.a, "row", cfg.lam))

    return DecompositionReport(col_term, row_term, cross, residual)


# ---------------------------------------------------------------------------
# Gauge invariance


def projector_gauge_check(a1, b1, a2, b2) -> float:
    """How far apart are the projectors of two factorizations of the same update?

    Requires b1 @ a1 == b2 @ a2 (relative Frobenius 1e-10). Returns the larger
    relative deviation of the column- and row-space projectors at zero damping;
    the C04 check judges it.
    """
    prod_dev = rel_error(b2 @ a2, b1 @ a1)
    if prod_dev > 1e-10:
        raise PreconditionViolated(f"factor products differ by {prod_dev:.3e} > 1e-10")
    col_dev = rel_error(projector(b2, "column", 0.0), projector(b1, "column", 0.0))
    row_dev = rel_error(projector(a2, "row", 0.0), projector(a1, "row", 0.0))
    return _worst([col_dev, row_dev])


# Gauges per stack in the trajectory checks, so 2 x 5 = 10 runs step at once.
# At 1 / 5 / 10 / 20 gauges per stack, trajectory_invariance_altlora at seed
# 1789 took 237 / 146 / 123 / 134 ms (one BLAS thread, 2-vCPU VM), and the
# peak RSS of all 19 checks grew by 0 / 0.3 / 1.2 / 2.9 MB: 5 takes most of
# the time for the least memory (README, "Stacked runs").
TWIN_STACK_GAUGES = 5


def _twin_deviations(w: np.ndarray) -> np.ndarray:
    """rel_error(W2, W1) of each gauge's twin pair of merged weights, by frobenius's arithmetic."""
    num, den = (np.sqrt(np.add.reduce(np.square(m), axis=(-2, -1))) for m in (w[1] - w[0], w[0]))
    return np.divide(num, den, out=np.where(num == 0.0, 0.0, np.inf), where=den != 0.0)


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
        devs[..., t] = _twin_deviations(merged_weight(runs.layer))
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


def _per_instance(instances: int, tol: float):
    """Register a check from its deviation on one instance, fn(stream, seed + i).

    One stream serves the instances in order; the worst deviation must be within tol.
    """

    def register(deviation):
        @functools.wraps(deviation)
        def run(seed: int):
            stream = RandomStream(seed)
            worst = _worst([deviation(stream, seed + i) for i in range(instances)])
            return instances, worst, worst <= tol

        return _check(run)

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
    column, row = projector(b, "column", 0.0), projector(a, "row", 0.0)
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
    return rel_error(got, lstsq_oracle(LEFT_FACTOR, b=b, g=g, s=s))


@_per_instance(200, 1e-9)
def _lstsq_scaled_grad_b(stream: RandomStream, *_) -> float:
    k, d, r, s = _random_instance(stream)
    g = stream.normal(k, d)
    a = stream.normal(r, d)
    got = optim.scaled_grad_b(s * (g @ a.T), a, s, 0.0)
    return rel_error(got, lstsq_oracle(RIGHT_FACTOR, a=a, g=g, s=s))


@_per_instance(200, 1e-9)
def _lstsq_align_momentum_b(stream: RandomStream, *_) -> float:
    k, d, r, s = _random_instance(stream)
    g = stream.normal(k, d)
    mb, a_old, a_new = stream.normal(k, r), stream.normal(r, d), stream.normal(r, d)
    got = optim.align_momentum_b(mb, a_old, a_new, 0.0)
    return rel_error(got, lstsq_oracle(MOMENTUM_B, mb=mb, a_old=a_old, a_new=a_new))


@_per_instance(200, 1e-9)
def _lstsq_align_momentum_a(stream: RandomStream, *_) -> float:
    k, d, r, s = _random_instance(stream)
    g = stream.normal(k, d)
    ma, b_old, b_new = stream.normal(r, d), stream.normal(k, r), stream.normal(k, r)
    got = optim.align_momentum_a(ma, b_old, b_new, 0.0)
    return rel_error(got, lstsq_oracle(MOMENTUM_A, ma=ma, b_old=b_old, b_new=b_new))


@_check
def _lstsq_local_minimality(seed: int, instances: int = 5, probes: int = 1000):
    stream = RandomStream(seed)
    for _ in range(instances):
        k, d, r, s = 16, 32, 4, 1.0
        b = stream.normal(k, r)
        g = stream.normal(k, d)
        z = lstsq_oracle(LEFT_FACTOR, b=b, g=g, s=s)
        base = lstsq_residual(LEFT_FACTOR, z, b=b, g=g, s=s)
        for _ in range(probes):
            delta = stream.normal(r, d)
            delta *= 1e-3 / frobenius(delta)
            perturbed = lstsq_residual(LEFT_FACTOR, z + delta, b=b, g=g, s=s)
            if perturbed <= base:
                return instances, np.inf, False
    return instances, 0.0, True, {"probes": probes}


def _pair_instance(stream: RandomStream, k: int = 16, d: int = 32, r: int = 4):
    layer = LoraLayer(
        stream.normal(k, d) / np.sqrt(d),
        stream.normal(r, d),
        stream.normal(k, r),
        alpha=float(r),
    )
    g_t = stream.normal(k, d)
    g_half = stream.normal(k, d)
    return layer, FullGradient(g_t, np.eye(d)), FullGradient(g_half, np.eye(d))


@_per_instance(100, 1e-10)
def _pair_step_residual(stream: RandomStream, *_) -> float:
    cfg = optim.TrainConfig(eta=0.05, beta1=0.0, lam=0.0)
    rep = decompose_pair_step(*_pair_instance(stream), cfg)
    return rep.residual_norm / max(frobenius(rep.projected_col_term + rep.projected_row_term), 1e-300)


@_check
def _joint_cross_term(seed: int, instances: int = 100):
    stream = RandomStream(seed)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.0, lam=0.0)
    devs, nonzero = [], True
    for _ in range(instances):
        layer, g_t, _ = _pair_instance(stream)
        rep = decompose_pair_step(layer, g_t, g_t, cfg)
        devs.append(rel_error(rep.cross_term, joint_cross_term(layer, g_t, cfg)))
        bound = 1e-8 * cfg.eta**2 * frobenius(g_t.g) ** 2
        nonzero = nonzero and frobenius(rep.cross_term) > bound
    worst = _worst(devs)
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


@_per_instance(200, 1e-9)
def _projector_gauge_invariance(stream: RandomStream, instance_seed: int) -> float:
    k, d, r = 12, 20, 3
    a1 = stream.normal(r, d)
    b1 = stream.normal(k, r)
    gauge = gauge_sample(r, 10.0, instance_seed + 1000)
    return projector_gauge_check(a1, b1, np.linalg.solve(gauge, a1), b1 @ gauge)


def _invariance_task(stream: RandomStream, k: int = 16, d: int = 32, r: int = 4):
    """Linear-regression task with full-rank factors (safe at lam = 0); its
    teacher's Delta is full rank and k < d, so the target is (I, Delta X)."""
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
def _trajectory_invariance_altlora(seed: int, gauges: int = 20, steps: int = 50):
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
def _trajectory_invariance_negative_control(seed: int, gauges: int = 20, steps: int = 50):
    """Elementwise-adaptive baseline must break gauge invariance."""
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


def fd_merged_gradient(model: ToyModel, x: np.ndarray, y: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the loss w.r.t. the merged weight."""
    layer = model.layer
    base = merged_weight(layer)
    grad = np.zeros_like(base)

    def loss_at(w):
        if model.w2 is None:
            return mse_loss(w @ x, y)
        return mse_loss(model.w2 @ np.maximum(w @ x, 0.0), y)

    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            wp = base.copy()
            wp[i, j] += step
            wm = base.copy()
            wm[i, j] -= step
            grad[i, j] = (loss_at(wp) - loss_at(wm)) / (2.0 * step)
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
