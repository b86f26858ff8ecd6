"""Desk-scale experiments: the task generator, the runner, probes, accounting.

Tasks are synthetic analogues of fine-tuning toward a low-rank residual:
a teacher weight W* = W0 + Delta* with a controllable singular spectrum,
full-batch MSE, and deterministic generation per seed. The runner records
a metric stream (CSV schema below) plus a JSON-sidecar summary; the width
probe and the state/FLOP accounting back the structural experiments.

Condition number enters through two switches: the teacher residual
spectrum (default for the factorization task) or the input covariance
spectrum (default for the ReLU task).

CSV schema: ``step,loss,weight_err,grad_norm,state_entries,flops``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import optim
from .adapter import (
    INIT_POLICIES,
    FactoredTarget,
    ToyModel,
    factored_norms,
    forward,
    init_layer,
    training_pass,
)
from .matcore import (
    RandomStream,
    SingularGram,
    cholesky_factor,
    frobenius,
    orthonormal_columns,
    sum_of_squares,
)

TASKS = ("lowrank", "two_layer_relu")
KAPPA_KNOBS = ("teacher", "input")

CSV_HEADER = "step,loss,weight_err,grad_norm,state_entries,flops"
LOSS_THRESHOLD = 1e-3
DIVERGENCE_LIMIT = 1e6
# JSON names of config fields that differ from the Python name
# ("lambda" is a Python keyword).
JSON_ALIASES = {"lam": "lambda"}


class InvalidSpec(Exception):
    """Experiment description violates its invariants."""


class DivergenceDetected(Exception):
    """Loss blew past the divergence limit; carries the partial record."""

    def __init__(self, message: str, record: "RunRecord"):
        super().__init__(message)
        self.record = record


@dataclass
class ExperimentSpec:
    """Declarative description of one training run."""

    task: str = "lowrank"
    k: int = 32
    d: int = 32
    r: int = 8
    width: int = 128
    teacher_rank: int = 4
    kappa: float = 1.0
    optimizer: str = optim.ALTLORA
    train: optim.TrainConfig = field(default_factory=lambda: optim.TrainConfig(eta=0.5))
    init_a: str = "kaiming"
    init_b: str = "zero"
    alpha: float | None = None
    seed: int = 0
    eval_every: int = 10
    kappa_knob: str | None = None  # default depends on task

    def __post_init__(self):
        if self.task not in TASKS:
            raise InvalidSpec(f"task must be one of {TASKS}, got {self.task!r}")
        if self.optimizer not in optim.OPTIMIZERS:
            raise InvalidSpec(f"unknown optimizer {self.optimizer!r}")
        if self.init_a not in INIT_POLICIES or self.init_b not in INIT_POLICIES:
            raise InvalidSpec(f"init policies must be among {INIT_POLICIES}")
        if not 1.0 <= self.kappa < math.inf:
            raise InvalidSpec(f"kappa must be finite and >= 1, got {self.kappa}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if self.eval_every < 1:
            raise InvalidSpec(f"eval_every must be positive, got {self.eval_every}")
        if self.kappa_knob is None:
            self.kappa_knob = "teacher" if self.task == "lowrank" else "input"
        if self.kappa_knob not in KAPPA_KNOBS:
            raise InvalidSpec(f"kappa_knob must be one of {KAPPA_KNOBS}")
        if not (1 <= self.teacher_rank <= self.r <= min(self.layer_k, self.d)):
            raise InvalidSpec(
                f"need teacher_rank <= r <= min(k, d); got r*={self.teacher_rank}, "
                f"r={self.r}, k={self.layer_k}, d={self.d}"
            )
        if self.task == "two_layer_relu" and self.width < 4 * self.d:
            raise InvalidSpec(f"relu task needs width >= 4 d, got {self.width} < {4 * self.d}")
        if self.alpha is not None and not 0.0 < self.alpha < math.inf:
            raise InvalidSpec(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def layer_k(self) -> int:
        """Output width of the adapted layer: k, or the hidden width of the ReLU task."""
        return self.k if self.task == "lowrank" else self.width

    @property
    def batch_size(self) -> int:
        """Columns of the full training batch."""
        return 4 * self.d

    def to_dict(self) -> dict:
        """The spec as JSON: fields in declaration order, under their JSON names."""
        return _json_dict(self)


def _json_dict(config) -> dict:
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        doc[JSON_ALIASES.get(f.name, f.name)] = _json_dict(value) if is_dataclass(value) else value
    return doc


@dataclass
class Task:
    """Generated instance: the student model, the batch, its target and the
    teacher W* = W0 + us vt (us = U Sigma, vt = V^T), kept as its factors for
    both heads' eval rows. The lowrank target is FactoredTarget(us, vt X); the
    ReLU task's is the dense w2 relu(W* X)."""

    model: ToyModel
    x: np.ndarray
    target: np.ndarray | FactoredTarget
    us: np.ndarray
    vt: np.ndarray


@dataclass
class RunRecord:
    """Per-eval metric rows plus the terminal summary.

    Rows are (step, loss, weight_err, grad_norm, state_entries, flops);
    weight_err is the relative Frobenius distance of the merged weight to
    the teacher weight of the adapted layer. steps_to_threshold is the
    first step with loss <= 1e-3, or -1 if never reached.
    """

    rows: list
    steps_to_threshold: int = -1
    diverged: bool = False
    final_loss: float = math.nan

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for step, loss, werr, gnorm, entries, flops in self.rows:
            lines.append(f"{step},{loss!r},{werr!r},{gnorm!r},{entries},{flops}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse_csv(text: str) -> "RunRecord":
        """The rows of to_csv's text; the terminal summary is in the run's sidecar, not the CSV."""
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {lines[0] if lines else '<empty>'}")
        rows = []
        for ln in lines[1:]:
            step, loss, werr, gnorm, entries, flops = ln.split(",")
            rows.append((int(step), float(loss), float(werr), float(gnorm), int(entries), int(flops)))
        return RunRecord(rows)


# ---------------------------------------------------------------------------
# Task generation


def _log_spaced_spectrum(count: int, kappa: float) -> np.ndarray:
    return np.exp(np.linspace(0.0, -math.log(kappa), count))


def _conditioned_inputs(d: int, m: int, kappa: float, stream: RandomStream) -> np.ndarray:
    """Inputs whitened then reshaped so X X^T / m has spectrum spanning kappa."""
    z = stream.normal(d, m)
    cov = z @ z.T / m
    white = np.linalg.solve(cholesky_factor(cov), z)
    del z
    q = orthonormal_columns(d, d, stream)
    lam = _log_spaced_spectrum(d, kappa)
    white = q.T @ white
    return (q * np.sqrt(lam)) @ white


def generate_task(spec: ExperimentSpec) -> Task:
    """Teacher W* = W0 + Delta*, Delta* rank r* with a log-spaced spectrum.

    The adapted layer is spec.layer_k x d. Data is standard Gaussian d x 4d
    (or conditioned when the kappa knob is on the inputs); targets are W* X
    as a FactoredTarget. The ReLU task also draws the frozen second layer w2,
    shared by teacher and student, after the teacher and targets
    w2 relu(W* X). Deterministic per seed.
    """
    stream = RandomStream(spec.seed)
    k, d, rstar = spec.layer_k, spec.d, spec.teacher_rank
    w0 = stream.normal(k, d) / math.sqrt(d)
    u = orthonormal_columns(k, rstar, stream)
    v = orthonormal_columns(d, rstar, stream)
    teacher_kappa = spec.kappa if spec.kappa_knob == "teacher" else 1.0
    us, vt = u * _log_spaced_spectrum(rstar, teacher_kappa), v.T
    relu = spec.task == "two_layer_relu"
    w2 = stream.normal(d, k) / math.sqrt(k) if relu else None
    m = spec.batch_size
    x = _conditioned_inputs(d, m, spec.kappa, stream) if spec.kappa_knob == "input" else stream.normal(d, m)
    target = w2 @ np.maximum((w0 + us @ vt) @ x, 0.0) if relu else FactoredTarget(us, vt @ x)
    layer = init_layer(w0, spec.r, alpha=spec.alpha, init_a=spec.init_a, init_b=spec.init_b, stream=stream)
    return Task(ToyModel(layer, w2), x, target, us, vt)


# ---------------------------------------------------------------------------
# FLOP model (documented convention; a matmul (a x b)(b x c) costs 2abc)


def _task_flops(spec: ExperimentSpec) -> int:
    """One factored training pass: forward from the cached W0 X, loss, dZ.

    The base product W0 X is computed once per run and the gradient is kept
    as the factors of dZ X^T, so neither counts here; nor do eval rows.
    This is the documented analytic convention behind the CSV flops column:
    it counts the scale by s, the add of W0 X and the loss's subtraction as
    before, also where s = 1 skips the scale, the pass shares one residual
    between loss and dY, and a lowrank pass forms P QX without W0 X or, past
    one square chunk, the compressed form's R_P QX and X QX^T in place of
    any k x m array, so the column stays byte-identical.
    """
    k, d, r, m = spec.layer_k, spec.d, spec.r, spec.batch_size
    fwd = 2 * r * d * m + 2 * k * r * m + 2 * k * m  # A X, B (A X), scale and add W0 X
    out, bwd = k, 0
    if spec.task == "two_layer_relu":
        out = d
        fwd += k * m + 2 * out * k * m  # ReLU, W2 H
        bwd = 2 * out * k * m + k * m  # W2^T dY, ReLU mask
    loss = 3 * out * m
    return fwd + loss + 2 * out * m + bwd  # 2 out m: dY = (2 / m) (Y - T)


def _optimizer_flops(spec: ExperimentSpec) -> int:
    """FLOPs per step of the optimizer, the analytic convention of the CSV ``flops`` column.

    It counts both factor gradients and, for the alternating steppers, two
    Gram factorizations per step, although a phase forms only the moving
    factor's gradient and, with momentum, reuses the realignment's inverse.
    Keeping that convention keeps the run CSVs byte-identical.
    """
    k, d, r, m = spec.layer_k, spec.d, spec.r, spec.batch_size
    factor_grads = 4 * r * m * (k + d)  # lora_grads: both factors from G = u v^T
    gram = 2 * r * r * max(k, d) + r**3  # form Gram + factorize
    solve = 2 * r * r * max(k, d)  # apply the inverse
    align = gram + 2 * r * r * max(k, d)
    axpy = 2 * r * max(k, d)
    kind = spec.optimizer
    if kind == optim.ALTLORA:
        return factor_grads + gram + solve + align + axpy
    if kind == optim.ALTLORA_PLUS:
        return factor_grads + gram + solve + align + 4 * r * max(k, d) + axpy
    if kind in (optim.LORA_SGD, optim.LORA_PLUS):
        return factor_grads + 2 * axpy
    if kind == optim.LORA_ADAM:
        return factor_grads + 8 * r * (k + d) + 2 * axpy
    if kind == optim.SCALEDGD_JOINT:
        return factor_grads + 2 * (gram + solve) + 2 * axpy
    raise InvalidSpec(f"unknown optimizer {kind!r}")


# ---------------------------------------------------------------------------
# Runner


def _evaluator(task: Task):
    """g -> (weight_err, grad_norm) of the eval row of the pass g, one design for both heads.

    weight_err is adapter.factored_norms' ||s B A - U Sigma V^T||_F over ||W*||_F,
    whose square is ||W0||^2 + 2 <U Sigma, W0 V> + ||U Sigma V^T||^2; neither
    forms a k x d array. grad_norm is the lowrank row's factored ||G||_F; the ReLU
    row's is ||dZ X^T||_F from the dense g.g, a product that is generically full rank.
    """
    layer, us, vt, w0 = task.model.layer, task.us, task.vt, task.model.layer.w0
    square = sum_of_squares(w0) + 2.0 * np.vdot(us, np.dot(w0, vt.T)) + np.vdot(us.T @ us, vt @ vt.T)
    teacher_norm = max(math.sqrt(square), 1e-300)
    # the ReLU row's target is the teacher, as the target of the identity batch: its P is the lowrank row's
    lowrank = isinstance(task.target, FactoredTarget)
    target, x = (task.target, task.x) if lowrank else (FactoredTarget(us, vt), None)

    def evaluate(g) -> tuple[float, float]:
        err, grad_norm = factored_norms(layer, target, vt, x)
        return err / teacher_norm, frobenius(g.g) if x is None else grad_norm

    return evaluate


def run_experiment(spec: ExperimentSpec) -> RunRecord:
    """Full-batch training loop; gradient recomputed before every phase.

    Each pass is one adapter.training_pass: the residual Y - T is formed
    once and serves both the loss and dY. The lowrank target is factored,
    so no pass forms W0 X (the ReLU head computes it once). model, x and
    target stay the same objects across the loop, so the layer's memo forms
    A X (and a compressed pass's X QX^T) once per A: a B-phase leaves
    layer.a bound, and the pass after it reuses them. A pass runs in
    O((r + r*) (k + d) m) and forms no k x d array. Records an eval row
    (_evaluator) at step 0, every eval_every steps, and at the final step.
    Deterministic per spec. Raises DivergenceDetected (carrying the partial
    record) when the loss exceeds 1e6 or stops being finite, or when a step
    meets a singular Gram.
    """
    task = generate_task(spec)
    model, x, target = task.model, task.x, task.target
    cfg = spec.train
    stepper = optim.make_stepper(spec.optimizer)
    state = optim.make_state(spec.optimizer, model.layer)
    flops_per_step = _task_flops(spec) + _optimizer_flops(spec)
    evaluate = _evaluator(task)

    layer, steps, eval_every = model.layer, cfg.steps, spec.eval_every
    rows: list = []
    steps_to_threshold = -1
    loss = math.nan
    for t in range(steps + 1):
        loss, g = training_pass(model, x, target)
        if not math.isfinite(loss) or loss > DIVERGENCE_LIMIT:
            rec = RunRecord(rows, steps_to_threshold, diverged=True, final_loss=loss)
            raise DivergenceDetected(f"loss {loss} at step {t}", rec)
        if steps_to_threshold < 0 and loss <= LOSS_THRESHOLD:
            steps_to_threshold = t
        if t % eval_every == 0 or t == steps:
            rows.append((t, loss, *evaluate(g), state.entry_count(), t * flops_per_step))
        if t == steps:
            break
        eta_t = optim.effective_eta(cfg, t)
        step_cfg = cfg if eta_t == cfg.eta else replace(cfg, eta=eta_t)
        try:
            stepper(layer, state, g, step_cfg)
        except SingularGram as exc:
            rec = RunRecord(rows, steps_to_threshold, diverged=True, final_loss=loss)
            raise DivergenceDetected(f"singular Gram in the update at step {t}: {exc}", rec) from exc
        del g  # no k x m array of a pass outlives it
    return RunRecord(rows, steps_to_threshold, final_loss=loss)


# ---------------------------------------------------------------------------
# Width-scaling probe


@dataclass
class ProbeResult:
    magnitudes: list
    slope: float


def _probe_once(
    n: int,
    rank: int,
    seed: int,
    optimizer_kind: str,
    cfg: optim.TrainConfig,
    teacher_scale: float = 1.0,
) -> float:
    """One two-phase update on a width-n square layer; returns ||dW x||_inf.

    The teacher residual has rank-r singular values Theta(sqrt(n)) so its
    action on a Theta(1)-entry probe vector has Theta(1) entries, matching
    the stability convention the probe is calibrated against.
    """
    stream = RandomStream(seed)
    u = orthonormal_columns(n, rank, stream)
    v = orthonormal_columns(n, rank, stream)
    m = 2 * n
    x = stream.normal(n, m)
    target = FactoredTarget(u * (teacher_scale * math.sqrt(n)), v.T @ x)
    layer = init_layer(np.zeros((n, n)), rank, init_a="kaiming", init_b="zero", stream=stream)
    model = ToyModel(layer)
    stepper = optim.make_stepper(optimizer_kind)
    state = optim.make_state(optimizer_kind, layer)
    step_cfg = replace(cfg, order=optim.B_FIRST, steps=2)
    for _ in range(2):
        stepper(layer, state, training_pass(model, x, target)[1], step_cfg)
    probe = stream.normal(n, 1)
    return float(np.max(np.abs(forward(model, probe)[0])))  # W0 = 0: s B (A probe), bit for bit


def width_scaling_probe(
    widths,
    optimizer_kind: str,
    cfg: optim.TrainConfig,
    rank: int = 4,
    seeds: int = 8,
) -> ProbeResult:
    """Feature-update magnitude versus width, with a fitted log-log slope.

    For each width the probe takes one B-phase plus one A-phase (two joint
    steps for joint baselines) from standard init and measures the merged
    update's action on a random probe vector, averaged over seeds. Returns
    the magnitudes, one per width in order, and the slope; a slope near zero
    means width-stable feature updates.
    """
    widths = [int(w) for w in widths]
    if len(widths) < 4 or any(b <= a for a, b in zip(widths, widths[1:])):
        raise InvalidSpec("widths must be strictly increasing with at least 4 values")
    magnitudes = [
        float(np.mean([_probe_once(n, rank, 1000 * n + i, optimizer_kind, cfg) for i in range(seeds)]))
        for n in widths
    ]
    if min(magnitudes) <= 0.0:
        return ProbeResult(magnitudes, math.nan)
    slope = float(np.polyfit(np.log(widths), np.log(magnitudes), 1)[0])
    return ProbeResult(magnitudes, slope)


# ---------------------------------------------------------------------------
# State accounting (Table-style space comparison; analytic, never allocated)


# Factor-shaped buffer multiples per optimizer: persistent state plus the
# per-step work buffers of one update. One unit is (k r + r d) entries.
_STATE_UNITS = {
    optim.ALTLORA: 4,  # first moments, raw + scaled gradients, realigned moment
    optim.ALTLORA_PLUS: 6,  # + second moments, bias-corrected direction
    optim.LORA_SGD: 1,  # raw gradients
    optim.LORA_PLUS: 1,
    optim.LORA_ADAM: 3,  # raw gradients + first + second moments
    optim.SCALEDGD_JOINT: 2,  # raw + scaled gradients
}

FULL_MOMENT = "lorapro_full_moment"


def state_accounting(k: int, d: int, r: int, method: str) -> int:
    """Entries ``method`` holds on a k x d layer at rank r: its state plus one step's work buffers.

    Counted in _STATE_UNITS factor pairs of k r + r d entries, so altlora counts 4
    where AltLoraState.entry_count() (the CSV's state_entries) holds 1 pair. The
    full-moment comparison layout keeps dense k x d first and second moments
    (2 k d entries); it is computed here for comparison and never allocated.
    """
    if method == FULL_MOMENT:
        return 2 * k * d
    if method not in _STATE_UNITS:
        raise InvalidSpec(f"unknown accounting method {method!r}")
    return _STATE_UNITS[method] * (k * r + r * d)
