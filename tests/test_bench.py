"""Experiment-harness tests: task generation, the runner, probes, accounting."""

import itertools
import json
import math
import tracemalloc
from dataclasses import MISSING, fields

import numpy as np
import pytest

import pass_reference as pass_ref
from altlora import adapter, bench, cli, optim
from altlora.adapter import (
    FactoredTarget,
    FullGradient,
    LoraLayer,
    ToyModel,
    merged_weight,
    training_pass,
)
from altlora.matcore import NORMAL_CHUNK, SQUARE_CHUNK, RandomStream, frobenius, jacobi_svd, rel_error


def _spec(**kw):
    defaults = dict(
        task="lowrank",
        k=32,
        d=32,
        r=4,
        teacher_rank=4,
        kappa=1.0,
        optimizer=optim.ALTLORA,
        seed=1,
        eval_every=10,
        train=optim.TrainConfig(eta=0.3, beta1=0.0, lam=1e-6, order=optim.B_FIRST, steps=200),
    )
    defaults.update(kw)
    return bench.ExperimentSpec(**defaults)


# ---------------------------------------------------------------------------
# Task generation


def test_lowrank_rank_one_teacher_has_single_direction():
    task = bench.generate_task(_spec(teacher_rank=1, r=2))
    delta = pass_ref.teacher_weight(task) - task.model.layer.w0
    sing = jacobi_svd(delta)[1]
    assert sing[0] > 0.9
    assert np.all(sing[1:] < 1e-12)


def test_lowrank_task_deterministic():
    a = bench.generate_task(_spec(seed=5))
    b = bench.generate_task(_spec(seed=5))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.target.us, b.target.us) and np.array_equal(a.target.vx, b.target.vx)
    assert np.array_equal(pass_ref.teacher_weight(a), pass_ref.teacher_weight(b))
    assert np.array_equal(a.model.layer.a, b.model.layer.a)


def test_lowrank_teacher_spectrum_spans_kappa():
    task = bench.generate_task(_spec(kappa=100.0))
    delta = pass_ref.teacher_weight(task) - task.model.layer.w0
    sing = jacobi_svd(delta)[1][:4]
    assert abs(sing[0] / sing[3] - 100.0) < 1e-9


@pytest.mark.parametrize("kappa", [1.0, 3.7, 10.0, 100.0])
def test_a_rank_one_spectrum_is_one(kappa):
    assert np.array_equal(bench._log_spaced_spectrum(1, kappa), [1.0])


def test_lowrank_input_knob_conditions_the_data():
    spec = _spec(kappa=50.0, kappa_knob="input")
    task = bench.generate_task(spec)
    cov = task.x @ task.x.T / task.x.shape[1]
    eig = jacobi_svd(cov)[1]
    assert abs(eig[0] / eig[-1] - 50.0) < 1e-6
    # teacher spectrum stays flat when the knob is on the inputs
    delta = pass_ref.teacher_weight(task) - task.model.layer.w0
    sing = jacobi_svd(delta)[1][:4]
    assert sing[0] / sing[3] < 1.0 + 1e-9


def test_relu_task_mirrors_lowrank_contracts():
    spec = _spec(task="two_layer_relu", d=8, width=32, r=3, teacher_rank=2, kappa=25.0)
    a = bench.generate_task(spec)
    b = bench.generate_task(spec)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.target, b.target)
    delta = pass_ref.teacher_weight(a) - a.model.layer.w0
    sing = jacobi_svd(delta)[1]
    assert np.all(sing[2:] < 1e-12)  # rank r* perturbation
    cov = a.x @ a.x.T / a.x.shape[1]
    eig = jacobi_svd(cov)[1]
    assert abs(eig[0] / eig[-1] - 25.0) < 1e-6  # input-covariance knob by default


def test_invalid_specs_are_rejected():
    with pytest.raises(bench.InvalidSpec):
        _spec(teacher_rank=5, r=4)  # r* > r
    with pytest.raises(bench.InvalidSpec):
        _spec(r=40)  # r > min(k, d)
    with pytest.raises(bench.InvalidSpec):
        _spec(kappa=0.5)
    with pytest.raises(bench.InvalidSpec):
        _spec(task="two_layer_relu", d=16, width=16)  # width < 4 d
    with pytest.raises(bench.InvalidSpec):
        _spec(optimizer="sgd_but_better")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["kappa", "alpha"])
def test_a_non_finite_spec_value_is_rejected(name, value):
    with pytest.raises(bench.InvalidSpec, match=f"^{name} must be (positive and )?finite"):
        _spec(**{name: value})


# ---------------------------------------------------------------------------
# Runner


def test_zero_steps_yields_single_initial_row():
    rec = bench.run_experiment(_spec(train=optim.TrainConfig(eta=0.3, steps=0)))
    assert len(rec.rows) == 1
    assert rec.rows[0][0] == 0


def test_zero_learning_rate_keeps_loss_constant():
    rec = bench.run_experiment(
        _spec(optimizer=optim.LORA_SGD, train=optim.TrainConfig(eta=0.0, steps=40))
    )
    losses = {row[1] for row in rec.rows}
    assert len(losses) == 1


def test_altlora_convergence_golden():
    rec = bench.run_experiment(_spec())
    assert rec.steps_to_threshold == 20  # golden value, pinned from the first run
    assert rec.final_loss < 1e-12


def test_run_record_determinism_and_csv_round_trip():
    rec1 = bench.run_experiment(_spec(seed=3))
    rec2 = bench.run_experiment(_spec(seed=3))
    assert rec1.to_csv() == rec2.to_csv()
    parsed = bench.RunRecord.parse_csv(rec1.to_csv())
    assert parsed.rows == rec1.rows
    with pytest.raises(ValueError):
        bench.RunRecord.parse_csv("a,b,c\n1,2,3\n")


def test_run_record_rows_monotone_and_state_constant():
    rec = bench.run_experiment(_spec(seed=4))
    steps = [row[0] for row in rec.rows]
    assert steps == sorted(steps)
    assert len({row[4] for row in rec.rows}) == 1
    flops = [row[5] for row in rec.rows]
    assert all(b > a for a, b in zip(flops, flops[1:]))


def test_divergence_detection_flags_partial_record():
    spec = _spec(optimizer=optim.LORA_SGD, train=optim.TrainConfig(eta=50.0, steps=200))
    with pytest.raises(bench.DivergenceDetected) as info:
        bench.run_experiment(spec)
    assert info.value.record.diverged is True
    assert len(info.value.record.rows) >= 1


def test_relu_task_trains():
    spec = _spec(
        task="two_layer_relu",
        d=6,
        width=24,
        r=2,
        teacher_rank=2,
        kappa=1.0,
        train=optim.TrainConfig(eta=0.2, beta1=0.0, lam=1e-6, order=optim.B_FIRST, steps=300),
    )
    rec = bench.run_experiment(spec)
    assert rec.rows[-1][1] < rec.rows[0][1] * 0.05  # loss dropped by 20x or more


@pytest.mark.parametrize("optimizer", list(optim.OPTIMIZERS))
def test_runner_dispatches_every_optimizer(optimizer):
    eta = {"lora_plus": 0.02}.get(optimizer, 0.1)
    rec = bench.run_experiment(
        _spec(optimizer=optimizer, train=optim.TrainConfig(eta=eta, lam=1e-6, steps=20))
    )
    assert len(rec.rows) == 3
    assert np.isfinite(rec.final_loss)


EPS = np.finfo(np.float64).eps
# The lowrank pass forms its residual from the factored target; the dense
# pass of tests/pass_reference.py, on the same layer, is its oracle. Each gap
# is within FLOOR_ULPS of the dense path's own rounding floor: eps (||W0 X||_F
# + ||s B A X||_F) for the residual Z - W* X, eps (||W0||_F + ||s B A||_F) for
# the weight error. 1.7 floors is the worst seen.
FLOOR_ULPS = 8


def _outcome(run, spec):
    """The divergence message (None when the run finishes), steps_to_threshold and the CSV lines."""
    try:
        message, record = None, run(spec)
    except bench.DivergenceDetected as exc:
        message, record = str(exc), exc.record
    return message, record.steps_to_threshold, record.to_csv().splitlines()


def _earlier_outcome(spec, monkeypatch):
    """_outcome of the run of tests/pass_reference.py, with its steppers."""
    with monkeypatch.context() as earlier:
        earlier.setattr(optim, "_alternating_step", pass_ref.alternating_step)
        earlier.setattr(optim, "baseline_step", pass_ref.baseline_step)
        return _outcome(pass_ref.run_experiment, spec)


def _dense_pass(model, x, y):
    """The dense pass's loss and gradient on the layer as it is, its residual's floor, and its A X."""
    layer = model.layer
    y_hat, cache = pass_ref.forward(model, x)
    floor = EPS * (frobenius(layer.w0 @ x) + frobenius(layer.s * (layer.b @ cache["ax"])))
    return pass_ref.mse_loss(y_hat, y), pass_ref.full_gradient(model, x, y, cache)[0], floor, cache["ax"]


@pytest.fixture
def compressed(monkeypatch):
    """Every factored pass takes the compressed form: the size rule's threshold, lowered in adapter only."""
    monkeypatch.setattr(adapter, "SQUARE_CHUNK", 0)


def _assert_meets_dense(loss, g, dense, m, ax):
    """A factored pass's loss and gradient within FLOOR_ULPS of the dense floor.

    The A X the pass holds in the layer's memo is the dense pass's bit for
    bit. A residual-form pass's dY is compared; a compressed pass's gradient
    G = (2/m) P (X QX^T)^T as a whole, within the bound that dY's gap puts
    on dY X^T.
    """
    want_loss, want, floor, want_ax = dense
    gap = FLOOR_ULPS * floor  # bounds ||res - res_dense||_F
    assert abs(loss - want_loss) <= (2.0 * math.sqrt(m * want_loss) * gap + gap * gap) / m
    assert np.array_equal(ax, want_ax)
    if g.u.shape[-1] != m:  # a compressed pass's u is (2/m) P, k x r'
        assert frobenius(g.g - want.g) <= 2.0 / m * gap * frobenius(want.v)
    else:
        assert frobenius(g.u - want.u) <= 2.0 / m * gap


def _weight_floor(layer):
    """The dense weight error's rounding floor, eps (||W0||_F + ||s B A||_F)."""
    return EPS * (frobenius(layer.w0) + frobenius(layer.s * (layer.b @ layer.a)))


def _assert_eval_meets_dense(evaluate, g, dense, layer, teacher, x):
    """weight_err and grad_norm of a factored pass against the merged weight and the dense G."""
    werr, norm = evaluate(g)
    _, want, floor, _ = dense
    teacher_norm = frobenius(teacher)
    weight_floor = _weight_floor(layer)
    dense_err = frobenius(merged_weight(layer) - teacher) / teacher_norm
    assert abs(werr - dense_err) <= FLOOR_ULPS * weight_floor / teacher_norm
    assert abs(norm - frobenius(want.g)) <= 2.0 / x.shape[1] * FLOOR_ULPS * floor * frobenius(x)
    return werr, norm


def _divergence_step(message):
    return None if message is None else message.split(" at step ")[1].split(":")[0]


def _meets_the_dense_pass(spec, monkeypatch):
    """A lowrank run with each pass and eval row beside the dense pass on the same layer.

    The run then ends as the dense reference run does: the same divergence
    step and steps_to_threshold, and the same step, state_entries and flops
    columns. Returns its _outcome.
    """
    task = bench.generate_task(spec)
    teacher, m = pass_ref.teacher_weight(task), task.x.shape[1]
    y = teacher @ task.x
    real_pass, real_evaluator, dense = bench.training_pass, bench._evaluator, []

    def beside_dense(model, x, target):
        loss, g = real_pass(model, x, target)
        dense.append(_dense_pass(model, x, y))
        _assert_meets_dense(loss, g, dense[-1], m, model.layer._memo["ax"][2])
        return loss, g

    def evaluator(task):
        evaluate, layer = real_evaluator(task), task.model.layer
        return lambda g: _assert_eval_meets_dense(evaluate, g, dense[-1], layer, teacher, task.x)

    with monkeypatch.context() as hooked:
        hooked.setattr(bench, "training_pass", beside_dense)
        hooked.setattr(bench, "_evaluator", evaluator)
        got = _outcome(bench.run_experiment, spec)
    want = _earlier_outcome(spec, monkeypatch)
    assert _divergence_step(got[0]) == _divergence_step(want[0]) and got[1] == want[1], spec
    def integers(lines):  # step, state_entries, flops
        return [(row[0], *row[4:]) for row in (line.split(",") for line in lines)]

    assert integers(got[2]) == integers(want[2]), spec
    return got


def _relu_run_meets_the_earlier_pass(spec, monkeypatch):
    """A ReLU run: every column of the earlier run byte for byte but weight_err, which
    is within FLOOR_ULPS dense weight floors of the earlier run's dense value."""
    real_evaluator, floors = bench._evaluator, []

    def evaluator(task):
        evaluate, layer = real_evaluator(task), task.model.layer
        teacher_norm = frobenius(pass_ref.teacher_weight(task))

        def row(g):
            floors.append(FLOOR_ULPS * _weight_floor(layer) / teacher_norm)
            return evaluate(g)

        return row

    with monkeypatch.context() as hooked:
        hooked.setattr(bench, "_evaluator", evaluator)
        got = _outcome(bench.run_experiment, spec)
    want = _earlier_outcome(spec, monkeypatch)
    case = (spec.train.beta1, spec.alpha, spec.train.gamma, spec.train.bias_correction)
    assert got[:2] == want[:2], case
    got_rows, want_rows = ([line.split(",") for line in lines] for lines in (got[2], want[2]))
    assert [row[:2] + row[3:] for row in got_rows] == [row[:2] + row[3:] for row in want_rows], case
    assert len(floors) == len(got_rows) - 1, case  # the header has no row
    for got_row, want_row, floor in zip(got_rows[1:], want_rows[1:], floors):
        assert abs(float(got_row[2]) - float(want_row[2])) <= floor, case


@pytest.mark.parametrize("task", bench.TASKS)
@pytest.mark.parametrize("optimizer", list(optim.OPTIMIZERS))
def test_runner_matches_the_earlier_pass_byte_for_byte(task, optimizer, monkeypatch):
    """The ReLU head byte for byte but for weight_err; the lowrank head, and the ReLU
    head's weight_err, within the dense pass's floor."""
    shape = dict(k=16, d=12) if task == "lowrank" else dict(d=8, width=32)
    for spec in _byte_grid(task, optimizer, shape):
        if task == "lowrank":
            _meets_the_dense_pass(spec, monkeypatch)
        else:
            _relu_run_meets_the_earlier_pass(spec, monkeypatch)


@pytest.mark.parametrize("optimizer", list(optim.OPTIMIZERS))
def test_the_compressed_runner_meets_the_dense_pass(optimizer, compressed, monkeypatch):
    """The lowrank byte grid of the test above, every pass compressed."""
    for spec in _byte_grid("lowrank", optimizer, dict(k=16, d=12)):
        _meets_the_dense_pass(spec, monkeypatch)


def _byte_grid(task, optimizer, shape):
    """s = 1 and s != 1, momentum or not, with decay and bias correction or not."""
    eta = {"lora_plus": 0.02}.get(optimizer, 0.1)
    grid = itertools.product((0.0, 0.9), (None, 2.5), (0.0, 0.01), (True, False))
    for beta1, alpha, gamma, unbiased in grid:
        train = optim.TrainConfig(
            eta=eta, beta1=beta1, gamma=gamma, lam=1e-6, steps=30, bias_correction=unbiased
        )
        yield _spec(
            task=task, **shape, r=4, teacher_rank=3, kappa=10.0, optimizer=optimizer, alpha=alpha,
            seed=7, eval_every=5, train=train,
        )


def _desk_specs():
    """The desk sweep's lowrank cells: C07 AltLoRA and momentum at each kappa, C07 lora_sgd at 100."""
    def desk(kappa, optimizer, eta, beta1, steps, seed=1):
        train = optim.TrainConfig(eta=eta, beta1=beta1, lam=1e-6, order=optim.B_FIRST, steps=steps)
        return _spec(kappa=kappa, optimizer=optimizer, seed=seed, eval_every=100, train=train)

    for kappa in (1.0, 10.0, 100.0):
        yield desk(kappa, optim.ALTLORA, 0.3, 0.0, 500)
        yield desk(kappa, optim.ALTLORA, 0.3, 0.9, 500, seed=3)
    yield desk(100.0, optim.LORA_SGD, 0.2, 0.0, 10000)


def _desk_cells_meet_the_dense_pass(monkeypatch):
    slow = optim.TrainConfig(eta=0.02, lam=1e-6, steps=200)
    nonzero_b = [  # B_0 != 0, so s B A is in the residual from the first pass
        _spec(init_b="gaussian", alpha=alpha, optimizer=opt, train=slow)
        for opt in optim.OPTIMIZERS
        for alpha in (None, 2.5)
    ]
    for spec in [*_desk_specs(), *nonzero_b]:
        _meets_the_dense_pass(spec, monkeypatch)
    assert _meets_the_dense_pass(_spec(), monkeypatch)[1] == 20  # the golden run


def test_the_factored_pass_meets_the_dense_pass(monkeypatch):
    """The desk sweep's lowrank cells, B_0 != 0 and the golden run, beside the dense pass.

    test_runner_matches_the_earlier_pass_byte_for_byte checks the byte
    grid's lowrank specs the same way.
    """
    _desk_cells_meet_the_dense_pass(monkeypatch)


def test_the_compressed_pass_meets_the_dense_pass(compressed, monkeypatch):
    """The cells of the test above, every pass compressed: the same floor and steps_to_threshold."""
    _desk_cells_meet_the_dense_pass(monkeypatch)


def _stacked_pass_meets_the_dense_pass():
    tasks = [bench.generate_task(_spec(k=16, d=12, init_b="gaussian", alpha=2.5, seed=i)) for i in range(3)]
    layer = LoraLayer(*(np.stack([getattr(t.model.layer, f) for t in tasks]) for f in ("w0", "a", "b")), 2.5)
    x = np.stack([t.x for t in tasks])
    target = FactoredTarget(np.stack([t.target.us for t in tasks]), np.stack([t.target.vx for t in tasks]))
    loss, g = training_pass(ToyModel(layer), x, target)
    for i, task in enumerate(tasks):
        model, teacher = task.model, pass_ref.teacher_weight(task)
        dense = _dense_pass(model, task.x, teacher @ task.x)
        one = FullGradient(g.u[i], g.v[i])
        _assert_meets_dense(loss[i], one, dense, task.x.shape[1], layer._memo["ax"][2][i])
        _assert_eval_meets_dense(bench._evaluator(task), one, dense, model.layer, teacher, task.x)


def test_a_stacked_factored_pass_meets_the_dense_pass():
    _stacked_pass_meets_the_dense_pass()


def test_a_stacked_compressed_pass_meets_the_dense_pass(compressed):
    _stacked_pass_meets_the_dense_pass()


@pytest.mark.parametrize("k", [32, 192])  # k m = 4,096 is residual-form; 147,456 is past the cut
def test_factored_norms_meet_the_dense_pass(k):
    """Both norms of the row after a pass within FLOOR_ULPS of the merged weight's
    error and the dense ||G||_F; the row reads A X, and X QX^T after a compressed
    pass, as the very memo entries the pass left, and stores X QX^T after a residual one."""
    task = bench.generate_task(_spec(k=k, d=k, init_b="gaussian", alpha=2.5, seed=5))
    model, x, target, teacher = task.model, task.x, task.target, pass_ref.teacher_weight(task)
    layer, m = model.layer, x.shape[1]
    _, g = training_pass(model, x, target)
    _, want, floor, _ = _dense_pass(model, x, teacher @ x)
    ax, v = layer._memo["ax"], layer._memo.get("v")
    assert (v is not None) == (k * m > SQUARE_CHUNK) == (g.u.shape[1] != m)
    err, norm = adapter.factored_norms(layer, target, task.vt, x)
    assert abs(err - frobenius(merged_weight(layer) - teacher)) <= FLOOR_ULPS * _weight_floor(layer)
    assert abs(norm - frobenius(want.g)) <= 2.0 / m * FLOOR_ULPS * floor * frobenius(x)
    assert layer._memo["ax"] is ax
    if v is not None:
        assert layer._memo["v"] is v
    else:
        held = layer._memo["v"]
        assert held[0] is ax[2] and held[1] is target and held[2].shape == (layer.d, layer.r + target.vx.shape[0])


def test_a_row_after_a_compressed_pass_forms_no_product_of_inner_dimension_m(monkeypatch):
    task = bench.generate_task(_spec(k=192, d=192, init_b="gaussian", alpha=2.5, seed=5))
    model, x, target = task.model, task.x, task.target
    training_pass(model, x, target)
    real_dot, inner = np.dot, []

    def dot(a, b, *args):
        inner.append(np.shape(a)[-1])
        return real_dot(a, b, *args)

    monkeypatch.setattr(np, "dot", dot)
    adapter.factored_norms(model.layer, target, task.vt, x)
    assert inner and x.shape[1] not in inner


def _count_qr(monkeypatch) -> list:
    """The shapes np.linalg.qr factors from now on, in call order."""
    real_qr, calls = np.linalg.qr, []

    def qr(a, *args, **kwargs):
        calls.append(a.shape)
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr)
    return calls


def test_a_row_takes_r_p_from_the_memo_and_a_new_b_misses(monkeypatch):
    # R_P = qr(P) is the memo entry (B, target, R_P): the row after a
    # compressed pass forms no P or QX, factors nothing and gives a fresh
    # layer's bits; a new B, even one of the same values, is factored afresh.
    task = bench.generate_task(_spec(k=192, d=192, init_b="gaussian", alpha=2.5, seed=5))
    model, x, target, vt = task.model, task.x, task.target, task.vt
    layer = model.layer
    training_pass(model, x, target)
    held = layer._memo["rp"]
    assert held[0] is layer.b and held[1] is target
    calls = _count_qr(monkeypatch)
    with monkeypatch.context() as held_only:
        held_only.setattr(adapter, "_p", None)  # calling either raises
        held_only.setattr(adapter, "_qx", None)
        row = adapter.factored_norms(layer, target, vt, x)
    assert calls == [] and layer._memo["rp"] is held
    assert adapter.factored_norms(layer.copy(), target, vt, x) == row and len(calls) == 1
    layer.b = layer.b.copy()
    assert adapter.factored_norms(layer, target, vt, x) == row and len(calls) == 2
    layer.b = 2.0 * layer.b
    moved = adapter.factored_norms(layer, target, vt, x)
    assert moved != row and moved == adapter.factored_norms(layer.copy(), target, vt, x) and len(calls) == 4


def test_rebinding_alpha_empties_the_memo_that_r_p_is_held_in():
    # P = [s B, -us] reads s = alpha / r, which no memo key names.
    task = bench.generate_task(_spec(k=192, d=192, init_b="gaussian", alpha=2.5, seed=5))
    model, x, target, vt = task.model, task.x, task.target, task.vt
    layer = model.layer
    training_pass(model, x, target)
    layer.alpha = 5.0
    assert layer._memo == {}
    want = adapter.factored_norms(adapter.LoraLayer(layer.w0, layer.a, layer.b, 5.0), target, vt, x)
    assert adapter.factored_norms(layer, target, vt, x) == want


@pytest.mark.parametrize("form", ["residual", "compressed"])
def test_a_run_factors_p_once_per_b(monkeypatch, form):
    # 6 b_first steps bind 4 B's; the pass after an A-phase and every row,
    # one per step, reuse the R_P of the B they meet.
    if form == "compressed":
        monkeypatch.setattr(adapter, "SQUARE_CHUNK", 0)
    spec = _spec(eval_every=1, train=optim.TrainConfig(eta=0.3, beta1=0.9, lam=1e-6, order=optim.B_FIRST, steps=6))
    calls = _count_qr(monkeypatch)
    assert len(bench.run_experiment(spec).rows) == 7
    assert len(calls) == 4


@pytest.mark.parametrize("optimizer", list(optim.OPTIMIZERS))
@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
@pytest.mark.parametrize("beta1", [0.0, 0.9])
@pytest.mark.parametrize("form", ["residual", "compressed", "relu"])
def test_the_pass_memo_leaves_every_run_as_it_was(optimizer, order, beta1, form, monkeypatch):
    """The runner's record, bit for bit, is that of a run whose layer memo (the pass's
    products and the Gram carry) is cleared before every pass."""
    eta = {"lora_plus": 0.02}.get(optimizer, 0.1)
    train = optim.TrainConfig(eta=eta, beta1=beta1, gamma=0.01, lam=1e-6, order=order, steps=30)
    shape = dict(task="two_layer_relu", width=48) if form == "relu" else dict(k=16)
    spec = _spec(**shape, d=12, r=4, teacher_rank=3, kappa=10.0, optimizer=optimizer, alpha=2.5,
                 init_b="gaussian", seed=7, eval_every=5, train=train)
    if form == "compressed":
        monkeypatch.setattr(adapter, "SQUARE_CHUNK", 0)
    cached = _outcome(bench.run_experiment, spec)
    real_pass = bench.training_pass

    def uncached(model, x, target):
        model.layer._memo.clear()
        return real_pass(model, x, target)

    monkeypatch.setattr(bench, "training_pass", uncached)
    assert cached == _outcome(bench.run_experiment, spec)


@pytest.mark.parametrize("optimizer", list(optim.OPTIMIZERS))
@pytest.mark.parametrize("form", ["residual", "compressed"])
def test_a_pass_reuses_the_a_side_products_only_after_a_b_phase(optimizer, form, monkeypatch):
    """The pass after a B-phase takes A X, and a compressed pass X QX^T, from the memo;
    after an A-phase or a joint step, fresh ones."""
    if form == "compressed":
        monkeypatch.setattr(adapter, "SQUARE_CHUNK", 0)
    eta = {"lora_plus": 0.02}.get(optimizer, 0.1)
    train = optim.TrainConfig(eta=eta, beta1=0.9, lam=1e-6, order=optim.B_FIRST, steps=6)
    task = bench.generate_task(_spec(k=16, d=12, optimizer=optimizer, init_b="gaussian", train=train))
    model, x, target = task.model, task.x, task.target
    stepper, state = optim.make_stepper(optimizer), optim.make_state(optimizer, model.layer)
    held = (None, None)
    for t in range(train.steps + 1):
        g = training_pass(model, x, target)[1]
        ax = model.layer._memo["ax"]
        assert ax[0] is model.layer.a and ax[1] is x
        if form == "compressed":
            v = model.layer._memo["v"]
            assert v[0] is ax[2] and v[1] is target and v[2] is g.v
            products = (ax[2], g.v)
        else:
            assert g.v is x and "v" not in model.layer._memo
            products = (ax[2],)
        b_phase = optimizer not in optim.BASELINES and t > 0 and optim.update_phase(t - 1, train.order) == "b"
        assert [now is then for now, then in zip(products, held)] == [b_phase] * len(products), t
        held = products
        stepper(model.layer, state, g, train)


def test_run_holds_no_k_by_m_or_k_by_d_array(monkeypatch):
    k = d = 512
    r, m = 4, 4 * d
    spec = _spec(
        k=k, d=d, r=r, kappa=10.0, eval_every=2,
        train=optim.TrainConfig(eta=0.3, beta1=0.9, lam=1e-6, order=optim.B_FIRST, steps=6),
    )
    make_stepper, held = optim.make_stepper, []

    def set_up(kind):  # the runner's set-up ends here: the task is generated
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return make_stepper(kind)

    monkeypatch.setattr(optim, "make_stepper", set_up)
    tracemalloc.start()
    try:
        bench.run_experiment(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # k m is past one square chunk, so every pass is compressed. One chunk
    # of squares, and arrays r' = r + r* rows or columns long: P, QX, R_P QX,
    # X QX^T, an eval row's and a step's. The residual P QX, W0 X or one
    # k x d array (a quarter of k x m here) exceeds it.
    rr = r + spec.teacher_rank
    bound = SQUARE_CHUNK * 8 + 4 * rr * (k + d + m) * 8
    assert peak - held[0] <= bound


def test_a_relu_eval_row_allocates_less_than_one_k_by_d_array():
    # weight_err from one QR of the k x r' P, as in the lowrank row; grad_norm
    # reads the dense G = dZ X^T, formed before the trace, and squares it one
    # chunk at a time, since k d is past one chunk. The merged weight, or its
    # difference from the teacher, is one k x d array and exceeds the bound.
    spec = _spec(task="two_layer_relu", d=128, width=1024, init_b="gaussian", alpha=2.5)
    task = bench.generate_task(spec)
    k, d = task.model.layer.k, task.model.layer.d
    evaluate = bench._evaluator(task)
    g = training_pass(task.model, task.x, task.target)[1]
    assert g.g.shape == (k, d) and k * d > SQUARE_CHUNK
    tracemalloc.start()
    try:
        werr, norm = evaluate(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < werr < math.inf and norm == frobenius(g.g)
    assert peak < k * d * 8, peak


def test_generation_holds_no_transient_of_xs_size_and_no_second_w0():
    k = d = 512
    spec = _spec(k=k, d=d, r=4, kappa=10.0)
    m, rstar = spec.batch_size, spec.teacher_rank
    bench.generate_task(_spec())  # numpy.random's first import, outside the trace
    tracemalloc.start()
    try:
        task = bench.generate_task(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert task.x.shape == (d, m) == (512, 2048)
    # W0 and X, the r*- and r-wide factors (U S, V^T, V^T X, A, B and the
    # samplers' own), one chunk of the Gaussian draw's cos buffer and slack.
    # A uniform draw beside X, or a copy of W0 beside it, exceeds it.
    factors = 2 * (rstar + spec.r) * (k + d + m) * 8
    bound = (k * d + d * m + NORMAL_CHUNK) * 8 + factors + 65536
    assert peak <= bound, (peak, bound)



def test_conditioned_inputs_keep_no_dead_array_of_xs_size():
    d, m = 128, 512
    stream = RandomStream(5)
    tracemalloc.start()
    try:
        x = bench._conditioned_inputs(d, m, 10.0, stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape == (d, m)
    # Two X-sized arrays at a time (the whitened draw and its rotation), d x d
    # factors (a quarter of X here) and slack. The raw draw kept beside the
    # whitened one, or the rotation as a temporary beside both, exceeds it.
    assert peak <= 3 * d * m * 8, peak / (d * m * 8)


@pytest.mark.parametrize("task", bench.TASKS)
@pytest.mark.parametrize("alpha", [None, 2, 2.5])
def test_a_null_alpha_is_the_rank(task, alpha):
    spec = _spec(task=task, d=8, width=32, r=3, teacher_rank=2, alpha=alpha)
    got = bench.generate_task(spec).model.layer.alpha
    assert type(got) is float and got == (float(spec.r) if alpha is None else float(alpha))

def test_cosine_schedule_runs_and_decays():
    cfg = optim.TrainConfig(eta=0.3, beta1=0.0, steps=100, schedule="cosine", warmup_ratio=0.1)
    rec = bench.run_experiment(_spec(train=cfg))
    assert rec.final_loss < 1e-3


@pytest.mark.parametrize("optimizer", [optim.ALTLORA, optim.ALTLORA_PLUS])
def test_a_cosine_run_keeps_the_gram_carry_across_its_per_step_configs(optimizer, monkeypatch):
    # Under a schedule the runner steps with replace(cfg, eta=eta_t), which
    # keeps cfg's lam object, so the carry keyed on it still hits: T + 1
    # Gram inverses in T steps, as at a constant rate.
    calls = []
    real = optim.damped_gram_inverse

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optim, "damped_gram_inverse", counted)
    cfg = optim.TrainConfig(eta=0.3, beta1=0.9, steps=40, schedule="cosine", warmup_ratio=0.1)
    bench.run_experiment(_spec(optimizer=optimizer, train=cfg))
    assert len(calls) == cfg.steps + 1


def test_update_order_property_a_first_stalls_under_standard_init():
    """With B = 0, the first A-phase moves A only through weight decay."""
    spec = _spec(train=optim.TrainConfig(eta=0.3, beta1=0.9, gamma=0.0, order=optim.A_FIRST, steps=1))
    task = bench.generate_task(spec)
    layer = task.model.layer
    a_before = layer.a.copy()
    state = optim.make_state(optim.ALTLORA, layer)
    _, g = training_pass(task.model, task.x, task.target)
    optim.altlora_step(layer, state, g, spec.train)
    assert np.array_equal(layer.a, a_before)  # bit-exact stall at gamma = 0

    spec2 = _spec(train=optim.TrainConfig(eta=0.3, beta1=0.9, gamma=0.01, order=optim.A_FIRST, steps=1))
    task2 = bench.generate_task(spec2)
    layer2 = task2.model.layer
    a_before2 = layer2.a.copy()
    state2 = optim.make_state(optim.ALTLORA, layer2)
    _, g2 = training_pass(task2.model, task2.x, task2.target)
    optim.altlora_step(layer2, state2, g2, spec2.train)
    np.testing.assert_allclose(layer2.a, (1 - 0.3 * 0.01) * a_before2, rtol=1e-14)
    delta = np.abs(layer2.a - a_before2)
    assert np.max(delta) <= 0.3 * 0.01 * np.max(np.abs(a_before2)) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Width probe


def test_width_probe_zero_eta_gives_zero_magnitudes():
    cfg = optim.TrainConfig(eta=0.0, beta1=0.0, lam=1e-6)
    res = bench.width_scaling_probe([8, 16, 32, 64], optim.ALTLORA, cfg, rank=2, seeds=2)
    assert all(m == 0.0 for m in res.magnitudes)
    assert np.isnan(res.slope)


def test_width_probe_homogeneous_in_teacher_scale_at_zero_damping():
    cfg = optim.TrainConfig(eta=1.0, beta1=0.0, lam=0.0)
    one = bench._probe_once(32, 2, 7, optim.ALTLORA, cfg, teacher_scale=1.0)
    two = bench._probe_once(32, 2, 7, optim.ALTLORA, cfg, teacher_scale=2.0)
    assert abs(two / one - 2.0) < 1e-9


def test_width_probe_slope_smoke():
    cfg = optim.TrainConfig(eta=1.0, beta1=0.0, lam=1e-6)
    res = bench.width_scaling_probe([16, 32, 64, 128], optim.ALTLORA, cfg, rank=2, seeds=3)
    assert -0.5 < res.slope < 0.5  # loose band at smoke scale
    sgd = bench.width_scaling_probe([16, 32, 64, 128], optim.LORA_SGD, cfg, rank=2, seeds=3)
    # raw-gradient baseline blows up by orders of magnitude at every width
    for alt_m, sgd_m in zip(res.magnitudes, sgd.magnitudes):
        assert sgd_m > 10.0 * alt_m


def test_width_probe_validates_widths():
    cfg = optim.TrainConfig(eta=1.0)
    with pytest.raises(bench.InvalidSpec):
        bench.width_scaling_probe([16, 32, 32, 64], optim.ALTLORA, cfg)
    with pytest.raises(bench.InvalidSpec):
        bench.width_scaling_probe([16, 32, 64], optim.ALTLORA, cfg)


# ---------------------------------------------------------------------------
# Accounting


def test_state_accounting_reference_shapes():
    acc = bench.state_accounting(4096, 4096, 8, optim.ALTLORA)
    assert acc == 4 * (4096 * 8 + 8 * 4096) == 262144
    full = bench.state_accounting(4096, 4096, 8, bench.FULL_MOMENT)
    assert full == 2 * 4096 * 4096 == 33554432
    assert full / acc == 128.0
    plus = bench.state_accounting(4096, 4096, 8, optim.ALTLORA_PLUS)
    assert plus == 393216
    assert plus - acc == 2 * (4096 * 8 + 8 * 4096)


def test_state_accounting_degenerate_full_rank():
    k = d = r = 16
    acc = bench.state_accounting(k, d, r, optim.ALTLORA)
    full = bench.state_accounting(k, d, r, bench.FULL_MOMENT)
    # at r = k = d the counts coincide up to constants
    assert acc == 4 * 2 * k * k
    assert full == 2 * k * k


def test_state_accounting_matches_real_state_within_bound():
    stream = RandomStream(3)
    k, d, r = 24, 40, 4
    layer = LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), float(r))
    for kind in (optim.ALTLORA, optim.ALTLORA_PLUS):
        acc = bench.state_accounting(k, d, r, kind)
        real = optim.make_state(kind, layer).entry_count()
        assert real <= acc <= 6 * (k * r + r * d)


def test_flop_model_counts_a_factored_pass():
    cfg = optim.TrainConfig(eta=0.1)
    k, d, r, m = 32, 16, 4, 64  # m = 4 d
    lowrank = bench.ExperimentSpec(task="lowrank", k=k, d=d, r=r, teacher_rank=2, train=cfg)
    # A X, B (A X), scale and add the cached W0 X; the loss; dY; no k d m term
    forward = 2 * r * d * m + 2 * k * r * m + 2 * k * m
    assert bench._task_flops(lowrank) == forward + 3 * k * m + 2 * k * m == 38912
    # both factor gradients from u and v, then one phase: Gram, solve, realignment, update
    gram = 2 * r * r * k + r**3
    phase = gram + 2 * r * r * k + (gram + 2 * r * r * k) + 2 * r * k
    assert bench._optimizer_flops(lowrank) == 4 * r * m * (k + d) + phase == 53632
    width = 64
    relu = bench.ExperimentSpec(task="two_layer_relu", d=d, width=width, r=r, teacher_rank=2, train=cfg)
    # plus the ReLU, W2 H and the loss on d outputs; W2^T dY and the ReLU mask
    forward = 2 * r * d * m + 2 * width * r * m + 2 * width * m + width * m + 2 * d * width * m
    backward = 2 * d * m + 2 * d * width * m + width * m
    assert bench._task_flops(relu) == forward + 3 * d * m + backward == 324608


def test_spec_round_trips_to_dict():
    spec = _spec(alpha=16.0, kappa=10.0)
    doc = spec.to_dict()
    assert doc["alpha"] == 16.0
    assert doc["train"]["lambda"] == spec.train.lam
    assert doc["kappa_knob"] == "teacher"

    # every field set away from its default, so each one must survive the trip
    spec = bench.ExperimentSpec(
        task="two_layer_relu",
        k=16,
        d=8,
        r=3,
        width=40,
        teacher_rank=2,
        kappa=10.0,
        optimizer=optim.ALTLORA_PLUS,
        train=optim.TrainConfig(
            eta=0.2,
            beta1=0.5,
            beta2=0.99,
            gamma=0.01,
            lam=1e-4,
            order=optim.A_FIRST,
            steps=7,
            eps=1e-7,
            lora_plus_ratio=8.0,
            bias_correction=False,
            schedule="cosine",
            warmup_ratio=0.1,
        ),
        init_a="gaussian",
        init_b="spectral",
        alpha=16.0,
        seed=9,
        eval_every=3,
        kappa_knob="teacher",
    )
    for config in (spec, spec.train):
        for f in fields(config):
            default = f.default if f.default_factory is MISSING else f.default_factory()
            assert getattr(config, f.name) != default, f.name
    doc = spec.to_dict()
    for section, config in ((doc, spec), (doc["train"], spec.train)):
        assert list(section) == [bench.JSON_ALIASES.get(f.name, f.name) for f in fields(config)]
    assert "lambda" in doc["train"] and "lam" not in doc["train"]
    assert cli.build_spec(json.loads(json.dumps(doc))) == spec


def test_negative_seed_is_invalid_spec():
    with pytest.raises(bench.InvalidSpec, match="seed"):
        _spec(seed=-1)
