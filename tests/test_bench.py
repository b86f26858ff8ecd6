"""Experiment-harness tests: task generation, the runner, probes, accounting."""

import itertools
import json
from dataclasses import MISSING, fields

import numpy as np
import pytest

import pass_reference as pass_ref
from altlora import bench, cli, optim
from altlora.adapter import merged_weight
from altlora.matcore import RandomStream, jacobi_svd, rel_error


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
    delta = task.teacher_weight - task.model.layer.w0
    sing = jacobi_svd(delta)[1]
    assert sing[0] > 0.9
    assert np.all(sing[1:] < 1e-12)


def test_lowrank_task_deterministic():
    a = bench.generate_task(_spec(seed=5))
    b = bench.generate_task(_spec(seed=5))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.teacher_weight, b.teacher_weight)
    assert np.array_equal(a.model.layer.a, b.model.layer.a)


def test_lowrank_teacher_spectrum_spans_kappa():
    task = bench.generate_task(_spec(kappa=100.0))
    delta = task.teacher_weight - task.model.layer.w0
    sing = jacobi_svd(delta)[1][:4]
    assert abs(sing[0] / sing[3] - 100.0) < 1e-9


def test_lowrank_input_knob_conditions_the_data():
    spec = _spec(kappa=50.0, kappa_knob="input")
    task = bench.generate_task(spec)
    cov = task.x @ task.x.T / task.x.shape[1]
    eig = jacobi_svd(cov)[1]
    assert abs(eig[0] / eig[-1] - 50.0) < 1e-6
    # teacher spectrum stays flat when the knob is on the inputs
    delta = task.teacher_weight - task.model.layer.w0
    sing = jacobi_svd(delta)[1][:4]
    assert sing[0] / sing[3] < 1.0 + 1e-9


def test_relu_task_mirrors_lowrank_contracts():
    spec = _spec(task="two_layer_relu", d=8, width=32, r=3, teacher_rank=2, kappa=25.0)
    a = bench.generate_task(spec)
    b = bench.generate_task(spec)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    delta = a.teacher_weight - a.model.layer.w0
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


def _outcome(run, spec) -> str:
    """The CSV text of a run, or of its partial record with the divergence message."""
    try:
        return run(spec).to_csv()
    except bench.DivergenceDetected as exc:
        return f"diverged: {exc}\n{exc.record.to_csv()}"


@pytest.mark.parametrize("task", bench.TASKS)
@pytest.mark.parametrize("optimizer", list(optim.OPTIMIZERS))
def test_runner_matches_the_earlier_pass_byte_for_byte(task, optimizer, monkeypatch):
    shape = dict(k=16, d=12) if task == "lowrank" else dict(d=8, width=32)
    eta = {"lora_plus": 0.02}.get(optimizer, 0.1)
    for beta1, alpha in itertools.product((0.0, 0.9), (None, 2.5)):  # s = 1 and s != 1
        spec = _spec(
            task=task, **shape, r=4, teacher_rank=3, kappa=10.0, optimizer=optimizer, alpha=alpha,
            seed=7, eval_every=5, train=optim.TrainConfig(eta=eta, beta1=beta1, lam=1e-6, steps=30),
        )
        got = _outcome(bench.run_experiment, spec)
        with monkeypatch.context() as earlier:
            earlier.setattr(optim, "lora_grads", pass_ref.lora_grads)
            earlier.setattr(optim, "scaled_grad_a", pass_ref.scaled_grad_a)
            want = _outcome(pass_ref.run_experiment, spec)
        assert got == want, (beta1, alpha)


def test_cosine_schedule_runs_and_decays():
    cfg = optim.TrainConfig(eta=0.3, beta1=0.0, steps=100, schedule="cosine", warmup_ratio=0.1)
    rec = bench.run_experiment(_spec(train=cfg))
    assert rec.final_loss < 1e-3


def test_update_order_property_a_first_stalls_under_standard_init():
    """With B = 0, the first A-phase moves A only through weight decay."""
    spec = _spec(train=optim.TrainConfig(eta=0.3, beta1=0.9, gamma=0.0, order=optim.A_FIRST, steps=1))
    task = bench.generate_task(spec)
    layer = task.model.layer
    a_before = layer.a.copy()
    state = optim.make_state(optim.ALTLORA, layer)
    from altlora.adapter import forward, full_gradient

    _, cache = forward(task.model, task.x)
    g = full_gradient(task.model, task.x, task.y, cache)[0]
    optim.altlora_step(layer, state, g, spec.train)
    assert np.array_equal(layer.a, a_before)  # bit-exact stall at gamma = 0

    spec2 = _spec(train=optim.TrainConfig(eta=0.3, beta1=0.9, gamma=0.01, order=optim.A_FIRST, steps=1))
    task2 = bench.generate_task(spec2)
    layer2 = task2.model.layer
    a_before2 = layer2.a.copy()
    state2 = optim.make_state(optim.ALTLORA, layer2)
    _, cache2 = forward(task2.model, task2.x)
    g2 = full_gradient(task2.model, task2.x, task2.y, cache2)[0]
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
    assert acc.optimizer_state == 4 * (4096 * 8 + 8 * 4096) == 262144
    full = bench.state_accounting(4096, 4096, 8, bench.FULL_MOMENT)
    assert full.optimizer_state == 2 * 4096 * 4096 == 33554432
    assert full.optimizer_state / acc.optimizer_state == 128.0
    plus = bench.state_accounting(4096, 4096, 8, optim.ALTLORA_PLUS)
    assert plus.optimizer_state == 393216
    assert plus.optimizer_state - acc.optimizer_state == 2 * (4096 * 8 + 8 * 4096)


def test_state_accounting_degenerate_full_rank():
    k = d = r = 16
    acc = bench.state_accounting(k, d, r, optim.ALTLORA)
    full = bench.state_accounting(k, d, r, bench.FULL_MOMENT)
    # at r = k = d the counts coincide up to constants
    assert acc.optimizer_state == 4 * 2 * k * k
    assert full.optimizer_state == 2 * k * k


def test_state_accounting_matches_real_state_within_bound():
    stream = RandomStream(3)
    from altlora.adapter import LoraLayer

    k, d, r = 24, 40, 4
    layer = LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), float(r))
    for kind in (optim.ALTLORA, optim.ALTLORA_PLUS):
        acc = bench.state_accounting(k, d, r, kind)
        real = optim.make_state(kind, layer).entry_count()
        assert real <= acc.optimizer_state <= 6 * (k * r + r * d)


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
