"""Acceptance suite: the twelve structural criteria at their stated tolerances.

Each test prints one line (criterion id, measured value, budget) and
enforces both the tolerance and the wall-clock budget. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time

import numpy as np

from altlora import bench, optim, oracle
from altlora.adapter import (
    FactoredTarget,
    LoraLayer,
    ToyModel,
    forward,
    init_layer,
    lora_grads,
    merged_weight,
    mse_loss,
    training_pass,
)
from altlora.matcore import RandomStream, frobenius, gauge_sample, rel_error
from dense_gradient import as_gradient

SEED = 1789


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.criterion}] {status} in {elapsed:.2f}s (budget {self.seconds:g}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.criterion} exceeded {self.seconds}s budget"
        return False


def test_c01_closed_form_gradient_optimality():
    with _Budget("criterion 1: scaled-gradient optimality", 10.0):
        for name in ("lstsq_scaled_grad_a", "lstsq_scaled_grad_b"):
            result = oracle.CHECKS[name](SEED)
            assert result.instances == 200
            assert result.max_deviation <= 1e-9, f"{name}: {result.max_deviation}"


def test_c02_momentum_alignment_optimality():
    with _Budget("criterion 2: momentum-alignment optimality", 10.0):
        for name in ("lstsq_align_momentum_a", "lstsq_align_momentum_b"):
            result = oracle.CHECKS[name](SEED)
            assert result.instances == 200
            assert result.max_deviation <= 1e-9, f"{name}: {result.max_deviation}"


def test_c03_pair_step_decomposition():
    with _Budget("criterion 3: alternating decomposition vs joint cross term", 10.0):
        residual = oracle.CHECKS["pair_step_residual"](SEED)
        assert residual.instances == 100
        assert residual.max_deviation <= 1e-10
        cross = oracle.CHECKS["joint_cross_term"](SEED)
        assert cross.instances == 100
        assert cross.max_deviation <= 1e-10
        assert cross.info["nonzero"]
        slopes = oracle.CHECKS["eta_order_slopes"](SEED)
        assert abs(slopes.info["proj_slope"] - 1.0) <= 0.01
        assert abs(slopes.info["cross_slope"] - 2.0) <= 0.01


def test_c04_projector_gauge_invariance():
    with _Budget("criterion 4: projector gauge invariance", 5.0):
        result = oracle.CHECKS["projector_gauge_invariance"](SEED)
        assert result.instances == 200
        assert result.max_deviation < 1e-9


def test_c05_trajectory_transformation_invariance():
    with _Budget("criterion 5: trajectory invariance + negative control", 60.0):
        passing = oracle.CHECKS["trajectory_invariance_altlora"](SEED)
        assert passing.instances == 20  # each gauge run with and without momentum
        assert passing.max_deviation <= 1e-6
        control = oracle.CHECKS["trajectory_invariance_negative_control"](SEED)
        assert control.instances == 20
        assert control.max_deviation > 1e-3  # smallest observed Adam divergence


def test_c06_ancillary_matrix_independence():
    with _Budget("criterion 6: equivalent gradient independent of X", 5.0):
        result = oracle.CHECKS["lorapro_x_independence"](SEED)
        assert result.instances == 50
        assert result.max_deviation <= 1e-10


def test_c07_condition_number_robustness():
    with _Budget("criterion 7: condition-number robustness", 300.0):
        kappas = (1.0, 10.0, 100.0)

        def steps_for(optimizer, eta, steps):
            out = []
            for kappa in kappas:
                spec = bench.ExperimentSpec(
                    task="lowrank",
                    k=32,
                    d=32,
                    r=4,
                    teacher_rank=4,
                    kappa=kappa,
                    optimizer=optimizer,
                    seed=1,
                    eval_every=1000,
                    train=optim.TrainConfig(
                        eta=eta, beta1=0.0, lam=1e-6, order=optim.B_FIRST, steps=steps
                    ),
                )
                record = bench.run_experiment(spec)
                assert record.steps_to_threshold >= 0, f"{optimizer} kappa={kappa} never converged"
                out.append(record.steps_to_threshold)
            return out

        alt = steps_for(optim.ALTLORA, eta=0.3, steps=500)
        sgd = steps_for(optim.LORA_SGD, eta=0.2, steps=10000)
        print(f"  altlora steps_to_threshold vs kappa: {alt}")
        print(f"  lora_sgd steps_to_threshold vs kappa: {sgd}")
        assert max(alt) / min(alt) < 2.0
        assert all(a <= b for a, b in zip(sgd, sgd[1:]))  # monotone in kappa
        assert sgd[-1] / sgd[0] >= 5.0


def test_c08_stable_feature_learning_width_probe():
    with _Budget("criterion 8: width-stable feature updates", 180.0):
        cfg = optim.TrainConfig(eta=1.0, beta1=0.0, lam=1e-6)
        widths = [64, 128, 256, 512, 1024]
        alt = bench.width_scaling_probe(widths, optim.ALTLORA, cfg, rank=4, seeds=8)
        print(f"  altlora magnitudes {['%.3g' % m for m in alt.magnitudes]} slope {alt.slope:.3f}")
        assert -0.25 <= alt.slope <= 0.25
        # baseline side is informational: raw-gradient updates leave the
        # stable regime by orders of magnitude (direction varies per run)
        sgd = bench.width_scaling_probe(widths, optim.LORA_SGD, cfg, rank=4, seeds=8)
        print(f"  lora_sgd magnitudes {['%.3g' % m for m in sgd.magnitudes]} slope {sgd.slope:.3f}")
        for alt_m, sgd_m in zip(alt.magnitudes, sgd.magnitudes):
            assert sgd_m > 10.0 * alt_m


def test_c09_memory_complexity_separation():
    with _Budget("criterion 9: factor-shaped state budget", 5.0):
        stream = RandomStream(SEED)
        for k, d, r in ((8, 12, 2), (64, 64, 8), (256, 64, 16), (128, 512, 8)):
            layer = LoraLayer(stream.normal(k, d), stream.normal(r, d), stream.normal(k, r), float(r))
            for kind in (optim.ALTLORA, optim.ALTLORA_PLUS):
                state = optim.make_state(kind, layer)
                state.check_budget(layer)
                assert state.entry_count() <= 6 * (k * r + r * d)
                assert bench.state_accounting(k, d, r, kind).optimizer_state <= 6 * (k * r + r * d)
        alt = bench.state_accounting(4096, 4096, 8, optim.ALTLORA)
        plus = bench.state_accounting(4096, 4096, 8, optim.ALTLORA_PLUS)
        full = bench.state_accounting(4096, 4096, 8, bench.FULL_MOMENT)
        assert plus.optimizer_state == 393216
        assert full.optimizer_state == 33554432
        assert full.optimizer_state / alt.optimizer_state >= 100.0  # 128x
        print(
            f"  altlora {alt.optimizer_state} / altlora+ {plus.optimizer_state} "
            f"vs full-moment {full.optimizer_state} "
            f"({full.optimizer_state / alt.optimizer_state:.0f}x / "
            f"{full.optimizer_state / plus.optimizer_state:.1f}x reduction)"
        )


def test_c10_gradient_correctness():
    with _Budget("criterion 10: finite-difference gradient correctness", 30.0):
        stream = RandomStream(SEED)
        lin = ToyModel(LoraLayer(stream.normal(3, 4), stream.normal(2, 4), stream.normal(3, 2), 4.0))
        x_lin, y_lin = stream.normal(4, 6), stream.normal(3, 6)
        relu = ToyModel(
            LoraLayer(stream.normal(8, 3), stream.normal(2, 3), stream.normal(8, 2), 2.0),
            stream.normal(3, 8),
        )
        x_relu, y_relu = stream.normal(3, 5), stream.normal(3, 5)
        h = 1e-5
        # the linear head trains toward its target in factored form, W0 X + I (Y - W0 X)
        lin_target = FactoredTarget(np.eye(3), y_lin - lin.layer.w0 @ x_lin)
        for model, x, y, target in ((lin, x_lin, y_lin, lin_target), (relu, x_relu, y_relu, y_relu)):
            _, g = training_pass(model, x, target)
            fd = oracle.fd_merged_gradient(model, x, y, step=h)
            assert oracle.fd_entrywise_deviation(g.g, fd) < 1e-6
            # factor gradients against direct finite differences in A and B
            layer = model.layer
            grad_a, grad_b = lora_grads(g, layer)

            def loss_with(a=None, b=None, m=model, xx=x, yy=y):
                probe = LoraLayer(
                    m.layer.w0,
                    m.layer.a if a is None else a,
                    m.layer.b if b is None else b,
                    m.layer.alpha,
                )
                out, _ = forward(ToyModel(probe, m.w2), xx)
                return mse_loss(out, yy)

            fd_a = np.zeros_like(layer.a)
            for i in range(layer.r):
                for j in range(layer.d):
                    up, dn = layer.a.copy(), layer.a.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd_a[i, j] = (loss_with(a=up) - loss_with(a=dn)) / (2 * h)
            fd_b = np.zeros_like(layer.b)
            for i in range(layer.k):
                for j in range(layer.r):
                    up, dn = layer.b.copy(), layer.b.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd_b[i, j] = (loss_with(b=up) - loss_with(b=dn)) / (2 * h)
            assert oracle.fd_entrywise_deviation(grad_a, fd_a) < 1e-6
            assert oracle.fd_entrywise_deviation(grad_b, fd_b) < 1e-6


def test_c11_standard_init_stalls_first_a_phase():
    with _Budget("criterion 11: B = 0 stalls the A update, bit-exactly", 5.0):
        stream = RandomStream(SEED)
        layer = init_layer(stream.normal(16, 24), r=4, init_a="kaiming", init_b="zero", seed=SEED)
        g = as_gradient(stream.normal(16, 24))
        grad_a, _ = lora_grads(g, layer)
        assert np.all(grad_a == 0.0)
        scaled = optim.scaled_grad_a(grad_a, layer.b, layer.s, optim.DEFAULT_DAMPING)
        assert np.all(scaled == 0.0)
        cfg = optim.TrainConfig(eta=0.3, beta1=0.9, lam=optim.DEFAULT_DAMPING, order=optim.A_FIRST)
        state = optim.make_state(optim.ALTLORA, layer)
        a_before = layer.a.copy()
        optim.altlora_step(layer, state, g, cfg)
        assert np.array_equal(layer.a, a_before)


def test_c12_run_record_determinism():
    with _Budget("criterion 12: byte-identical records per seed", 30.0):
        for optimizer in (optim.ALTLORA, optim.ALTLORA_PLUS, optim.LORA_ADAM):
            spec = bench.ExperimentSpec(
                task="lowrank",
                k=16,
                d=16,
                r=4,
                teacher_rank=4,
                kappa=10.0,
                optimizer=optimizer,
                seed=11,
                eval_every=25,
                train=optim.TrainConfig(eta=0.1, lam=1e-6, order=optim.B_FIRST, steps=150),
            )
            first = bench.run_experiment(spec).to_csv()
            second = bench.run_experiment(spec).to_csv()
            assert first.encode() == second.encode()
