"""Oracle tests: the verifiers themselves, plus the named check suite."""

import itertools

import numpy as np
import pytest

from altlora import adapter, bench, matcore, optim, oracle
from altlora.adapter import LoraLayer
from altlora.matcore import RandomStream, frobenius, gauge_sample, orthonormal_columns, rel_error
from dense_gradient import as_gradient


def test_lstsq_oracle_hand_instance():
    z = oracle.lstsq_oracle(np.array([[1.0], [0.0]]), np.array([[2.0, 0.0], [0.0, 3.0]]))
    np.testing.assert_allclose(z, [[2.0, 0.0]], atol=1e-14)


def test_lstsq_oracle_momentum_identity_case():
    stream = RandomStream(2)
    mb = stream.normal(4, 2)
    a = stream.normal(2, 6)
    z = oracle.lstsq_oracle(a.T, (mb @ a).T).T
    np.testing.assert_allclose(z, mb, rtol=1e-12)


def test_lstsq_oracle_is_a_local_minimum():
    stream = RandomStream(5)
    b = stream.normal(16, 4)
    g = stream.normal(16, 32)
    z = oracle.lstsq_oracle(b, g)
    base = frobenius(b @ z - g)
    for _ in range(1000):
        delta = stream.normal(4, 32)
        delta *= 1e-3 / frobenius(delta)
        assert frobenius(b @ (z + delta) - g) > base


def test_lstsq_oracle_rejects_singular_systems():
    with pytest.raises(oracle.SingularSystem):
        oracle.lstsq_oracle(np.zeros((4, 2)), np.zeros((4, 3)))


def test_lstsq_oracle_recovers_a_square_system_of_condition_1e5():
    # T = Y Z* has zero residual, so only kappa(Y) eps separates the answer from Z*;
    # a solve through Y^T Y loses kappa^2 eps, about 1e-7 here
    stream = RandomStream(11)
    u, v = orthonormal_columns(4, 4, stream), orthonormal_columns(4, 4, stream)
    y = (u * np.logspace(0, -5, 4)) @ v.T
    z_star = stream.normal(4, 3)
    assert rel_error(oracle.lstsq_oracle(y, y @ z_star), z_star) <= 1e-10


def test_lstsq_local_minimality_probes_the_library(monkeypatch):
    # a library minimizer 1e-2 off the true one: random 1e-3 probes find lower residuals
    real = optim.scaled_grad_a

    def shifted(grad_a, b, s, lam):
        z = real(grad_a, b, s, lam)
        return z + 1e-2 * np.ones_like(z) / np.sqrt(z.size)

    monkeypatch.setattr(optim, "scaled_grad_a", shifted)
    result = oracle.CHECKS["lstsq_local_minimality"](oracle.DEFAULT_CHECK_SEED)
    assert result.passed is False and result.max_deviation == np.inf


@pytest.mark.parametrize("seed", [15, 107, 311, 717, 942])
def test_projector_idempotence_holds_at_seeds_where_a_gram_projector_failed(seed):
    # a projector through the Gram inverse read 1.89e-9, 3.05e-10, 1.08e-9, 1.77e-10 and 4.95e-10 here
    result = oracle.CHECKS["projector_idempotence"](seed)
    assert result.passed and result.max_deviation <= 1e-10


def _householder_solve(y, t):
    """argmin_Z ||Y Z - T||_F through numpy's Householder QR of Y, a route independent of the SVD."""
    q, r = np.linalg.qr(y)
    return np.linalg.solve(r, q.T @ t)


@pytest.mark.parametrize(
    "check, seed", [("lstsq_scaled_grad_a", 333), ("lstsq_scaled_grad_b", 430), ("lstsq_align_momentum_a", 777)]
)
def test_lstsq_oracle_agrees_with_householder_qr_on_every_instance_of_a_check(monkeypatch, check, seed):
    # At these seeds the check's worst instance is a square factor of condition 4.5e3 to 8.9e3,
    # where the library is 1e-9 to 3.4e-9 from the minimizer; a normal-equation oracle hid that.
    solved, lstsq = [], oracle.lstsq_oracle

    def recording(y, t):
        solved.append((y, t, lstsq(y, t)))
        return solved[-1][2]

    monkeypatch.setattr(oracle, "lstsq_oracle", recording)
    oracle.CHECKS[check](seed)  # the check's own draws, in its order
    assert len(solved) == 200
    assert max(rel_error(z, _householder_solve(y, t)) for y, t, z in solved) <= 1e-11


def test_equivalent_update_zero_and_bilinear():
    stream = RandomStream(7)
    before = LoraLayer(stream.normal(4, 6), stream.normal(2, 6), stream.normal(4, 2), 4.0)
    np.testing.assert_array_equal(oracle.equivalent_update(before, before.copy()), np.zeros((4, 6)))
    db = stream.normal(4, 2)
    after = LoraLayer(before.w0, before.a, before.b + db, before.alpha)
    np.testing.assert_allclose(
        oracle.equivalent_update(before, after), before.s * (db @ before.a), rtol=1e-12
    )


def test_equivalent_update_full_expansion_exact():
    stream = RandomStream(11)
    before = LoraLayer(stream.normal(5, 7), stream.normal(3, 7), stream.normal(5, 3), 6.0)
    da = stream.normal(3, 7)
    db = stream.normal(5, 3)
    after = LoraLayer(before.w0, before.a + da, before.b + db, before.alpha)
    want = before.s * (db @ before.a + before.b @ da + db @ da)
    assert rel_error(oracle.equivalent_update(before, after), want) < 1e-12


def test_decompose_pair_step_zero_gradient():
    stream = RandomStream(13)
    layer = LoraLayer(stream.normal(6, 9), stream.normal(2, 9), stream.normal(6, 2), 2.0)
    cfg = optim.TrainConfig(eta=0.1, beta1=0.0, lam=0.0)
    zero = as_gradient(np.zeros((6, 9)))
    rep = oracle.decompose_pair_step(layer, zero, zero, cfg)
    assert frobenius(rep.projected_col_term) == 0.0
    assert frobenius(rep.projected_row_term) == 0.0
    assert frobenius(rep.cross_term) == 0.0
    assert rep.residual_norm == 0.0


def test_decompose_pair_step_random_instance():
    stream = RandomStream(17)
    layer = LoraLayer(
        stream.normal(16, 32) / np.sqrt(32), stream.normal(4, 32), stream.normal(16, 4), 4.0
    )
    g_t = as_gradient(stream.normal(16, 32))
    g_half = as_gradient(stream.normal(16, 32))
    cfg = optim.TrainConfig(eta=0.05, beta1=0.0, lam=0.0)
    rep = oracle.decompose_pair_step(layer, g_t, g_half, cfg)
    alt_norm = frobenius(rep.projected_col_term + rep.projected_row_term)
    assert rep.residual_norm < 1e-10 * alt_norm
    explicit = oracle.joint_cross_term(layer, g_t, cfg.eta)
    rep_same = oracle.decompose_pair_step(layer, g_t, g_t, cfg)
    assert rel_error(rep_same.cross_term, explicit) < 1e-10


def test_decompose_pair_step_requires_pure_gradient_config():
    stream = RandomStream(19)
    layer = LoraLayer(stream.normal(4, 6), stream.normal(2, 6), stream.normal(4, 2), 2.0)
    zero = as_gradient(np.zeros((4, 6)))
    with pytest.raises(ValueError):
        oracle.decompose_pair_step(layer, zero, zero, optim.TrainConfig(eta=0.1, beta1=0.9))


def test_decompose_pair_step_refuses_damping():
    # the projector terms and the cross term are the undamped ones
    stream = RandomStream(19)
    layer = LoraLayer(stream.normal(4, 6), stream.normal(2, 6), stream.normal(4, 2), 2.0)
    zero = as_gradient(np.zeros((4, 6)))
    with pytest.raises(ValueError, match="lam = 0"):
        oracle.decompose_pair_step(layer, zero, zero, optim.TrainConfig(eta=0.1, beta1=0.0, lam=1e-6))


def test_the_oracles_projections_and_cross_term_do_not_use_the_gram_inverse(monkeypatch):
    # the library steps keep optim's own binding; the oracle's side must not need the kernel
    def refused(*args):
        raise AssertionError("damped_gram_inverse called")

    monkeypatch.setattr(matcore, "damped_gram_inverse", refused)
    monkeypatch.setattr(oracle, "damped_gram_inverse", refused)
    stream = RandomStream(21)
    layer = LoraLayer(stream.normal(16, 32) / np.sqrt(32), stream.normal(4, 32), stream.normal(16, 4), 4.0)
    g_t, g_half = as_gradient(stream.normal(16, 32)), as_gradient(stream.normal(16, 32))
    cfg = optim.TrainConfig(eta=0.05, beta1=0.0, lam=0.0)
    assert matcore.projector(layer.b, "column").shape == (16, 16)
    assert matcore.projector(layer.a, "row").shape == (32, 32)
    assert oracle.projector_gauge_check(layer.a, layer.b, layer.a / 2.0, layer.b * 2.0) < 1e-12
    explicit = oracle.joint_cross_term(layer, g_t, cfg.eta)
    assert rel_error(oracle.decompose_pair_step(layer, g_t, g_t, cfg).cross_term, explicit) < 1e-10
    rep = oracle.decompose_pair_step(layer, g_t, g_half, cfg)
    assert rep.residual_norm < 1e-10 * frobenius(rep.projected_col_term + rep.projected_row_term)


def test_oracle_side_functions_reject_a_plain_array_gradient():
    # The same TypeError the kernels raise, before any arithmetic reads the gradient.
    stream = RandomStream(20)
    layer = LoraLayer(stream.normal(4, 6), stream.normal(2, 6), stream.normal(4, 2), 2.0)
    plain, wrapped = np.zeros((4, 6)), as_gradient(np.zeros((4, 6)))
    cfg = optim.TrainConfig(eta=0.1, beta1=0.0, lam=0.0)
    calls = [
        lambda: optim.lorapro_equiv_grad(plain, layer, np.eye(2), 1e-8),
        lambda: oracle.joint_cross_term(layer, plain, cfg.eta),
        lambda: oracle.decompose_pair_step(layer, plain, wrapped, cfg),
        lambda: oracle.decompose_pair_step(layer, wrapped, plain, cfg),
    ]
    message = r"not ndarray; pass a dense k x d G as FullGradient\(G, np\.eye\(d\)\)$"
    for call in calls:
        with pytest.raises(TypeError, match=message):
            call()


def test_eta_order_probe():
    stream = RandomStream(23)
    layer = LoraLayer(
        np.zeros((16, 32)),
        stream.normal(4, 32) / np.sqrt(32),
        stream.normal(16, 4) / np.sqrt(4),
        4.0,
    )
    g_t = as_gradient(stream.normal(16, 32) / np.sqrt(32))
    g_half = as_gradient(stream.normal(16, 32) / np.sqrt(32))
    proj_norms, cross_norms = [], []
    etas = [1e-2, 1e-3, 1e-4]
    for eta in etas:
        cfg = optim.TrainConfig(eta=eta, beta1=0.0, lam=0.0)
        rep = oracle.decompose_pair_step(layer, g_t, g_half, cfg)
        proj_norms.append(frobenius(rep.projected_col_term) + frobenius(rep.projected_row_term))
        cross_norms.append(frobenius(rep.cross_term))
    proj_slope = np.polyfit(np.log(etas), np.log(proj_norms), 1)[0]
    cross_slope = np.polyfit(np.log(etas), np.log(cross_norms), 1)[0]
    assert abs(proj_slope - 1.0) <= 0.01
    assert abs(cross_slope - 2.0) <= 0.01


def test_projector_gauge_check_identity_and_scaling():
    stream = RandomStream(29)
    a = stream.normal(3, 20)
    b = stream.normal(12, 3)
    dev = oracle.projector_gauge_check(a, b, a, b)
    assert dev < 1e-14
    # pure rescaling cancels inside the projectors
    dev = oracle.projector_gauge_check(a, b, a / 2.0, b * 2.0)
    assert dev < 1e-12


def test_projector_gauge_check_random_gauges():
    stream = RandomStream(31)
    a = stream.normal(3, 20)
    b = stream.normal(12, 3)
    for i in range(20):
        gauge = gauge_sample(3, 10.0, 500 + i)
        dev = oracle.projector_gauge_check(a, b, np.linalg.solve(gauge, a), b @ gauge)
        assert dev < 1e-9


def test_projector_gauge_check_rejects_mismatched_products():
    stream = RandomStream(37)
    a = stream.normal(3, 20)
    b = stream.normal(12, 3)
    with pytest.raises(oracle.PreconditionViolated):
        oracle.projector_gauge_check(a, b, a * 1.01, b)


def test_trajectory_invariance_identity_gauge_is_exact():
    stream = RandomStream(41)
    task = oracle._invariance_task(stream)
    cfg = optim.TrainConfig(eta=0.2, beta1=0.9, lam=0.0, order=optim.B_FIRST)
    devs = oracle.trajectory_invariance_check(task, cfg, np.eye(task[0].layer.r), 20)
    assert devs.max() < 1e-12


def test_trajectory_invariance_keeps_the_models_head():
    # the twins keep a ReLU head's w2, so its factored target is rejected, not trained as a linear head
    model, x, target = oracle._invariance_task(RandomStream(41))
    relu = adapter.ToyModel(model.layer, np.ones((2, model.layer.k)))
    cfg = optim.TrainConfig(eta=0.2, lam=0.0)
    with pytest.raises(ValueError, match="^a factored target needs the linear head$"):
        oracle.trajectory_invariance_check((relu, x, target), cfg, np.eye(model.layer.r), 1)


@pytest.mark.parametrize("beta1", [0.0, 0.9])
def test_trajectory_invariance_random_gauges(beta1):
    stream = RandomStream(43)
    task = oracle._invariance_task(stream)
    gauge = gauge_sample(task[0].layer.r, 10.0, 77)
    cfg = optim.TrainConfig(eta=0.2, beta1=beta1, lam=0.0, order=optim.B_FIRST)
    devs = oracle.trajectory_invariance_check(task, cfg, gauge, 50)
    assert devs.max() <= 1e-6
    assert len(devs) == 50


def test_trajectory_invariance_fails_for_elementwise_adam():
    stream = RandomStream(47)
    task = oracle._invariance_task(stream)
    gauge = gauge_sample(task[0].layer.r, 10.0, 99)
    cfg = optim.TrainConfig(eta=0.02, beta1=0.9, lam=0.0)
    devs = oracle.trajectory_invariance_check(task, cfg, gauge, 50, optimizer=optim.LORA_ADAM)
    assert devs.max() > 1e-3


def test_fd_merged_gradient_on_quadratic():
    # linear model: loss is quadratic in W, central differences are exact
    stream = RandomStream(53)
    layer = LoraLayer(stream.normal(3, 4), stream.normal(2, 4), stream.normal(3, 2), 2.0)
    from altlora.adapter import ToyModel, training_pass

    model = ToyModel(layer)
    x = stream.normal(4, 7)
    y = stream.normal(3, 7)
    got = training_pass(model, x, y)[1].g
    want = oracle.fd_merged_gradient(model, x, y)
    assert oracle.fd_entrywise_deviation(got, want) < 1e-9


def test_gradient_finite_difference_passes_at_a_seed_whose_probe_reached_a_relu_kink():
    # At seed 212 the ReLU model's z[0, 0] is 4.93e-6, and a 1e-5 probe on W[0, 1]
    # moved it by 1.08e-5, across the kink: the check read 0.231. The per-entry
    # step keeps every probe on its pre-activations' sides.
    (_, _, _, _), (relu, x, _, _) = oracle._fd_models(212)
    steps = oracle.fd_steps(relu, x)
    z = adapter.merged_weight(relu.layer) @ x
    assert steps[0, 1] < 1e-5 and (steps <= 1e-5).all()
    assert (steps[:, :, None] * np.abs(x)[None] < np.abs(z)[:, None, :]).all()
    result = oracle.CHECKS["gradient_finite_difference"](212)
    assert result.passed and result.max_deviation < 1e-6


@pytest.mark.parametrize("seed", [1789, 0, 7, 42, 15])
def test_the_fd_step_is_exactly_the_default_where_no_kink_is_in_reach(seed):
    for model, x, _, _ in oracle._fd_models(seed):
        steps = oracle.fd_steps(model, x)
        assert steps.shape == model.layer.w0.shape and (steps == 1e-5).all()


def test_the_fd_step_stops_at_its_floor_for_a_pre_activation_at_its_kink():
    # Column 0 of x is zero, so it bounds no step (and 0 / 0 raises no warning);
    # in column 1, z[0, 1] = 1 - 2 (0.5) = 0 pins row 0 to the floor, and
    # z[1, 1] = 1 leaves row 1 at the step.
    layer = LoraLayer(np.array([[1.0, 2.0], [0.5, -1.0]]), np.zeros((1, 2)), np.zeros((2, 1)), 1.0)
    x = np.array([[0.0, 1.0], [0.0, -0.5]])
    steps = oracle.fd_steps(adapter.ToyModel(layer, np.ones((1, 2))), x, step=1e-5)
    np.testing.assert_array_equal(steps, [[oracle.FD_STEP_FLOOR * 1e-5] * 2, [1e-5] * 2])


def test_run_checks_all_pass_and_report_shape():
    report = oracle.run_checks()
    assert report["schema"] == oracle.REPORT_SCHEMA
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert len(names) == len(oracle.CHECKS)
    for c in report["checks"]:
        assert set(c) == {"name", "instances", "max_deviation", "passed", "info"}
        assert c["passed"] is True


def test_select_checks_globbing():
    assert oracle.select_checks("projector*") == [
        "projector_gauge_invariance",
        "projector_idempotence",
    ]
    assert oracle.select_checks("nothing-matches-*") == []
    assert oracle.select_checks() == sorted(oracle.CHECKS)


def test_filtered_run_checks():
    report = oracle.run_checks("lstsq_scaled*")
    assert [c["name"] for c in report["checks"]] == ["lstsq_scaled_grad_a", "lstsq_scaled_grad_b"]
    assert report["passed"]


def test_run_checks_rejects_a_pattern_that_selects_nothing():
    with pytest.raises(ValueError, match="'no_such_check'"):
        oracle.run_checks("no_such_check")


def test_checks_catch_broken_preconditioner(monkeypatch):
    """Mutation probe: drop the Gram inverse and the oracle checks must fail."""

    def unpreconditioned(grad_a, b, s, lam):
        return grad_a / (s * s)

    monkeypatch.setattr(optim, "scaled_grad_a", unpreconditioned)
    report = oracle.run_checks("lstsq_scaled_grad_a")
    assert report["passed"] is False


def _nan_from_call(first, fn):
    """fn, except that its first-th and later calls return all-NaN arrays."""
    calls = itertools.count(1)
    return lambda *args: fn(*args) * (np.nan if next(calls) >= first else 1.0)


def _nan_steps(monkeypatch, poisoned):
    """Steppers that rebind B with NaN after each step, in the runs poisoned(kind, call number) indexes.

    poisoned returns None to leave a step alone, ... for every run of the
    stack, or the index of one run.
    """
    make_stepper, calls = optim.make_stepper, itertools.count(1)

    def patched(kind):
        stepper = make_stepper(kind)

        def step(layer, state, g, cfg):
            stepper(layer, state, g, cfg)
            runs = poisoned(kind, next(calls))
            if runs is not None:  # a copy, poisoned and rebound: a bound factor is read-only
                b = layer.b.copy()
                b[runs] = np.nan
                layer.b = b

        return step

    monkeypatch.setattr(optim, "make_stepper", patched)


def _nan_row_projector(monkeypatch):
    real = oracle.projector
    monkeypatch.setattr(
        oracle, "projector", lambda m, space: real(m, space) * (np.nan if space == "row" else 1.0)
    )


NAN_INJECTIONS = {
    "every_scaled_grad_a": (
        "lstsq_scaled_grad_a",
        lambda mp: mp.setattr(optim, "scaled_grad_a", _nan_from_call(1, optim.scaled_grad_a)),
    ),
    # the 200th and last instance, so the NaN is not the first value aggregated
    "last_scaled_grad_a": (
        "lstsq_scaled_grad_a",
        lambda mp: mp.setattr(optim, "scaled_grad_a", _nan_from_call(200, optim.scaled_grad_a)),
    ),
    # call 50 is the 50th and final step of the first stack; run (0, 1) of it
    # is the second twin of the first gauge
    "final_step_of_one_gauge_twin": (
        "trajectory_invariance_altlora",
        lambda mp: _nan_steps(mp, lambda kind, call: (0, 1) if call == 50 else None),
    ),
    "lora_adam_runs": (
        "trajectory_invariance_negative_control",
        lambda mp: _nan_steps(mp, lambda kind, call: ... if kind == optim.LORA_ADAM else None),
    ),
    "row_space_deviation": ("projector_gauge_invariance", _nan_row_projector),
}


@pytest.mark.parametrize("injection", sorted(NAN_INJECTIONS))
def test_checks_fail_on_nan_from_the_library(monkeypatch, injection):
    """Mutation probe: a NaN deviation fails its check instead of vanishing in the aggregate."""
    name, inject = NAN_INJECTIONS[injection]
    inject(monkeypatch)
    report = oracle.run_checks(name)
    assert [c["name"] for c in report["checks"]] == [name]
    assert report["checks"][0]["max_deviation"] == np.inf
    assert report["passed"] is False


def test_the_checks_and_the_width_probe_run_the_training_pass(monkeypatch):
    # C05's gauge twins, C10's gradient and C08's probe certify the pass the
    # runner trains with, so each must take its gradients from training_pass.
    # A stacked pass counts once per run it steps.
    calls = []

    def counted(model, x, target):
        calls.append(model)
        return adapter.training_pass(model, x, target)

    def run_steps():
        return sum(model.layer.a[..., 0, 0].size for model in calls)

    for module in (oracle, bench):
        monkeypatch.setattr(module, "training_pass", counted)
    assert oracle.CHECKS["trajectory_invariance_altlora"](oracle.DEFAULT_CHECK_SEED).passed
    assert run_steps() == (20 * 2 + 1) * 2 * 50  # 20 gauges x beta1 in {0, 0.9}, plus the decay pair
    calls.clear()
    assert oracle.CHECKS["gradient_finite_difference"](oracle.DEFAULT_CHECK_SEED).passed
    assert run_steps() == 2  # the linear and the ReLU model
    calls.clear()
    bench._probe_once(16, 2, 7, optim.ALTLORA, optim.TrainConfig(eta=0.1))
    assert run_steps() == 2  # one B-phase and one A-phase
