"""The leading run axis: a stack of S runs steps as each run would alone, bit for bit."""

import numpy as np
import pytest

from altlora import adapter, optim, oracle
from altlora.adapter import FactoredTarget, LoraLayer, ToyModel
from altlora.matcore import RandomStream, SingularGram, cholesky_factor, damped_gram_inverse, gauge_sample

S, STEPS = 3, 6
# The two heads as parametrize labels; a model has the ReLU head when it has a w2.
LINEAR, RELU = "linear_regression", "two_layer_relu"


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _task(stream, head, s, k=16, d=12, r=3, m=20, out=5):
    """One run: (model, x, target) at scale s, for the linear or the ReLU head."""
    layer = LoraLayer(stream.normal(k, d) / np.sqrt(d), stream.normal(r, d) / np.sqrt(d),
                      stream.normal(k, r) / np.sqrt(r), s * r)
    w2 = stream.normal(out, k) / np.sqrt(k) if head == RELU else None
    x = stream.normal(d, m)
    return ToyModel(layer, w2), x, stream.normal(k if w2 is None else out, m)


def _stack(tasks):
    """One task whose every array stacks the given runs' on a leading axis."""
    layers = [model.layer for model, _, _ in tasks]
    stacked = (np.stack([getattr(one, f) for one in layers]) for f in ("w0", "a", "b"))
    layer = LoraLayer(*stacked, layers[0].alpha)
    model, targets = tasks[0][0], [t[2] for t in tasks]
    w2 = None if model.w2 is None else np.stack([t[0].w2 for t in tasks])
    if isinstance(targets[0], FactoredTarget):
        target = FactoredTarget(np.stack([t.us for t in targets]), np.stack([t.vx for t in targets]))
    else:
        target = np.stack(targets)
    return ToyModel(layer, w2), np.stack([t[1] for t in tasks]), target


def _buffers(layer, state):
    return {"a": layer.a, "b": layer.b, "ma": state.ma, "mb": state.mb, "va": state.va, "vb": state.vb}


def _assert_stack_steps_as_alone(runs, stacked, kind, beta1):
    """STEPS passes and steps of each run alone and of the stack: the same bits in every slice."""
    cfg = optim.TrainConfig(eta=0.01, beta1=beta1, gamma=0.01)
    stepper = optim.make_stepper(kind)
    states = [optim.make_state(kind, model.layer) for model, _, _ in runs]
    state = optim.make_state(kind, stacked[0].layer)
    for _ in range(STEPS):
        losses = []
        for (model, x, y), one in zip(runs, states):
            loss, g = adapter.training_pass(model, x, y)
            stepper(model.layer, one, g, cfg)
            losses.append(loss)
        loss, g = adapter.training_pass(*stacked)
        stepper(stacked[0].layer, state, g, cfg)
        assert _same_bits(loss, np.array(losses))
    assert np.isfinite(loss).all() and state.t == STEPS
    for i, ((model, _, _), one) in enumerate(zip(runs, states)):
        for name, buf in _buffers(stacked[0].layer, state).items():
            alone = _buffers(model.layer, one)[name]
            assert (buf is None) == (alone is None), name
            assert buf is None or _same_bits(buf[i], alone), f"{name} of run {i}"
        carry, alone = stacked[0].layer._memo.get("gram"), model.layer._memo.get("gram")
        assert (carry is None) == (alone is None)
        if alone is not None:
            assert _same_bits(carry[2][i], alone[2])
    carry = stacked[0].layer._memo.get("gram")
    if carry is not None:  # the carry keys on the whole bound stack
        assert carry[0] is stacked[0].layer.a or carry[0] is stacked[0].layer.b


@pytest.mark.parametrize("kind", optim.OPTIMIZERS)
@pytest.mark.parametrize("head", [LINEAR, RELU])
@pytest.mark.parametrize("beta1", [0.0, 0.9])
@pytest.mark.parametrize("s", [1.0, 2.5])
def test_a_stack_steps_each_run_as_it_steps_alone(kind, head, beta1, s):
    stream = RandomStream(61)
    runs = [_task(stream, head, s) for _ in range(S)]
    _assert_stack_steps_as_alone(runs, _stack(runs), kind, beta1)


@pytest.mark.parametrize("kind", optim.OPTIMIZERS)
@pytest.mark.parametrize("beta1", [0.0, 0.9])
@pytest.mark.parametrize("s", [1.0, 2.5])
def test_a_stack_shares_one_factored_target_as_each_run_alone(kind, beta1, s):
    _assert_shared_factored_target_steps_as_alone(kind, beta1, s)


@pytest.mark.parametrize("kind", optim.OPTIMIZERS)
@pytest.mark.parametrize("beta1", [0.0, 0.9])
@pytest.mark.parametrize("s", [1.0, 2.5])
def test_a_compressed_stack_shares_one_factored_target_as_each_run_alone(kind, beta1, s, monkeypatch):
    monkeypatch.setattr(adapter, "SQUARE_CHUNK", 0)  # every factored pass compressed
    _assert_shared_factored_target_steps_as_alone(kind, beta1, s)


def _assert_shared_factored_target_steps_as_alone(kind, beta1, s):
    # Every run trains toward one batch and one factored target, which the
    # stack holds once: a batch axis of length 1, broadcast views of the target.
    stream = RandomStream(66)
    runs = [_task(stream, LINEAR, s) for _ in range(S)]
    x = runs[0][1]
    target = FactoredTarget(stream.normal(16, 2), stream.normal(2, x.shape[1]))
    runs = [(model, x, target) for model, _, _ in runs]
    shared = FactoredTarget(*(np.broadcast_to(f, (S,) + f.shape) for f in (target.us, target.vx)))
    _assert_stack_steps_as_alone(runs, (_stack(runs)[0], x[None], shared), kind, beta1)


@pytest.mark.parametrize("kind", optim.OPTIMIZERS)
@pytest.mark.parametrize("order", [optim.A_FIRST, optim.B_FIRST])
@pytest.mark.parametrize("beta1", [0.0, 0.9])
def test_the_pass_cache_leaves_a_compressed_stack_as_it_was(kind, order, beta1, monkeypatch):
    # The stack beside its twin whose memo is cleared before every pass.
    monkeypatch.setattr(adapter, "SQUARE_CHUNK", 0)
    stream = RandomStream(67)
    runs = [(model, x, FactoredTarget(stream.normal(16, 2), stream.normal(2, x.shape[1])))
            for model, x, _ in (_task(stream, LINEAR, 2.5) for _ in range(S))]
    model, x, target = _stack(runs)
    twin = ToyModel(model.layer.copy())
    cfg = optim.TrainConfig(eta=0.01, beta1=beta1, gamma=0.01, order=order)
    stepper = optim.make_stepper(kind)
    states = [optim.make_state(kind, model.layer), optim.make_state(kind, twin.layer)]
    for _ in range(STEPS):
        twin.layer._memo.clear()
        passes = [adapter.training_pass(one, x, target) for one in (model, twin)]
        for one, state, (_, g) in zip((model, twin), states, passes):
            stepper(one.layer, state, g, cfg)
        (loss, g), (twin_loss, twin_g) = passes
        assert _same_bits(loss, twin_loss) and _same_bits(g.u, twin_g.u) and _same_bits(g.v, twin_g.v)
    for name, buf in _buffers(model.layer, states[0]).items():
        want = _buffers(twin.layer, states[1])[name]
        assert buf is None and want is None or _same_bits(buf, want), name


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_damped_gram_inverse_of_a_stack_is_each_slice_inverse(side, lam):
    stack = RandomStream(62).normal(4, 32, 4)
    if side == "right":
        stack = stack.mT
    got = damped_gram_inverse(stack, side, lam)
    assert got.shape == (4, 4, 4)
    for i, m in enumerate(stack):
        assert _same_bits(got[i], damped_gram_inverse(m, side, lam))


def _grams_with_one_bad_slice(bad, singular):
    """Four 4 x 4 Grams; slice ``bad`` is numerically singular (singular=True) or negative definite."""
    stream = RandomStream(63)
    grams = [m.T @ m for m in (stream.normal(16, 4) for _ in range(4))]
    if singular:
        # LAPACK factors it; its last pivot is below 1e-12 * trace
        grams[bad] = np.diag([1.0, 1.0, 1.0, 1e-14])
    else:
        grams[bad] = -np.eye(4)  # LAPACK rejects it
    return np.stack(grams)


@pytest.mark.parametrize("singular", [True, False], ids=["pivot", "lapack"])
@pytest.mark.parametrize("bad", [0, 2])
def test_one_singular_slice_fails_the_stack_and_is_named(bad, singular):
    grams = _grams_with_one_bad_slice(bad, singular)
    with pytest.raises(SingularGram) as alone:
        cholesky_factor(grams[bad])
    with pytest.raises(SingularGram) as stacked:
        cholesky_factor(grams)
    assert str(stacked.value) == f"slice {bad}: {alone.value}"
    for i in set(range(4)) - {bad}:
        cholesky_factor(grams[i])


def test_damped_gram_inverse_names_the_singular_slice():
    m = RandomStream(65).normal(4, 16, 4)
    m[2, :, 3] = 0.0  # a zero column: slice 2's Gram is singular at lam = 0
    with pytest.raises(SingularGram, match="^slice 2: "):
        damped_gram_inverse(m, "left", 0.0)
    damped_gram_inverse(m, "left", 1e-6)  # damping makes every slice invertible


def test_each_slice_is_judged_by_its_own_trace():
    # 1e-6 I is well conditioned: beside 1e6 I, a threshold shared across the
    # stack (1e-12 * 4e6) would call it singular.
    grams = np.stack([1e-6 * np.eye(4), 1e6 * np.eye(4)])
    lo = cholesky_factor(grams)
    assert _same_bits(lo[0], cholesky_factor(grams[0])) and _same_bits(lo[1], cholesky_factor(grams[1]))


def test_the_stacked_trajectory_check_is_each_gauge_checked_alone():
    stream = RandomStream(64)
    tasks = [oracle._invariance_task(stream) for _ in range(3)]
    gauges = [gauge_sample(4, 10.0, 640 + i) for i in range(3)]
    task, gauge = _stack(tasks), np.stack(gauges)
    for kind, beta1 in ((optim.ALTLORA, 0.0), (optim.ALTLORA, 0.9), (optim.LORA_ADAM, 0.9)):
        cfg = optim.TrainConfig(eta=0.02, beta1=beta1, lam=0.0)
        devs = oracle.trajectory_invariance_check(task, cfg, gauge, 8, optimizer=kind)
        assert devs.shape == (3, 8)
        check = oracle.trajectory_invariance_check
        rows = [check(t, cfg, g, 8, optimizer=kind) for t, g in zip(tasks, gauges)]
        for i, row in enumerate(rows):
            assert _same_bits(devs[i], row), f"{kind} beta1={beta1} gauge {i}"


@pytest.mark.parametrize("kind", [optim.ALTLORA, optim.LORA_ADAM])
@pytest.mark.parametrize("count", [1, 3])
def test_the_trajectory_check_leaves_its_inputs_alone(kind, count):
    stream = RandomStream(65)
    tasks = [oracle._invariance_task(stream) for _ in range(count)]
    gauges = [gauge_sample(4, 10.0, 650 + i) for i in range(count)]
    task, gauge = (tasks[0], gauges[0]) if count == 1 else (_stack(tasks), np.stack(gauges))
    model, x, target = task

    def inputs():
        return model.layer.w0, model.layer.a, model.layer.b, x, target.us, target.vx, gauge

    held = inputs()
    before = [m.copy() for m in held]
    cfg = optim.TrainConfig(eta=0.02, beta1=0.9, lam=0.0)
    oracle.trajectory_invariance_check(task, cfg, gauge, 4, optimizer=kind)
    assert all(now is m for now, m in zip(inputs(), held))
    assert all(_same_bits(m, want) for m, want in zip(held, before))
