"""The stacked oracle checks: each deviation, verdict and info field is the per-instance loop's."""

import json

import numpy as np
import pytest

import altlora
import check_reference as ref
from altlora import adapter, bench, matcore, optim, oracle
from altlora.adapter import FullGradient, LoraLayer
from altlora.matcore import RandomStream, SingularGram, gauge_sample

SEEDS = [1789, 0, 7, 42, 15]


def _judged(monkeypatch, name, seed):
    """The check's result and every deviation array it handed to oracle._worst."""
    seen, worst = [], oracle._worst
    monkeypatch.setattr(oracle, "_worst", lambda devs, least=False: seen.append(np.asarray(devs)) or worst(devs, least))
    return oracle.CHECKS[name](seed), seen


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(ref.CHECKS))
def test_stacked_check_is_bitwise_the_per_instance_loop(monkeypatch, name, seed):
    result, seen = _judged(monkeypatch, name, seed)
    instances, devs, passed, info = ref.CHECKS[name](seed)
    if name != "lstsq_local_minimality":  # it judges each probe against a base, with no deviation
        assert [d.tobytes() for d in seen] == [devs.tobytes()]
        assert seen[0].dtype == np.float64
    want = {"name": name, "instances": instances, "max_deviation": float(devs.max()), "passed": passed, "info": info}
    assert json.dumps(result.to_json(), sort_keys=True) == json.dumps(want, sort_keys=True)


def test_a_shifted_scaled_grad_a_still_fails_local_minimality(monkeypatch):
    # A Z off the argmin has a probe direction that lowers the residual.
    real = optim.scaled_grad_a
    monkeypatch.setattr(optim, "scaled_grad_a", lambda *args: real(*args) + 1e-2)
    seed = oracle.DEFAULT_CHECK_SEED
    result = oracle.CHECKS["lstsq_local_minimality"](seed)
    assert (result.passed, result.max_deviation, result.info) == (False, np.inf, {})
    assert ref.lstsq_local_minimality(seed)[2] is False


def _gauge_stack(count=4, k=12, d=20, r=3):
    stream = RandomStream(3)
    a1, b1 = stream.normal_stack(count, r, d), stream.normal_stack(count, k, r)
    gauge = np.stack([gauge_sample(r, 10.0, i) for i in range(count)])
    return a1, b1, np.linalg.solve(gauge, a1), b1 @ gauge


def test_projector_gauge_check_of_a_stack_is_each_slice_alone():
    stack = _gauge_stack()
    got = oracle.projector_gauge_check(*stack)
    want = [ref.projector_gauge_check(*(m[i] for m in stack)) for i in range(4)]
    assert got.tobytes() == np.array(want).tobytes()


def test_a_broken_gauge_pair_in_a_stack_names_its_slice():
    a1, b1, a2, b2 = _gauge_stack()
    b2[2, 0, 0] += 1e-3
    with pytest.raises(oracle.PreconditionViolated, match=r"^slice 2: factor products differ by"):
        oracle.projector_gauge_check(a1, b1, a2, b2)
    with pytest.raises(oracle.PreconditionViolated, match=r"^factor products differ by"):
        oracle.projector_gauge_check(a1[2], b1[2], a2[2], b2[2])


def test_a_singular_slice_fails_the_stacked_projector_naming_it():
    b = RandomStream(4).normal_stack(3, 6, 2)
    b[1, :, 0] = 0.0
    with pytest.raises(SingularGram, match=r"^slice 1: column space: pivot \S+ below threshold \S+ at column 0$"):
        matcore.projector(b, "column")
    with pytest.raises(SingularGram, match=r"^slice 1: row space: pivot \S+ below threshold \S+ at column 0$"):
        matcore.projector(b.mT, "row")
    p = matcore.projector(b[::2], "column")
    assert p.tobytes() == np.stack([ref.projector(b[0], "column"), ref.projector(b[2], "column")]).tobytes()


def test_decompose_pair_step_of_a_stack_is_each_instance_alone():
    stream = RandomStream(5)
    cfg = optim.TrainConfig(eta=0.05, beta1=0.0, lam=0.0)
    layer, g_t, g_half = oracle._pair_stack(stream, 3)
    rep = oracle.decompose_pair_step(layer, g_t, g_half, cfg)
    for i in range(3):
        one = LoraLayer(layer.w0[i], layer.a[i], layer.b[i], layer.alpha)
        want = ref.decompose_pair_step(one, FullGradient(g_t.u[i], g_t.v), FullGradient(g_half.u[i], g_half.v), cfg)
        got = (rep.projected_col_term[i], rep.projected_row_term[i], rep.cross_term[i], rep.residual_norm[i])
        assert [np.asarray(m).tobytes() for m in got] == [np.asarray(m).tobytes() for m in want]


# The public kernels whose perfbench FLOP hooks read a 2-D shape.
STACK_SHY = ("damped_gram_inverse", "scaled_grad_a", "scaled_grad_b", "align_momentum_a", "align_momentum_b")


def _reject_stacks(monkeypatch):
    """Swap every binding of the STACK_SHY kernels for a wrapper that raises on a stacked argument."""

    def two_d_only(fn):
        def wrapper(*args, **kwargs):
            if any(np.ndim(arg) > 2 for arg in (*args, *kwargs.values())):
                raise AssertionError(f"{fn.__name__} was handed a stack")
            return fn(*args, **kwargs)

        return wrapper

    for module in (altlora, adapter, bench, matcore, optim, oracle):
        for name in STACK_SHY:
            if name in vars(module):
                monkeypatch.setattr(module, name, two_d_only(vars(module)[name]))


def test_stacks_reach_no_kernel_whose_hook_reads_a_2d_shape(monkeypatch):
    _reject_stacks(monkeypatch)
    with pytest.raises(AssertionError, match="handed a stack"):
        optim.scaled_grad_a(np.zeros((2, 3, 5)), np.ones((2, 4, 3)), 1.0, 0.0)
    for name in ref.CHECKS:
        assert oracle.CHECKS[name](oracle.DEFAULT_CHECK_SEED).passed, name
    layer, g_t, _ = oracle._pair_stack(RandomStream(6), 3)
    state = optim.make_state(optim.SCALEDGD_JOINT, layer)
    optim.baseline_step(optim.SCALEDGD_JOINT, layer, state, g_t, optim.TrainConfig(eta=0.05, lam=0.0))
    assert state.t == 1 and layer.a.shape == (3, 4, 32)
