"""Self-checks of the benchmark: exact per-step counts and harmless tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench

The counts are those of the seed code; a change that removes a Gram
factorization or a merged-weight build cites the new count against these.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from altlora import adapter, bench, oracle, optim  # noqa: E402

import tracer  # noqa: E402

STEPS = 6


def _spec(optimizer: str, beta1: float) -> bench.ExperimentSpec:
    return bench.ExperimentSpec(
        task="lowrank", k=16, d=16, r=4, teacher_rank=4, kappa=10.0, optimizer=optimizer, seed=5,
        eval_every=100,
        train=optim.TrainConfig(eta=0.1, beta1=beta1, lam=1e-6, order=optim.B_FIRST, steps=STEPS),
    )


def _traced(spec, kind=tracer.SpanTracer):
    t = kind()
    t.install()
    try:
        record = bench.run_experiment(spec)
    finally:
        t.uninstall()
    return record, t.summarize()


@pytest.mark.parametrize(
    "optimizer, beta1, per_step",
    [(optim.ALTLORA, 0.9, 2.0), (optim.ALTLORA, 0.0, 1.0), (optim.LORA_SGD, 0.0, 0.0)],
)
def test_gram_inverses_per_step(optimizer, beta1, per_step):
    _, layers = _traced(_spec(optimizer, beta1))
    assert layers["optim.step.calls"] == STEPS
    assert layers["optim.gram_inverses_per_step"] == per_step


def test_merged_weight_calls_per_lowrank_step():
    # forward and full_gradient each rebuild the merged weight on all
    # STEPS + 1 loop passes, plus one build per eval row (steps 0 and STEPS).
    _, layers = _traced(_spec(optim.ALTLORA, 0.9))
    assert layers["adapter.merged_weight.per_step"] * STEPS == 2 * (STEPS + 1) + 2


def test_lora_grads_flops_per_step():
    _, layers = _traced(_spec(optim.ALTLORA, 0.9))
    assert layers["adapter.lora_grads.flop_per_step"] == 4 * 16 * 4 * 16


def test_tracing_leaves_outputs_unchanged():
    spec = _spec(optim.ALTLORA, 0.9)
    plain = bench.run_experiment(spec).to_csv()
    traced, _ = _traced(spec)
    assert traced.to_csv() == plain


def test_uninstall_restores_every_binding():
    before = (bench.forward, adapter.forward, optim.damped_gram_inverse, dict(oracle.CHECKS),
              vars(optim.AltLoraState)["init"])
    t = tracer.SpanTracer()
    t.install()
    assert bench.forward is adapter.forward is not before[0]
    assert optim.damped_gram_inverse is bench.optim.damped_gram_inverse
    t.uninstall()
    after = (bench.forward, adapter.forward, optim.damped_gram_inverse, dict(oracle.CHECKS),
             vars(optim.AltLoraState)["init"])
    assert after == before


def test_alloc_tracer_sees_forward_allocations():
    tracemalloc.start()
    try:
        _, peaks = _traced(_spec(optim.ALTLORA, 0.9), kind=tracer.AllocTracer)
    finally:
        tracemalloc.stop()
    assert peaks["adapter.forward.peak_alloc_mb"] > 0
    assert peaks["run.peak_alloc_mb"] >= peaks["adapter.forward.peak_alloc_mb"]


def test_benchmark_json_names_are_all_computed():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _, spans = _traced(_spec(optim.ALTLORA, 0.9))
    tracemalloc.start()
    try:
        _, allocs = _traced(_spec(optim.ALTLORA, 0.9), kind=tracer.AllocTracer)
    finally:
        tracemalloc.stop()
    computed = set(spans) | set(allocs) | {"trace.overhead_s"}
    assert {m["name"] for m in config["per_layer"]} <= computed
