"""Traced runs of the altlora modules, wrapped from outside the package.

Every public function of the six modules under ``src/altlora`` (and every
public method of their classes) is replaced by a wrapper in each namespace
that binds it. ``optim``, ``bench`` and ``oracle`` import kernels with
``from .x import name``, so patching only the defining module would miss
their calls. The named checks in ``oracle.CHECKS`` are wrapped as well, as
``oracle.check.<name>``.

``SpanTracer`` keeps one span per call (name, start, end, parent) in flat
arrays in memory, plus one "work" number per span: the FLOPs of the matmuls
the function itself executes, computed from argument shapes (2abc per
(a x b)(b x c) product, mirroring the matmul order of the code), or the
bytes written for ``cli.atomic_write_text``, or the analytic FLOP model of
``bench`` for a ``bench.run_experiment`` call. ``summarize`` turns the spans
into the per-layer metrics.

``AllocTracer`` records, with ``tracemalloc``, the peak traced allocation
inside each wrapped call. It is a separate pass because tracemalloc slows
every allocation; no timed pass runs with it.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from array import array

import numpy as np

import altlora
from altlora import adapter, bench, cli, matcore, optim, oracle

LAYERS = {"matcore": matcore, "adapter": adapter, "optim": optim, "oracle": oracle, "bench": bench, "cli": cli}

# Span names aggregated into one per-layer metric prefix.
GROUPS = {
    "optim.step": ("optim.altlora_step", "optim.altlora_plus_step", "optim.baseline_step"),
    "optim.scaled_grad": ("optim.scaled_grad_a", "optim.scaled_grad_b"),
    "optim.align_momentum": ("optim.align_momentum_a", "optim.align_momentum_b"),
    "optim.check_budget": ("optim.AltLoraState.check_budget",),
    "bench.generate_task": ("bench.generate_task", "bench.gen_lowrank_task", "bench.gen_relu_task"),
}

SELF_TIMES = (
    "matcore.damped_gram_inverse",
    "matcore.spd_solve",
    "matcore.RandomStream.normal",
    "matcore.orthonormal_columns",
    "matcore.jacobi_svd",
    "optim.step",
    "optim.check_budget",
    "optim.align_momentum",
    "optim.scaled_grad",
    "adapter.forward",
    "adapter.full_gradient",
    "adapter.mse_loss",
    "adapter.merged_weight",
    "adapter.lora_grads",
    "bench.generate_task",
    "bench.run_experiment",
    "oracle.run_checks",
    "oracle.lstsq_oracle",
    "cli.execute_run",
    "cli.cmd_sweep",
    "cli.cmd_report",
)

GFLOP_STAGES = (
    "adapter.forward",
    "adapter.full_gradient",
    "adapter.merged_weight",
    "adapter.lora_grads",
    "optim.scaled_grad",
    "optim.align_momentum",
    "matcore.damped_gram_inverse",
    "matcore.spd_solve",
)

ALLOC_STAGES = (
    "adapter.forward",
    "adapter.full_gradient",
    "adapter.mse_loss",
    "adapter.merged_weight",
    "adapter.lora_grads",
    "optim.step",
    "optim.scaled_grad",
    "optim.align_momentum",
)

MB = 1e6


# ---------------------------------------------------------------------------
# Work counted from argument shapes. Each hook has the wrapped function's
# parameter names so keyword calls bind the same way.


def _merged_weight(layer):
    return 2 * layer.k * layer.r * layer.d


def _forward(model, x):
    k, d, m = model.layer.k, model.layer.d, x.shape[1]
    flops = 2 * k * d * m
    if model.w2 is not None:
        flops += 2 * model.w2.shape[0] * k * m
    return flops


def _full_gradient(model, x, target, cache):
    k, d, m = model.layer.k, model.layer.d, x.shape[1]
    if model.w2 is None:
        return 4 * k * d * m  # y = W x, then dy x^T
    out = model.w2.shape[0]
    return 4 * out * k * m + 2 * k * d * m  # w2 h, w2^T dy, dz x^T


def _lora_grads(g, layer):
    return 4 * layer.k * layer.r * layer.d


def _damped_gram_inverse(m, side, lam):
    rows, cols = np.shape(m)
    r, n = (cols, rows) if side == "left" else (rows, cols)
    return 2 * r * r * n


def _spd_solve(s, b):
    n = s.shape[0]
    c = b.shape[1] if np.ndim(b) == 2 else 1
    cholesky = sum(2 * j * (n - j) for j in range(n))
    return cholesky + 2 * c * n * (n - 1)  # plus one lower and one upper solve


def _scaled_grad_a(grad_a, b, s, lam):
    r, d = grad_a.shape
    return 2 * r * r * d


def _scaled_grad_b(grad_b, a, s, lam):
    k, r = grad_b.shape
    return 2 * k * r * r


def _align_momentum_b(mb, a_old, a_new, lam):
    k, r = mb.shape
    d = a_old.shape[1]
    return 4 * k * r * d + 2 * k * r * r  # (mb a_old) a_new^T, then the r x r inverse


def _align_momentum_a(ma, b_old, b_new, lam):
    r, d = ma.shape
    k = b_new.shape[0]
    return 4 * r * r * k + 2 * r * r * d  # inv b_new^T, then b_old, then ma


def _run_experiment(spec):
    return (bench._task_flops(spec) + bench._optimizer_flops(spec)) * spec.train.steps


def _atomic_write_text(path, text):
    return len(text.encode("utf-8"))


FLOP_HOOKS = {
    "adapter.merged_weight": _merged_weight,
    "adapter.forward": _forward,
    "adapter.full_gradient": _full_gradient,
    "adapter.lora_grads": _lora_grads,
    "matcore.damped_gram_inverse": _damped_gram_inverse,
    "matcore.spd_solve": _spd_solve,
    "optim.scaled_grad_a": _scaled_grad_a,
    "optim.scaled_grad_b": _scaled_grad_b,
    "optim.align_momentum_a": _align_momentum_a,
    "optim.align_momentum_b": _align_momentum_b,
}
WORK_HOOKS = {
    **FLOP_HOOKS,
    "bench.run_experiment": _run_experiment,
    "cli.atomic_write_text": _atomic_write_text,
}


# ---------------------------------------------------------------------------
# Finding and replacing the public callables


def _targets():
    """(span name, owner, attribute, original, descriptor type) per callable."""
    for layer, mod in LAYERS.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", mod, attr, obj, None
            elif inspect.isclass(obj):
                for meth, raw in vars(obj).items():
                    if meth.startswith("_"):
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        yield f"{layer}.{attr}.{meth}", obj, meth, raw.__func__, type(raw)
                    elif inspect.isfunction(raw):
                        yield f"{layer}.{attr}.{meth}", obj, meth, raw, None


class _Patcher:
    """Installs wrappers everywhere a public callable is bound; undoes them."""

    def __init__(self):
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, make_wrapper) -> None:
        replaced = {}
        for name, owner, attr, fn, kind in list(_targets()):
            wrapper = make_wrapper(fn, name)
            self._set(owner, attr, kind(wrapper) if kind else wrapper)
            replaced[id(fn)] = (fn, wrapper)
        # Every other namespace that bound the original by `from .x import`.
        for mod in (altlora, *LAYERS.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for check, fn in list(oracle.CHECKS.items()):
            self._undo.append((oracle.CHECKS, check, fn))
            oracle.CHECKS[check] = make_wrapper(fn, f"oracle.check.{check}")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Spans


class SpanTracer(_Patcher):
    """Span per wrapped call, kept in flat arrays until the run ends."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]

    def install(self) -> None:
        super().install(self._wrap)

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        hook = WORK_HOOKS.get(name)
        name_id, parent, start, end, work, stack = (
            self.name_id, self.parent, self.start, self.end, self.work, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            work.append(hook(*args, **kwargs) if hook is not None else 0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def save(self, path) -> None:
        """Write the spans (columns plus the name table) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            work=np.frombuffer(self.work),
        )

    def summarize(self) -> dict:
        """Per-layer metrics of the spans recorded so far."""
        names = self.names
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        work = np.frombuffer(self.work)
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        width = len(names)
        calls = np.bincount(nid, minlength=width)
        self_s = np.bincount(nid, weights=dur - child, minlength=width)
        total_s = np.bincount(nid, weights=dur, minlength=width)
        work_by = np.bincount(nid, weights=work, minlength=width)
        index = {n: i for i, n in enumerate(names)}

        def members(group):
            return [index[n] for n in GROUPS.get(group, (group,)) if n in index]

        def under(group):
            """Mask of spans with a span of ``group`` among their ancestors."""
            is_group = np.isin(nid, members(group))
            below = np.zeros(len(nid), dtype=bool)
            while True:
                nxt = has_parent & (is_group[up] | below[up])
                if np.array_equal(nxt, below):
                    return below
                below = nxt

        def total(arr, group):
            return float(sum(arr[i] for i in members(group)))

        steps = total(calls, "optim.step")
        out = {}
        for group in SELF_TIMES:
            out[f"{group}.self_s"] = total(self_s, group)
        for group in GFLOP_STAGES:
            busy = total(self_s, group)
            out[f"{group}.gflops_per_s"] = total(work_by, group) / busy / 1e9 if busy > 0 else 0.0
        gram = members("matcore.damped_gram_inverse")
        out["matcore.damped_gram_inverse.calls"] = total(calls, "matcore.damped_gram_inverse")
        out["optim.gram_inverses_per_step"] = (
            float(np.count_nonzero(np.isin(nid, gram) & under("optim.step"))) / steps if steps else 0.0
        )
        out["adapter.merged_weight.per_step"] = total(calls, "adapter.merged_weight") / steps if steps else 0.0
        out["adapter.lora_grads.flop_per_step"] = total(work_by, "adapter.lora_grads") / steps if steps else 0.0
        in_run = under("bench.run_experiment")
        counted = float(work[in_run & np.isin(nid, [index[n] for n in FLOP_HOOKS if n in index])].sum())
        run_time = total(total_s, "bench.run_experiment")
        out["bench.counted_gflops_per_s"] = counted / run_time / 1e9 if run_time > 0 else 0.0
        out["bench.flop_model_ratio"] = total(work_by, "bench.run_experiment") / counted if counted > 0 else 0.0
        for check in oracle.select_checks():
            out[f"oracle.check.{check}.s"] = total(total_s, f"oracle.check.{check}")
        out["cli.atomic_write_text.calls"] = total(calls, "cli.atomic_write_text")
        out["cli.atomic_write_text.bytes"] = total(work_by, "cli.atomic_write_text")
        out["trace.spans"] = float(len(nid))
        out["optim.step.calls"] = steps
        return out


# ---------------------------------------------------------------------------
# Peak allocations


class AllocTracer(_Patcher):
    """Peak traced allocation (above the entry level) inside each wrapped call."""

    def __init__(self):
        super().__init__()
        self.peak: dict[str, int] = {}
        self.run_peak = 0
        self._frames: list[list[int]] = []

    def install(self) -> None:
        super().install(self._wrap)

    def _read(self) -> tuple[int, int]:
        cur, peak = tracemalloc.get_traced_memory()
        self.run_peak = max(self.run_peak, peak)
        return cur, peak

    def _wrap(self, fn, name):
        frames, peaks = self._frames, self.peak

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cur, peak = self._read()
            if frames:
                frames[-1][1] = max(frames[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [cur, cur]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frames.pop()
                top = max(frame[1], self._read()[1])
                if frames:
                    frames[-1][1] = max(frames[-1][1], top)
                peaks[name] = max(peaks.get(name, 0), top - frame[0])

        return traced

    def summarize(self) -> dict:
        self._read()
        out = {"run.peak_alloc_mb": self.run_peak / MB}
        for group in ALLOC_STAGES:
            got = [self.peak[n] for n in GROUPS.get(group, (group,)) if n in self.peak]
            out[f"{group}.peak_alloc_mb"] = max(got, default=0) / MB
        return out
