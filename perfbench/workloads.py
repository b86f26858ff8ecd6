"""The three benchmark workloads and their correctness gates.

Each workload takes the benchmark seed, a scratch directory and a
``Clock``. It calls ``clock.mark()`` once when set-up is over (just before
the first optimizer step or the first check) and times its work in
segments (``clock.op`` / ``clock.lap``) in reference seconds (calib.py).
It returns a dict with

- ``steps``: the optimizer steps it completed (checks, for verify_suite);
- ``ops``: a list of ``[name, ok, detail]``, one per operation attempted
  (sweep cell, report, training run, check) and per correctness gate;
- ``digests``: sha256 of every output file that must be byte-identical
  across repeats (C12), keyed by file name.

Only the library's work is timed; the gates read outputs outside the clock.
The library only ever sees the configs and specs built here.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

from altlora import bench, cli, optim, oracle

import calib

KAPPAS = (1.0, 10.0, 100.0)
# C07 is gated on its own instance (criterion 7 of the acceptance suite);
# the benchmark seed drives the momentum and ReLU cells.
C07_SEED = 1
DESK_LOWRANK = {"task": "lowrank", "k": 32, "d": 32, "r": 4, "teacher_rank": 4}
DESK_RELU = {"task": "two_layer_relu", "d": 32, "width": 128, "r": 4, "teacher_rank": 4}

WIDE_STEPS = 6
WIDE_SHAPE = {"task": "lowrank", "k": 1024, "d": 1024, "r": 16, "teacher_rank": 16, "kappa": 10.0}


class Clock:
    """End of set-up, plus every timed segment in reference seconds.

    With a calibration kernel (calib.py), the kernel runs once when set-up
    ends and once after every segment, so each segment sits between two
    kernel timings and is scaled by them. With ``kernel=None`` (trace runs)
    nothing is calibrated and reference seconds are measured seconds.
    A segment that starts before set-up ends (the first sweep cell, the
    training run) is timed from the end of set-up, so no time counts in
    both set-up and wall time, and no calibration time counts in either.
    """

    def __init__(self, kernel: str | None, on_setup_end=None):
        self.kernel = kernel
        self.setup_end: float | None = None
        self.setup_scale = 1.0
        self.timings: list[list] = []  # [name, measured_s, reference_s]
        self._resume: float | None = None
        self._kernel_s: float | None = None
        self._on_setup_end = on_setup_end

    def _calibrate(self) -> float | None:
        return calib.measure(self.kernel) if self.kernel else None

    def mark(self) -> None:
        """End of set-up; later segments are timed from here."""
        if self.setup_end is not None:
            return
        self.setup_end = time.monotonic()
        self._kernel_s = self._calibrate()
        if self._kernel_s:
            self.setup_scale = calib.REFERENCE_S[self.kernel] / self._kernel_s
        self._resume = time.monotonic()
        if self._on_setup_end is not None:
            self._on_setup_end()

    def lap(self, name: str) -> None:
        """Close the segment that began at the last resume point."""
        measured = time.monotonic() - self._resume
        before, after = self._kernel_s, self._calibrate()
        self._kernel_s = after
        scale = calib.REFERENCE_S[self.kernel] / ((before + after) / 2) if after else 1.0
        self.timings.append([name, measured, measured * scale])
        self._resume = time.monotonic()

    @contextmanager
    def op(self, name: str):
        """Time the body as one segment."""
        if self.setup_end is not None:
            self._resume = time.monotonic()
        try:
            yield
        finally:
            if self.setup_end is not None:
                self.lap(name)


def _train(eta, beta1, steps):
    return {"eta": eta, "beta1": beta1, "lambda": 1e-6, "order": "b_first", "steps": steps}


def desk_configs(seed: int) -> list[tuple[str, dict]]:
    """(family, sweep config) for every sweep, in run order."""
    configs = []
    for kappa in KAPPAS:
        families = (
            ("c07_altlora", DESK_LOWRANK, C07_SEED, "altlora", _train(0.3, 0.0, 500)),
            ("c07_lora_sgd", DESK_LOWRANK, C07_SEED, "lora_sgd", _train(0.2, 0.0, 10000)),
            ("momentum_altlora", DESK_LOWRANK, seed, "altlora", _train(0.3, 0.9, 500)),
            ("relu_altlora", DESK_RELU, seed, "altlora", _train(0.3, 0.0, 500)),
        )
        for family, shape, cell_seed, optimizer, train in families:
            doc = {
                **shape,
                "name": f"{family}_kappa{kappa:g}",
                "kappa": kappa,
                "seed": cell_seed,
                "eval_every": 100,
                "train": train,
                "grid": {"optimizer": [optimizer]},
            }
            configs.append((family, doc))
    return configs


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_losses(path: Path) -> tuple[float, float]:
    rows = bench.RunRecord.parse_csv(path.read_text(encoding="utf-8")).rows
    return rows[0][1], rows[-1][1]


def desk_sweep(seed: int, workdir: Path, clock: Clock) -> dict:
    configs = desk_configs(seed)
    cfg_dir = workdir / "configs"
    runs = workdir / "runs"
    cfg_dir.mkdir(parents=True)
    paths = []
    for _, doc in configs:
        path = cfg_dir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    _hook_runner(clock, lap_steps=False)

    ops = []
    for path in paths:
        with clock.op(path.stem):
            code = cli.main(["sweep", str(path), "--out", str(runs), "--threads", "1"])
        ops.append([f"sweep {path.stem}", code == cli.EXIT_OK, f"exit {code}"])
    with clock.op("report"):
        code = cli.main(["report", str(runs)])
    ops.append(["report", code == cli.EXIT_OK, f"exit {code}"])

    with open(runs / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    ops.append(["summary has every cell", len(summary) == len(configs), f"{len(summary)} rows"])
    by_family: dict[str, dict[float, int]] = {}
    for family, doc in configs:
        row = next((r for r in summary if r["name"].startswith(doc["name"] + "__")), None)
        if row is not None:
            by_family.setdefault(family, {})[doc["kappa"]] = int(row["steps_to_threshold"])

    for family in ("c07_altlora", "momentum_altlora"):
        stt = [by_family.get(family, {}).get(k, -1) for k in KAPPAS]
        ok = min(stt) > 0 and max(stt) / min(stt) < 2.0
        ops.append([f"{family} max/min steps_to_threshold < 2", ok, str(stt)])
    sgd = [by_family.get("c07_lora_sgd", {}).get(k, -1) for k in KAPPAS]
    ops.append(["c07_lora_sgd monotone in kappa", min(sgd) > 0 and sgd == sorted(sgd), str(sgd)])
    ops.append(["c07_lora_sgd ratio >= 5", min(sgd) > 0 and sgd[-1] / sgd[0] >= 5.0, str(sgd)])

    digests = {}
    for csv_path in sorted(runs.glob("*.csv")):
        if csv_path.name == "summary.csv":
            continue
        digests[csv_path.name] = _digest(csv_path)
        sidecar = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
        first, last = _csv_losses(csv_path)
        ok = not sidecar["diverged"] and math.isfinite(last) and last < first
        ops.append([f"{csv_path.stem} converges", ok, f"loss {first:.3g} -> {last:.3g}"])
    steps = sum(doc["train"]["steps"] for _, doc in configs)
    return {"steps": steps, "ops": ops, "digests": digests}


def wide_spec(seed: int) -> bench.ExperimentSpec:
    return bench.ExperimentSpec(
        **WIDE_SHAPE,
        optimizer=optim.ALTLORA,
        seed=seed,
        eval_every=2,
        train=optim.TrainConfig(eta=0.3, beta1=0.9, lam=1e-6, order=optim.B_FIRST, steps=WIDE_STEPS),
    )


def wide_layer(seed: int, workdir: Path, clock: Clock) -> dict:
    spec = wide_spec(seed)
    # One segment per loop pass, so calibration brackets each ~0.5 s pass.
    _hook_runner(clock, lap_steps=True)
    try:
        # The stepper calls check_budget after every step; a non-factor
        # buffer raises AssertionError.
        record = bench.run_experiment(spec)
        clock.lap("final pass")
    except (bench.DivergenceDetected, AssertionError) as exc:
        return {"steps": 0, "ops": [["run", False, f"{type(exc).__name__}: {exc}"]], "digests": {}}
    first, last = record.rows[0][1], record.final_loss
    ops = [
        ["run", True, f"{spec.train.steps} steps"],
        ["final loss below initial", math.isfinite(last) and last < first, f"loss {first:.4g} -> {last:.4g}"],
    ]
    return {"steps": spec.train.steps, "ops": ops, "digests": {}}


def verify_suite(seed: int, workdir: Path, clock: Clock) -> dict:
    names = oracle.select_checks()
    clock.mark()
    checks = []
    for name in names:
        # One check per call (the filter is an exact name), so each check
        # is timed on its own. The checks run at their specification seed
        # (the default of run_checks and `altlora verify`), not the
        # benchmark seed: at some other seeds a random instance is
        # ill-conditioned enough to miss a 1e-9 tolerance (README).
        with clock.op(name):
            report = oracle.run_checks(name)
        checks += report["checks"]
    ops = [[c["name"], bool(c["passed"]), f"max_dev={c['max_deviation']:.3e}"] for c in checks]
    ran = sorted(c["name"] for c in checks)
    ops.append(["all 19 checks ran once", ran == names and len(names) == 19, f"{len(ran)} checks"])
    return {"steps": len(checks), "ops": ops, "digests": {}}


def _hook_runner(clock: Clock, lap_steps: bool) -> None:
    """Mark set-up's end when the runner first asks for a stepper.

    ``bench.run_experiment`` generates the task and then calls
    ``optim.make_stepper``, so that call ends set-up. The hook then removes
    itself. With ``lap_steps`` the returned stepper first closes a clock
    segment on every call, so each loop pass (forward, loss, gradient, eval
    row, then the previous step's update) is one segment.
    """
    original = optim.make_stepper

    def make_stepper(kind):
        optim.make_stepper = original
        clock.mark()
        stepper = original(kind)
        if not lap_steps:
            return stepper
        passes = itertools.count()

        def step(*args):
            clock.lap(f"pass {next(passes)}")
            return stepper(*args)

        return step

    optim.make_stepper = make_stepper


# Workload and the calibration kernel that tracks what bounds it.
WORKLOADS = {
    "desk_sweep": (desk_sweep, "interp"),
    "wide_layer": (wide_layer, "blas"),
    "verify_suite": (verify_suite, "interp"),
}
