"""Print the desk-scale pass and step time of each of the six optimizers, in µs.

    PYTHONPATH=src python tests/step_times.py [--processes P] [--repeats N] [--steps K]

The desk shape is the lowrank task at 32x32, r = 4, m = 128 (spec seed 1,
kappa 1), trained with eta 0.02 and beta1 0.9, where all six converge. Each
of P fresh processes, run one after another at OPENBLAS_NUM_THREADS=1, trains
every optimizer N times for K steps from the same start, timing each
training_pass and each step. A process keeps, per optimizer, its best of
the N mean pass and mean step times; the table prints the median of those
over the P processes:

    optimizer       pass_us  step_us

A time is a reading of this machine, not a gate: the script exits 0 when
every child ran, 1 when one failed (a numpy floating-point warning fails
it), and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import altlora
from altlora import bench, optim
from altlora.adapter import ToyModel, training_pass

SPEC = bench.ExperimentSpec(task="lowrank", k=32, d=32, r=4, teacher_rank=4, kappa=1.0, seed=1)
CFG = optim.TrainConfig(eta=0.02, beta1=0.9)


def best_times(kind: str, repeats: int, steps: int) -> tuple[float, float]:
    """(pass, step): each the best over repeats of the mean over steps, in seconds."""
    task = bench.generate_task(SPEC)
    stepper = optim.make_stepper(kind)
    best_pass = best_step = float("inf")
    for _ in range(repeats):
        model = ToyModel(task.model.layer.copy())
        layer, state = model.layer, optim.make_state(kind, model.layer)
        pass_s = step_s = 0.0
        for _ in range(steps):
            t0 = time.perf_counter()
            _, g = training_pass(model, task.x, task.target)
            t1 = time.perf_counter()
            stepper(layer, state, g, CFG)
            t2 = time.perf_counter()
            pass_s += t1 - t0
            step_s += t2 - t1
        best_pass, best_step = min(best_pass, pass_s / steps), min(best_step, step_s / steps)
    return best_pass, best_step


def child(repeats: int, steps: int) -> None:
    """One process's reading: {optimizer: [pass_s, step_s]} as one JSON line."""
    print(json.dumps({kind: best_times(kind, repeats, steps) for kind in optim.OPTIMIZERS}))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="step_times.py", description="desk pass and step times per optimizer")
    parser.add_argument("--processes", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)  # parse_args and parser.error exit 2
    if min(args.processes, args.repeats, args.steps) < 1:
        parser.error("--processes, --repeats and --steps must be positive")
    if args.child:
        child(args.repeats, args.steps)
        return 0
    src = str(Path(altlora.__file__).resolve().parents[1])  # the children import this very package
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    command = [sys.executable, "-W", "error::RuntimeWarning", __file__, "--child",
               "--repeats", str(args.repeats), "--steps", str(args.steps)]
    readings = []
    for _ in range(args.processes):
        done = subprocess.run(command, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        readings.append(json.loads(done.stdout))
    print(f"{'optimizer':<16}{'pass_us':>9}{'step_us':>9}")
    for kind in optim.OPTIMIZERS:
        pass_us, step_us = (1e6 * statistics.median(r[kind][i] for r in readings) for i in (0, 1))
        print(f"{kind:<16}{pass_us:>9.1f}{step_us:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
