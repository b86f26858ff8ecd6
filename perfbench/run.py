"""altlora benchmark: desk_sweep, wide_layer and verify_suite.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/altlora`` and
``BENCHMARK.json`` beside ``perfbench/``). Each repetition of a workload
runs in a fresh worker process (worker.py), one at a time, with the BLAS
pinned to one thread before numpy loads, so processes x BLAS threads stays
within ``nproc``.

``--trace 0`` repeats the workload until ``--seconds`` have passed (and at
least MIN_REPS times). Times are in reference seconds: each operation's
measured time scaled by a calibration kernel timed around it (calib.py),
which takes out the drift in machine speed a shared host shows. ``wall_s``
is the sum, over the workload's operations (sweep cells and the report, the
training run, the checks), of each operation's median across the
repetitions. ``setup_s`` and ``peak_rss_mb`` are medians over the
processes. The measured (unscaled) times are printed beside them.
``--trace 1`` makes one plain repetition, one traced repetition and one
tracemalloc repetition, and reports the per-layer metrics plus the tracing
overhead (traced wall_s minus plain wall_s).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_REPS = 3  # a per-operation median needs three; C12 compares repeats
SETUP_SAMPLES = 7
BUDGET_S = 170.0
BLAS_THREADS = 1
WORKLOADS = ("desk_sweep", "wide_layer", "verify_suite")


class ChildFailed(Exception):
    """A worker process exited abnormally or wrote no result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = child_env()
        self.count = 0

    def child(self, mode: str) -> dict:
        """Run one worker; returns its result with the set-up and wall times."""
        self.count += 1
        tag = f"{self.workload}-seed{self.seed}-{os.getpid()}-{self.count}"
        workdir = OUT / tag
        result = OUT / f"{tag}.result.json"
        log = OUT / f"{tag}.log"
        workdir.mkdir(parents=True)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--workdir", str(workdir), "--result", str(result),
        ]
        if mode == "trace":
            cmd += ["--spans", str(OUT / f"spans-{self.workload}-seed{self.seed}.npz")]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            with open(log, "w", encoding="utf-8") as fh:
                t_spawn = time.monotonic()
                proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                      cwd=ROOT, timeout=timeout)
            if proc.returncode != 0 or not result.is_file():
                tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
                raise ChildFailed(f"{mode} worker exited {proc.returncode}:\n{tail}")
            out = json.loads(result.read_text(encoding="utf-8"))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} worker ran past the {timeout:.0f} s budget") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            result.unlink(missing_ok=True)
            log.unlink(missing_ok=True)
        if out["t_setup_end"] is None:
            raise ChildFailed(f"{mode} worker never reached its first step or check")
        out["measured_setup_s"] = out["t_setup_end"] - t_spawn
        out["setup_s"] = out["measured_setup_s"] * out["setup_scale"]
        out["measured_wall_s"] = sum(measured for _, measured, _ in out["timings"])
        out["wall_s"] = sum(reference for _, _, reference in out["timings"])
        return out


def c12_ops(reps: list[dict]) -> list:
    """Every output file must be byte-identical to the first repetition's."""
    ops = []
    first = reps[0].get("digests", {})
    for i, rep in enumerate(reps[1:], start=2):
        for name, digest in first.items():
            ok = rep.get("digests", {}).get(name) == digest
            ops.append([f"C12 {name} repeat {i} byte-identical", ok, ""])
    return ops


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    config_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "altlora").is_dir() or not config_path.is_file():
        print(f"error: run from a source checkout; no src/altlora or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text(encoding="utf-8"))
    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, start + BUDGET_S)

    try:
        if args.trace:
            reps = [runner.child(mode) for mode in ("plain", "trace", "alloc")]
            plain, traced, alloc = reps
            values = {**traced["layers"], **alloc["layers"]}
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        else:
            reps = []
            while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
                reps.append(runner.child("plain"))
            setup_reps = list(reps)
            while len(setup_reps) < SETUP_SAMPLES:
                setup_reps.append(runner.child("setup"))
            setups = [r["setup_s"] for r in setup_reps]
            per_op: dict[str, list[float]] = {}
            for rep in reps:
                for name, _, reference in rep["timings"]:
                    per_op.setdefault(name, []).append(reference)
            wall = sum(statistics.median(times) for times in per_op.values())
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": wall,
                "steps_per_s": statistics.median(r["steps"] for r in reps) / wall,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            }
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for rep in reps for op in rep["ops"]] + c12_ops(reps)
    failed = [op for op in ops if not op[1]]
    env = {
        **reps[0]["env"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "parent_python": platform.python_version(),
        "git_sha": git_sha(),
    }
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            print(f"error: benchmark computed no value for {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": float(values[name]), "unit": metric["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  repetitions {len(reps)}")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        for key in ("setup_s", "measured_setup_s", "wall_s", "measured_wall_s"):
            samples = [r[key] for r in (setup_reps if "setup" in key else reps)]
            q1, q2, q3 = quartiles(samples)
            print(f"  {key:<17} samples={len(samples)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g} s")
    if args.trace:
        print("FLOP and GFLOP/s figures are computed from matmul shapes (2abc per product), not counted")
    for name, m in metrics.items():
        print(f"{name:<56} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':<56} {len(failed) / len(ops):.6g} ratio ({len(failed)}/{len(ops)})")
    for op in failed:
        print(f"FAILED {op[0]}: {op[2]}")

    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "ops": ops, "repetitions": len(reps),
              "samples": {key: [r.get(key) for r in reps] for key in (
                  "setup_s", "measured_setup_s", "wall_s", "measured_wall_s", "steps", "peak_rss_mb", "timings")}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
