"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                --workdir DIR --result FILE

MODE is ``plain`` (timed, nothing wrapped), ``setup`` (stop at the end of
set-up), ``trace`` (spans, see tracer.py) or ``alloc`` (tracemalloc peaks).
The result file gets the absolute ``time.monotonic`` stamp of the end of
set-up, so the parent, which stamped the spawn with the same system-wide
clock (CLOCK_MONOTONIC), can compute set-up from process start; the
calibration scale taken right after set-up; and the measured and reference
duration of every timed operation.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


class SetupDone(BaseException):
    """Raised at the end of set-up in ``setup`` mode (passes the CLI's handlers)."""


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "setup", "trace", "alloc"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="where the trace mode writes its spans")
    args = parser.parse_args()

    def stop_at_setup():
        raise SetupDone

    run, kernel = workloads.WORKLOADS[args.workload]
    # Trace runs compare traced with plain time of the same code path, so
    # neither calibrates.
    calibrated = args.mode in ("plain", "setup")
    clock = workloads.Clock(kernel if calibrated else None, stop_at_setup if args.mode == "setup" else None)

    tracer = None
    if args.mode in ("trace", "alloc"):
        import tracemalloc

        import tracer as tracing

        if args.mode == "alloc":
            tracemalloc.start()
            tracer = tracing.AllocTracer()
        else:
            tracer = tracing.SpanTracer()
        tracer.install()

    out = {}
    try:
        out.update(run(args.seed, Path(args.workdir), clock))
    except SetupDone:
        pass
    out["env"] = environment()
    out["t_setup_end"] = clock.setup_end
    out["setup_scale"] = clock.setup_scale
    out["timings"] = clock.timings
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summarize()
        if args.spans:
            tracer.save(args.spans)
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
