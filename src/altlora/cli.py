"""Command-line front end: verification suite, runs, sweeps, reports.

JSON configs in, CSV metric streams out. All file writes are atomic
(write-temp-then-rename), sweep cells are resumable (a cell is complete
exactly when its JSON sidecar exists), and configs are validated strictly
against the fields of bench.ExperimentSpec and optim.TrainConfig: unknown
keys, repeated keys, values of the wrong JSON type and non-finite numbers
are rejected, so typos in sweep files fail loudly.

Exit codes: 0 success, 1 check/run failure, 2 usage/config error,
3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import functools
import itertools
import json
import math
import os
import re
import sys
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from pathlib import Path

from . import __version__, bench, oracle

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

RUN_SCHEMA = "altlora-run/1"

# The CLI's own top-level keys and their types. Every other key is a field of
# bench.ExperimentSpec under its JSON name; a dataclass field is a section.
_CLI_KEYS = {"out": str, "name": str, "grid": dict}
# Grid axis -> the section it overrides (None: the top level).
_GRID_AXES = {"eta": "train", "alpha": None, "order": "train", "optimizer": None}


class ConfigError(Exception):
    """Malformed or invalid configuration input."""


@functools.cache
def _schema(cls) -> dict:
    """JSON key -> declared type of each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {bench.JSON_ALIASES.get(f.name, f.name): hints[f.name] for f in dataclasses.fields(cls)}


def _check_type(value, hint, where: str) -> None:
    # Exact types, so a bool is no int; a float field also takes an int.
    kinds = typing.get_args(hint) or (hint,)
    ok = type(value) in kinds or (float in kinds and type(value) is int)
    if not ok or (type(value) is float and not math.isfinite(value)):
        names = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
        raise ConfigError(f"{where} must be {names}, got {value!r}")


def _check_section(doc: dict, schema: dict, where: str) -> None:
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    for key, value in doc.items():
        hint = schema[key]
        section = dataclasses.is_dataclass(hint)
        _check_type(value, dict if section else hint, f"{where}.{key}")
        if section:
            _check_section(value, _schema(hint), f"{where}.{key}")


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"duplicate key {key!r} in {path}")
            obj[key] = value
        return obj

    try:
        # NaN and Infinity are not JSON: as Decimals they fail every type check
        doc = json.loads(p.read_text(encoding="utf-8"), parse_constant=decimal.Decimal, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(doc).__name__}")
    spec_schema = _schema(bench.ExperimentSpec)
    _check_section(doc, spec_schema | _CLI_KEYS, "config")
    grid = doc.get("grid", {})
    _check_section(grid, dict.fromkeys(_GRID_AXES, list), "config.grid")
    for axis, values in grid.items():
        if not values:
            raise ConfigError(f"config.grid.{axis} must be a nonempty list")
        section = _GRID_AXES[axis]
        hint = (_schema(spec_schema[section]) if section else spec_schema)[axis]
        for i, value in enumerate(values):
            _check_type(value, hint, f"config.grid.{axis}[{i}]")
    return doc


def _construct(cls, doc: dict):
    """A dataclass field is built from its section even when that is absent,
    so a config without "train" reports the missing required eta."""
    schema = _schema(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = bench.JSON_ALIASES.get(f.name, f.name)
        if dataclasses.is_dataclass(schema[key]):
            kwargs[f.name] = _construct(schema[key], doc.get(key, {}))
        elif key in doc:
            kwargs[f.name] = doc[key]
    return cls(**kwargs)


def build_spec(doc: dict, seed_override: int | None = None) -> bench.ExperimentSpec:
    if seed_override is not None:
        doc = {**doc, "seed": seed_override}
    try:
        return _construct(bench.ExperimentSpec, doc)
    except (TypeError, ValueError, bench.InvalidSpec) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def resolve_out_dir(flag_value: str | None, doc: dict | None = None) -> Path:
    """The flag, else the config's "out", else $ALTLORA_OUT, else ./runs.

    Checked before any run starts, and nothing is created: the nearest
    existing path on the way must be a directory."""
    out = Path(flag_value or (doc or {}).get("out") or os.environ.get("ALTLORA_OUT") or Path.cwd() / "runs")
    existing = next(p for p in (out, *out.parents) if os.path.lexists(p))  # a dangling link blocks too
    if not existing.is_dir():
        raise ConfigError(f"output directory {out}: {existing} is not a directory")
    return out


def atomic_write_text(path: Path, text: str) -> None:
    """Write text to path by way of a temporary file; an OSError becomes a ConfigError, exit 2."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:  # no temporary file outlives a failed write
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _run_name(name: str) -> str:
    """name, if its run files sit in the output directory itself, neither is report's summary.csv,
    and the longest temporary file atomic_write_text makes for them, .{name}.json.{pid}.tmp with a
    pid of up to 7 digits, fits the 255-byte file-name limit."""
    if Path(name).name != name or name in ("..", "summary") or "\0" in name:
        raise ConfigError(f"run name {name!r} must be a plain file name other than 'summary'")
    if len(name.encode("utf-8", "surrogatepass")) > 255 - len("..json.9999999.tmp"):
        raise ConfigError(f"run name {name!r} is longer than 237 bytes, too long for its temporary files")
    return name


def _sidecar(spec: bench.ExperimentSpec, record: bench.RunRecord) -> dict:
    return {
        "schema": RUN_SCHEMA,
        "spec": spec.to_dict(),
        "steps_to_threshold": record.steps_to_threshold,
        "diverged": record.diverged,
        "final_loss": None if math.isnan(record.final_loss) else record.final_loss,
        "build_id": f"altlora-{__version__}",
    }


def _write_run(out_dir: Path, name: str, spec: bench.ExperimentSpec, record: bench.RunRecord) -> None:
    # CSV first, sidecar last: the sidecar is the completion marker
    atomic_write_text(out_dir / f"{name}.csv", record.to_csv())
    atomic_write_text(out_dir / f"{name}.json", json.dumps(_sidecar(spec, record), indent=2) + "\n")


def execute_run(spec: bench.ExperimentSpec, out_dir: Path, name: str) -> tuple[bool, str]:
    """Run one experiment and persist it; returns (ok, message)."""
    record = bench.run_experiment(spec)
    _write_run(out_dir, name, spec, record)
    if record.diverged:
        return False, f"{name}: diverged ({record.failure})"
    return True, f"{name}: steps_to_threshold={record.steps_to_threshold}"


def _sweep_worker(payload):
    """One sweep cell. One that raises fails alone and writes no sidecar, so a resume retries it."""
    spec, out_dir, name = payload
    try:
        return execute_run(spec, Path(out_dir), name)
    except Exception as exc:
        traceback.print_exc()
        return False, f"{name}: error ({type(exc).__name__}: {exc})"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_verify(args) -> int:
    names = oracle.select_checks(args.filter)
    if not names:
        print(f"no checks selected by filter {args.filter!r}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = resolve_out_dir(args.out)
    report = oracle.run_checks(args.filter, seed=args.seed)
    atomic_write_text(out_dir / "check_report.json", json.dumps(report, indent=2) + "\n")
    width = max(len(c["name"]) for c in report["checks"])
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{c['name']:<{width}}  n={c['instances']:<4d} max_dev={c['max_deviation']:.3e}  {status}")
    print(f"report: {out_dir / 'check_report.json'}")
    if report["passed"]:
        print(f"all {len(report['checks'])} checks passed")
        return EXIT_OK
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return EXIT_FAILURE


def cmd_train(args) -> int:
    doc = load_config(args.config)
    if "grid" in doc:
        raise ConfigError("config has a 'grid' section; use the sweep command")
    spec = build_spec(doc, seed_override=args.seed)
    out_dir = resolve_out_dir(args.out, doc)
    name = _run_name(doc.get("name") or Path(args.config).stem)
    ok, message = execute_run(spec, out_dir, name)
    print(message)
    return EXIT_OK if ok else EXIT_FAILURE


def _grid_cells(doc: dict):
    grid = doc.get("grid", {})
    axes = [axis for axis in _GRID_AXES if axis in grid]
    for values in itertools.product(*(grid[axis] for axis in axes)):
        yield dict(zip(axes, values))


def _cell_name(base: str, overrides: dict) -> str:
    parts = [base]
    for axis, value in overrides.items():
        parts.append(f"{axis}-{value:g}" if isinstance(value, (int, float)) else f"{axis}-{value}")
    return "__".join(parts)


def _cell_spec(doc: dict, overrides: dict, seed_override) -> bench.ExperimentSpec:
    cell_doc = dict(doc)
    for axis, value in overrides.items():
        section = _GRID_AXES[axis]
        if section is None:
            cell_doc[axis] = value
        else:
            cell_doc[section] = {**cell_doc.get(section, {}), axis: value}
    return build_spec(cell_doc, seed_override=seed_override)


def cmd_sweep(args) -> int:
    doc = load_config(args.config)
    if "grid" not in doc:
        raise ConfigError("sweep config needs a 'grid' section")
    out_dir = resolve_out_dir(args.out, doc)
    base = doc.get("name") or Path(args.config).stem
    cells = {}
    for overrides in _grid_cells(doc):
        name = _run_name(_cell_name(base, overrides))
        if name in cells:
            raise ConfigError(f"grid cells {cells[name]} and {overrides} share the name {name!r}")
        cells[name] = overrides
    pending = []
    skipped = 0
    for name, overrides in cells.items():
        if (out_dir / f"{name}.json").exists():
            skipped += 1
            continue
        pending.append((_cell_spec(doc, overrides, args.seed), str(out_dir), name))
    # a killed sweep leaves its temporary files under its own pid, which no later write replaces
    for stale in out_dir.glob(".*.tmp"):
        match = re.fullmatch(r"\.(.+)\.(?:csv|json)\.\d+\.tmp", stale.name, re.DOTALL)
        if match and match[1] in cells and not (out_dir / f"{match[1]}.json").exists():
            stale.unlink()
    if skipped:
        print(f"resuming: {skipped} completed cell(s) skipped")
    failures = done = 0
    # ProcessPoolExecutor starts all its workers at once, so no more than there are cells and CPUs
    workers = min(args.threads, len(pending), os.cpu_count() or 1)
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        try:
            for ok, message in (pool.map if pool else map)(_sweep_worker, pending):
                print(message)
                failures += 0 if ok else 1
                done += 1
        except BrokenProcessPool as exc:  # a worker died: the cells it leaves without a sidecar fail
            lost = [name for _, _, name in pending[done:] if not (out_dir / f"{name}.json").exists()]
            for name in lost:
                print(f"{name}: failed, a worker process died ({exc})", file=sys.stderr)
            failures += len(lost)
    print(f"sweep: {len(pending)} run, {skipped} skipped, {failures} failed")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def _load_runs(directory: Path):
    offenders = []
    incomplete = []  # run CSVs with no sidecar yet
    runs = []
    for csv_path in sorted(directory.glob("*.csv")):
        if csv_path.name == "summary.csv":
            continue
        try:  # parsed only to reject a malformed CSV; report reads the sidecar
            bench.RunRecord.parse_csv(csv_path.read_text(encoding="utf-8"))
        except (ValueError, OSError):  # OSError: e.g. a directory named x.csv
            offenders.append(csv_path.name)
            continue
        sidecar_path = csv_path.with_suffix(".json")
        if not sidecar_path.exists():
            incomplete.append(csv_path.name)
            continue
        try:
            meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
            # report reads the outcome and a spec, which must pass the config schema and rebuild to itself
            _check_section({"spec": meta["spec"]}, {"spec": bench.ExperimentSpec}, "sidecar")
            ok = meta["schema"] == RUN_SCHEMA and meta.keys() >= {"steps_to_threshold", "final_loss", "diverged"}
            # the outcome as the runner writes it: a diverged run may record an infinite loss
            loss = meta["final_loss"]
            ok = ok and type(meta["steps_to_threshold"]) is int and type(meta["diverged"]) is bool
            ok = ok and (loss is None or (type(loss) in (int, float) and not math.isnan(loss)))
            ok = ok and build_spec(meta["spec"]).to_dict() == meta["spec"]
        except (ValueError, LookupError, TypeError, ConfigError, OSError):  # TypeError: not a JSON object
            ok = False
        if not ok:
            offenders.append(sidecar_path.name)
            continue
        runs.append((csv_path.stem, meta))
    return runs, offenders, incomplete


def _best_cell_key(cell: tuple) -> tuple:
    """Rank a (name, meta) run cell: fewest steps to threshold first, then, among cells that never
    reached it, the lowest final loss."""
    stt, loss = cell[1]["steps_to_threshold"], cell[1]["final_loss"]
    return (0, stt) if stt >= 0 else (1, loss if loss is not None else math.inf)


def cmd_report(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    runs, offenders, incomplete = _load_runs(directory)
    if incomplete:  # what a killed sweep leaves; a resume finishes them, so no error
        print("incomplete run(s) (no sidecar), skipped: " + ", ".join(incomplete), file=sys.stderr)
    if offenders:
        print("malformed, unreadable or schema-mismatched run file(s): " + ", ".join(offenders), file=sys.stderr)
        return EXIT_CONFIG
    if not runs:
        print(f"no runs in {directory}")
        return EXIT_OK

    header = "name,optimizer,task,kappa,eta,alpha,order,seed,steps_to_threshold,final_loss,diverged"
    lines = [header]
    for name, meta in runs:
        spec = meta["spec"]
        alpha = spec["alpha"] if spec["alpha"] is not None else spec["r"]
        values = (name, spec["optimizer"], spec["task"], spec["kappa"], spec["train"]["eta"], alpha,
                  spec["train"]["order"], spec["seed"], meta["steps_to_threshold"], meta["final_loss"],
                  meta["diverged"])
        lines.append(",".join(map(str, values)))
    atomic_write_text(directory / "summary.csv", "\n".join(lines) + "\n")

    by_opt: dict = {}
    for name, meta in runs:
        by_opt.setdefault(meta["spec"]["optimizer"], []).append((name, meta))
    print(f"{len(runs)} run(s); summary written to {directory / 'summary.csv'}")
    print("best cell per optimizer:")
    for opt_name, cells in sorted(by_opt.items()):
        best = min(cells, key=_best_cell_key)
        print(
            f"  {opt_name:<16} {best[0]}  steps_to_threshold={best[1]['steps_to_threshold']}"
            f"  final_loss={best[1]['final_loss']}"
        )

    kappas = sorted({meta["spec"]["kappa"] for _, meta in runs})
    if len(kappas) > 1:
        print("steps_to_threshold vs kappa:")
        print("  " + " ".join(f"{'kappa=' + str(k):>12}" for k in kappas))
        for opt_name, cells in sorted(by_opt.items()):
            per_kappa = []
            for kappa in kappas:
                at_kappa = [cell for cell in cells if cell[1]["spec"]["kappa"] == kappa]
                per_kappa.append(min(at_kappa, key=_best_cell_key)[1]["steps_to_threshold"] if at_kappa else None)
            print(
                f"  {opt_name:<16}"
                + " ".join(f"{v if v is not None else '-':>12}" for v in per_kappa)
            )
            positives = [v for v in per_kappa if v is not None and v > 0]
            if len(positives) == len(kappas) and len(positives) > 1:
                ratio = max(positives) / min(positives)
                monotone = all(a <= b for a, b in zip(positives, positives[1:]))
                print(f"    ratio max/min = {ratio:.2f}, monotone in kappa: {'yes' if monotone else 'no'}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return int(text)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="altlora", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the invariant/oracle check suite")
    p_verify.add_argument("--filter", default=None, help="glob over check names")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=oracle.DEFAULT_CHECK_SEED)
    p_verify.add_argument("--out", default=None, help="output directory (default $ALTLORA_OUT)")
    p_verify.set_defaults(func=cmd_verify)

    p_train = sub.add_parser("train", help="run one experiment from a JSON config")
    p_train.add_argument("config")
    p_train.add_argument("--seed", type=_int_at_least(0), default=None, help="override the config seed")
    p_train.add_argument("--out", default=None)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run a grid of experiments (resumable)")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--seed", type=_int_at_least(0), default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--threads", type=_int_at_least(1), default=1, help="parallel sweep cells")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="aggregate a directory of runs")
    p_report.add_argument("directory")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:  # pragma: no cover - internal failure path
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
