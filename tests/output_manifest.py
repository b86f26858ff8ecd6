"""Build the canonical output set into DIR and print its sha256 manifest,
or print the drift report of one built tree against another.

    PYTHONPATH=src python tests/output_manifest.py DIR
    PYTHONPATH=src python tests/output_manifest.py --against BASE DIR

DIR must not exist yet. The set is every output a change that claims to
keep every bit must leave as it was:

- the desk sweeps of perfbench's desk_configs(3) and their summary.csv;
- wide_spec(3) and wide_spec(11) under every optimizer and both phase
  orders: each run's CSV text, plus the message of a run that diverges;
- check_report.json of `altlora verify` at seeds 1789, 0, 7 and 42;
- the train configs of TRAIN_CONFIGS and their summary.csv.

stdout is the sorted ``sha256  name`` manifest of every file under DIR,
names relative to DIR; what the commands print goes to stderr. Two builds
of one checkout, each in its own process, must print the same manifest,
and so must the builds of two checkouts that claim the same bits. The
script exits 1 when a sweep, train, report or verify command exits
non-zero, or when the train report does not hold a row per config.

--against compares two built trees, BASE and DIR, for a change that moves
bits on purpose, and prints what moved: the files found in only one tree;
for each CSV that differs, its change in row count and the largest relative
deviation of each column (rows matched by their first entry, the step or the
run name); for each JSON file that differs, the top-level keys that changed;
and whether any steps_to_threshold or diverged moved, in a sidecar or in a
summary.csv. It is a report: it exits 0 when both trees can be read, and 2
on a usage error.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from altlora import bench, cli, optim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WIDE_SEEDS = (3, 11)
VERIFY_SEEDS = (1789, 0, 7, 42)

LOWRANK = {
    "task": "lowrank", "k": 32, "d": 32, "r": 4, "teacher_rank": 4, "kappa": 10.0,
    "optimizer": "altlora", "seed": 1, "eval_every": 10,
    "train": {"eta": 0.3, "beta1": 0.0, "lambda": 1e-6, "order": "b_first", "steps": 500},
}


def _with(base: dict, train: dict | None = None, **changes) -> dict:
    """base with the top-level changes and the changes to its train section."""
    return {**base, **changes, "train": {**base["train"], **(train or {})}}


RELU = _with({k: v for k, v in LOWRANK.items() if k != "k"}, task="two_layer_relu", width=128, alpha=2.0)
# k m = 192 x 768 residual entries, past one 2^16-entry chunk of the loss's sum of squares.
CHUNKED = _with(LOWRANK, k=192, d=192, alpha=2.5)
MOMENTUM_A_FIRST = {"beta1": 0.9, "order": "a_first"}

# name -> config; each comment says what the config puts in the set.
TRAIN_CONFIGS = {
    "config": LOWRANK,  # the base run: AltLoRA, no momentum, s = 1
    "momentum": _with(LOWRANK, {"beta1": 0.9}),  # the moment realignment
    # the carried Gram inverse on the adaptive path, from an A-phase start
    "adaptive": _with(LOWRANK, MOMENTUM_A_FIRST, optimizer="altlora_plus"),
    "relu": RELU,  # the backward through W2 and the scaled path, s = 0.5
    # the ReLU pass's A X from the memo after every B-phase, with the carried Gram inverse
    "relu_momentum": _with(RELU, MOMENTUM_A_FIRST),
    "chunked": CHUNKED,  # the compressed pass: its QR loss, rank-r' gradient and QR eval rows, s = 0.625
    # the carried Gram inverse and both factor kernels on the rank-r' gradient
    "chunked_momentum": _with(CHUNKED, MOMENTUM_A_FIRST),
    # the compressed pass under a joint baseline, which never reuses the A-side products
    "chunked_joint": _with(CHUNKED, optimizer="scaledgd_joint"),
    # lora_grad_b's A v from the memo's A X on every pass, below the compressed cut
    "joint": _with(LOWRANK, {"beta1": 0.9}, optimizer="lora_adam"),
    # LoRA+, the one optimizer with no other config; it diverges at eta 0.3 and 0.05
    "lora_plus": _with(LOWRANK, {"eta": 0.02}, optimizer="lora_plus"),
    # an odd W0 (97 x 97) and a Gaussian draw that ends mid-chunk past its first 2^14 pairs
    "odd": _with(LOWRANK, k=97, d=97),
}


class BuildFailed(Exception):
    """A command of the build exited non-zero, or a report lacks rows."""


def _altlora(*argv) -> None:
    """cli.main(argv), its stdout sent to stderr; raises BuildFailed on a non-zero exit."""
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main([str(a) for a in argv])
    if code != cli.EXIT_OK:
        raise BuildFailed(f"altlora {' '.join(map(str, argv))} exited {code}")


def _write_configs(directory: Path, docs: dict) -> list[Path]:
    directory.mkdir(parents=True)
    paths = []
    for name, doc in docs.items():
        paths.append(directory / f"{name}.json")
        paths[-1].write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return paths


def train_runs(out: Path, names=tuple(TRAIN_CONFIGS)) -> None:
    """Train each named config into out/runs and report; the report must hold a row per config."""
    paths = _write_configs(out / "configs", {name: TRAIN_CONFIGS[name] for name in names})
    for path in paths:
        _altlora("train", path, "--out", out / "runs")
    _altlora("report", out / "runs")
    rows = (out / "runs" / "summary.csv").read_text(encoding="utf-8").count("\n") - 1
    if rows != len(names):
        raise BuildFailed(f"{out / 'runs' / 'summary.csv'} holds {rows} rows, not {len(names)}")


def _workloads():
    """perfbench/workloads.py, the source of the desk and wide configs, imported on first use."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    return workloads


def desk_sweeps(out: Path) -> None:
    paths = _write_configs(out / "configs", {doc["name"]: doc for _, doc in _workloads().desk_configs(3)})
    for path in paths:
        _altlora("sweep", path, "--out", out / "runs", "--threads", 1)
    _altlora("report", out / "runs")


def wide_runs(out: Path) -> None:
    out.mkdir(parents=True)
    for seed in WIDE_SEEDS:
        spec = _workloads().wide_spec(seed)
        for optimizer in optim.OPTIMIZERS:
            for order in (optim.A_FIRST, optim.B_FIRST):
                name = f"seed{seed}_{optimizer}_{order}"
                run = replace(spec, optimizer=optimizer, train=replace(spec.train, order=order))
                try:
                    record = bench.run_experiment(run)
                except bench.DivergenceDetected as exc:
                    record = exc.record
                    (out / f"{name}.diverged").write_text(f"{exc}\n", encoding="utf-8")
                (out / f"{name}.csv").write_text(record.to_csv(), encoding="utf-8")


def build(out: Path) -> None:
    """The canonical set, into out (which must not exist yet)."""
    out.mkdir(parents=True)
    desk_sweeps(out / "desk")
    wide_runs(out / "wide")
    for seed in VERIFY_SEEDS:
        _altlora("verify", "--seed", seed, "--out", out / f"verify_seed{seed}")
    train_runs(out / "train")


def _files(directory: Path) -> set[str]:
    """The names, relative to directory, of every file under it."""
    return {p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file()}


def manifest(directory: Path) -> list[str]:
    """Sorted ``sha256  name`` lines of every file under directory."""
    return [f"{hashlib.sha256((directory / name).read_bytes()).hexdigest()}  {name}"
            for name in sorted(_files(directory))]


OUTCOME_KEYS = {"steps_to_threshold", "diverged"}


def _relative(base: str, head: str) -> float:
    """|head - base| / |base| of two entries; 0 for equal ones, inf for a non-number or a zero base."""
    if base == head:
        return 0.0
    try:
        x, y = float(base), float(head)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    deviation = abs(y - x) / abs(x) if x else math.inf
    return math.inf if math.isnan(deviation) else deviation


def _csv_drift(base: str, head: str) -> tuple[list[str], set[str]]:
    """The report lines of two CSV texts and the names of the columns that moved."""
    (header, *rows), (head_header, *head_rows) = ([line.split(",") for line in text.splitlines()] or [[]]
                                                  for text in (base, head))
    if header != head_header:
        return [f"  header {','.join(header)} -> {','.join(head_header)}"], set(header) | set(head_header)
    lines = [f"  rows {len(rows)} -> {len(head_rows)}"] if len(rows) != len(head_rows) else []
    deviations: dict = {}
    head_by_key = {row[0]: row for row in head_rows}
    for row in rows:
        for i, pair in enumerate(itertools.zip_longest(row, head_by_key.get(row[0], row), fillvalue="")):
            deviations[i] = max(deviations.get(i, 0.0), _relative(*pair))
    moved = {header[i] if i < len(header) else f"column {i + 1}": dev for i, dev in deviations.items() if dev}
    lines += [f"  {column}: max relative deviation {dev:.3g}" for column, dev in moved.items()]
    return lines, set(moved)


def _json_drift(base: str, head: str) -> tuple[list[str], set[str]]:
    """The report line of two JSON texts and the top-level keys that changed."""
    base_doc, head_doc = json.loads(base), json.loads(head)
    if not (isinstance(base_doc, dict) and isinstance(head_doc, dict)):
        return [], set()
    changed = {key for key in base_doc.keys() | head_doc.keys()
               if key not in base_doc or key not in head_doc or json.dumps(base_doc[key]) != json.dumps(head_doc[key])}
    return [f"  keys: {', '.join(sorted(changed))}"], changed


def drift(base: Path, head: Path) -> list[str]:
    """The lines of the drift report of the tree head against the tree base."""
    base_files, head_files = _files(base), _files(head)
    common = sorted(base_files & head_files)
    lines = [f"{len(base_files)} files in {base}, {len(head_files)} in {head}"]
    lines += [f"only in {base}: {name}" for name in sorted(base_files - head_files)]
    lines += [f"only in {head}: {name}" for name in sorted(head_files - base_files)]
    identical, moved = 0, []
    for name in common:
        texts = [(tree / name).read_bytes() for tree in (base, head)]
        if texts[0] == texts[1]:
            identical += 1
            continue
        lines.append(f"differs: {name}")
        compare = {".csv": _csv_drift, ".json": _json_drift}.get(Path(name).suffix)
        try:
            detail, keys = compare(*(text.decode("utf-8") for text in texts)) if compare else ([], set())
        except ValueError as exc:  # not UTF-8, or not JSON
            detail, keys = [f"  not comparable: {exc}"], set()
        lines += detail
        if keys & OUTCOME_KEYS:
            moved.append(name)
    lines.append(f"{identical} of {len(common)} common files byte-identical")
    lines.append("steps_to_threshold and diverged: " + (f"moved in {', '.join(moved)}" if moved else "none moved"))
    return lines


USAGE = "usage: output_manifest.py DIR | output_manifest.py --against BASE DIR"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--against"]:
        trees = [Path(arg) for arg in argv[1:]]
        if len(trees) != 2 or not all(tree.is_dir() for tree in trees):
            print(f"{USAGE}\n--against takes two directories, got {argv[1:]}", file=sys.stderr)
            return 2
        print("\n".join(drift(*trees)))
        return 0
    if len(argv) != 1:
        print(USAGE, file=sys.stderr)
        return 2
    out = Path(argv[0])
    try:
        build(out)
    except (BuildFailed, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(manifest(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
