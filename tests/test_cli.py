"""CLI tests: exit codes, atomic outputs, strict configs, sweeps, reports."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from altlora import bench, cli, optim, oracle


def _write_config(path, **overrides):
    doc = {
        "task": "lowrank",
        "k": 8,
        "d": 8,
        "r": 2,
        "teacher_rank": 2,
        "kappa": 1.0,
        "optimizer": "altlora",
        "seed": 3,
        "eval_every": 5,
        "train": {"eta": 0.3, "beta1": 0.0, "lambda": 1e-6, "order": "b_first", "steps": 30},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return doc


def test_train_writes_csv_and_sidecar(tmp_path):
    cfg = tmp_path / "run.json"
    _write_config(cfg)
    out = tmp_path / "out"
    assert cli.main(["train", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    csv_path = out / "run.csv"
    sidecar = out / "run.json"
    assert csv_path.is_file() and sidecar.is_file()
    meta = json.loads(sidecar.read_text())
    assert meta["schema"] == cli.RUN_SCHEMA
    assert meta["steps_to_threshold"] >= 0
    assert meta["spec"]["optimizer"] == "altlora"
    record = bench.RunRecord.parse_csv(csv_path.read_text())
    assert record.rows[0][0] == 0


def test_train_repeat_produces_identical_bytes(tmp_path):
    cfg = tmp_path / "run.json"
    _write_config(cfg)
    out = tmp_path / "out"
    assert cli.main(["train", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    first = (out / "run.csv").read_bytes()
    assert cli.main(["train", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "run.csv").read_bytes() == first


def test_train_malformed_json_exits_2_without_partial_files(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["train", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_train_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "typo.json"
    _write_config(cfg, etaa=0.5)
    assert cli.main(["train", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    cfg2 = tmp_path / "typo2.json"
    doc = _write_config(cfg2)
    doc["train"]["weight_decayy"] = 0.1
    cfg2.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["train", str(cfg2), "--out", str(tmp_path / "o2")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "key, literal",
    [
        ("r", "2.0"),
        ("train.steps", "30.0"),
        ("train.eta", '"0.3"'),
        ("train.bias_correction", '"no"'),
        ("seed", "true"),
        ("kappa", "Infinity"),
        ("train.eta", "NaN"),
        ("kappa", "1e400"),
        ("grid.eta", '["x", 0.3]'),
    ],
)
def test_bad_value_exits_2_naming_the_key(tmp_path, capsys, key, literal):
    cfg = tmp_path / "bad.json"
    doc = _write_config(cfg)
    # spliced in as JSON source text, so NaN and Infinity can be written
    section, _, name = key.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[name] = "@"
    cfg.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")
    command = "sweep" if section == "grid" else "train"
    out = tmp_path / "out"
    assert cli.main([command, str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"config.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, value",
    [("order", "joint"), ("lora_plus_ratio", -1.0), ("lora_plus_ratio", 0.0), ("warmup_ratio", 3.0),
     ("warmup_ratio", -0.5)],
)
def test_out_of_range_train_value_exits_2_naming_the_field(tmp_path, capsys, name, value):
    cfg = tmp_path / "bad.json"
    doc = _write_config(cfg)
    doc["train"][name] = value
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["train", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_train_missing_config_exits_2(tmp_path):
    assert cli.main(["train", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG


def test_train_divergence_exits_1_with_flagged_record(tmp_path):
    cfg = tmp_path / "diverge.json"
    _write_config(
        cfg,
        optimizer="lora_sgd",
        train={"eta": 50.0, "beta1": 0.0, "order": "b_first", "steps": 100},
    )
    out = tmp_path / "out"
    assert cli.main(["train", str(cfg), "--out", str(out)]) == cli.EXIT_FAILURE
    meta = json.loads((out / "diverge.json").read_text())
    assert meta["diverged"] is True


def test_env_var_default_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("ALTLORA_OUT", str(tmp_path / "envout"))
    cfg = tmp_path / "run.json"
    _write_config(cfg)
    assert cli.main(["train", str(cfg)]) == cli.EXIT_OK
    assert (tmp_path / "envout" / "run.csv").is_file()


@pytest.mark.parametrize("command", ["train", "sweep", "verify"])
@pytest.mark.parametrize("out", ["a-file", "under-a-file", "a-dangling-link"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_any_run(tmp_path, capsys, monkeypatch, command, out):
    def no_run(*args, **kwargs):
        raise AssertionError("a run or check started")

    monkeypatch.setattr(bench, "run_experiment", no_run)
    monkeypatch.setattr(oracle, "run_checks", no_run)
    blocker = tmp_path / "blocker"
    if out == "a-dangling-link":
        blocker.symlink_to(tmp_path / "nowhere")
    else:
        blocker.write_text("a file", encoding="utf-8")
    argv = [command]
    if command != "verify":
        cfg = tmp_path / "run.json"
        _write_config(cfg, **({"grid": {"eta": [0.1, 0.2]}} if command == "sweep" else {}))
        argv.append(str(cfg))
    before = sorted(tmp_path.iterdir())
    assert cli.main([*argv, "--out", str(blocker / "x" if out == "under-a-file" else blocker)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{blocker} is not a directory" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before
    assert out == "a-dangling-link" or blocker.read_text(encoding="utf-8") == "a file"


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("name", ["../escaped", "sub/cell", "summary", "summary.json",
                                  pytest.param("x" * 238, id="238-ascii"), pytest.param("é" * 119, id="238-utf8")])
def test_a_run_name_that_escapes_nests_or_is_summary_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                                             command, name):
    # "summary.json" names the config file, whose stem names the run. A run
    # named summary writes report's summary.csv; an empty grid makes one cell
    # named as the config. A name of 238 bytes is too long: its temporary
    # file .<name>.json.<pid>.tmp, with a 7-digit pid, would pass 255 bytes.
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench, "run_experiment", no_run)
    stem = name.endswith(".json")
    cfg = tmp_path / (name if stem else "run.json")
    doc = {} if stem else {"name": name}
    if command == "sweep":
        doc["grid"] = {} if "summary" in name else {"eta": [0.1, 0.2]}
    _write_config(cfg, **doc)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([command, str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"run name '{'summary' if stem else name}" in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("name", ["x" * 237, "é" * 118 + "x"], ids=["237-ascii", "237-utf8"])
def test_a_run_name_of_237_bytes_trains_and_writes_its_files(tmp_path, name):
    cfg = tmp_path / "run.json"
    _write_config(cfg, name=name)
    out = tmp_path / "out"
    assert cli.main(["train", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [f"{name}.csv", f"{name}.json"]


def test_verify_filtered_subset_passes(tmp_path):
    code = cli.main(
        ["verify", "--filter", "projector*", "--out", str(tmp_path), "--seed", "7"]
    )
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == [
        "projector_gauge_invariance",
        "projector_idempotence",
    ]


def test_verify_empty_filter_has_distinct_exit_code(tmp_path):
    assert cli.main(["verify", "--filter", "zzz*", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "check_report.json").exists()


def test_verify_exit_code_tracks_report(tmp_path, monkeypatch):
    """Mutation probe: un-preconditioned scaled gradient must fail verify."""

    def unpreconditioned(grad_a, b, s, lam):
        return grad_a / (s * s)

    monkeypatch.setattr(optim, "scaled_grad_a", unpreconditioned)
    code = cli.main(["verify", "--filter", "lstsq_scaled_grad_a", "--out", str(tmp_path)])
    assert code == cli.EXIT_FAILURE
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["passed"] is False


def test_state_budget_fails_instead_of_raising(tmp_path, monkeypatch, capsys):
    """A k x d optimizer buffer fails the state_budget check; verify exits 1, not 3."""
    make_state = optim.make_state

    def dense(kind, layer):
        state = make_state(kind, layer)
        state.ma = np.zeros((layer.k, layer.d))
        return state

    monkeypatch.setattr(optim, "make_state", dense)
    (check,) = oracle.run_checks("state_budget")["checks"]
    assert check["passed"] is False and check["max_deviation"] == np.inf
    assert "(8, 12)" in check["info"]["error"]
    code = cli.main(["verify", "--filter", "state_budget", "--out", str(tmp_path)])
    assert code == cli.EXIT_FAILURE
    assert "FAILED: state_budget" in capsys.readouterr().err
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["passed"] is False


def test_sweep_single_cell_matches_train(tmp_path):
    train_cfg = tmp_path / "single.json"
    _write_config(train_cfg)
    train_out = tmp_path / "train_out"
    assert cli.main(["train", str(train_cfg), "--out", str(train_out)]) == cli.EXIT_OK

    sweep_cfg = tmp_path / "grid.json"
    _write_config(sweep_cfg, grid={"eta": [0.3]})
    sweep_out = tmp_path / "sweep_out"
    assert cli.main(["sweep", str(sweep_cfg), "--out", str(sweep_out)]) == cli.EXIT_OK
    cells = list(sweep_out.glob("*.csv"))
    assert len(cells) == 1
    assert cells[0].read_bytes() == (train_out / "single.csv").read_bytes()


def test_sweep_grid_produces_cell_per_combination(tmp_path):
    cfg = tmp_path / "grid.json"
    _write_config(
        cfg,
        train={"eta": 0.3, "beta1": 0.0, "order": "b_first", "steps": 5},
        grid={"eta": [0.1, 0.2, 0.3], "alpha": [2, 4, 8]},
    )
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert len(csvs) == 9
    assert "grid__eta-0.1__alpha-2.csv" in csvs
    sidecars = sorted(out.glob("*.json"))
    assert len(sidecars) == 9


def test_sweep_resumes_skipping_completed_cells(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    _write_config(
        cfg,
        train={"eta": 0.3, "beta1": 0.0, "order": "b_first", "steps": 5},
        grid={"eta": [0.1, 0.2], "optimizer": ["altlora", "lora_sgd"]},
    )
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    mtimes = {p.name: p.stat().st_mtime_ns for p in out.glob("*.csv")}
    victim = sorted(out.glob("*.json"))[0]
    victim_stem = victim.stem
    victim.unlink()
    assert cli.main(["sweep", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "3 completed cell(s) skipped" in text
    for p in out.glob("*.csv"):
        if p.stem == victim_stem:
            assert p.stat().st_mtime_ns != mtimes[p.name]
        else:
            assert p.stat().st_mtime_ns == mtimes[p.name]


def test_sweep_parallel_threads(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    _write_config(
        cfg,
        train={"eta": 0.3, "beta1": 0.0, "order": "b_first", "steps": 5},
        grid={"eta": [0.1, 0.2], "alpha": [2, 4]},
    )
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--out", str(out), "--threads", "2"]) == cli.EXIT_OK
    assert len(list(out.glob("*.csv"))) == 4
    # the pool and the inline loop write the same bytes and print the same messages in cell order
    pooled = capsys.readouterr().out
    inline = tmp_path / "inline"
    assert cli.main(["sweep", str(cfg), "--out", str(inline), "--threads", "1"]) == cli.EXIT_OK
    assert capsys.readouterr().out == pooled
    assert sorted(p.name for p in inline.iterdir()) == sorted(p.name for p in out.iterdir())
    for path in out.iterdir():
        assert path.read_bytes() == (inline / path.name).read_bytes()


@pytest.mark.parametrize(
    "threads, cpus, cells, done, workers",
    [
        ("100000", 8, 2, 0, 2),  # two cells: two workers, not 100,000
        ("100000", 8, 4, 2, 2),  # four cells, two of them done: two pending
        ("100000", 3, 4, 0, 3),  # as many as the CPUs
        ("2", 8, 4, 0, 2),  # as many as asked for
        ("100000", 1, 4, 0, None),  # one CPU: inline, no pool
        ("100000", None, 4, 0, None),  # CPU count unknown: counts as one
    ],
)
def test_the_sweep_pool_starts_no_more_workers_than_cells_or_cpus(tmp_path, capsys, monkeypatch,
                                                                  threads, cpus, cells, done, workers):
    made = []

    class InlinePool:
        """Records max_workers and maps inline, so that no process starts."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = tmp_path / "grid.json"
    _write_config(cfg, train={"eta": 0.3, "steps": 5}, grid={"eta": [0.1, 0.2, 0.3, 0.4][:cells]})
    out = tmp_path / "out"
    out.mkdir()
    for eta in (0.1, 0.2)[:done]:  # a sidecar marks a cell complete
        (out / f"grid__eta-{eta:g}.json").write_text("{}", encoding="utf-8")
    assert cli.main(["sweep", str(cfg), "--out", str(out), "--threads", threads]) == cli.EXIT_OK
    assert made == ([] if workers is None else [workers])
    assert f"sweep: {cells - done} run, {done} skipped, 0 failed" in capsys.readouterr().out


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the workers must inherit the patch")
def test_a_dead_worker_fails_the_cells_it_leaves_without_a_sidecar(tmp_path, capsys, monkeypatch):
    real = bench.run_experiment

    def dies(spec):
        if spec.train.eta == 0.2:
            os._exit(1)  # in a forked worker only: the pool path is forced below
        return real(spec)

    monkeypatch.setattr(bench, "run_experiment", dies)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers at most, on any machine
    cfg = tmp_path / "grid.json"
    _write_config(cfg, grid={"eta": [0.1, 0.2, 0.3, 0.4]})
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--out", str(out), "--threads", "2"]) == cli.EXIT_FAILURE
    captured = capsys.readouterr()
    names = [f"grid__eta-{eta:g}" for eta in (0.1, 0.2, 0.3, 0.4)]
    lost = [name for name in names if not (out / f"{name}.json").exists()]
    assert "grid__eta-0.2" in lost and "Traceback" not in captured.err
    for name in names:
        assert (f"{name}: failed, a worker process died" in captured.err) == (name in lost)
    assert f"sweep: 4 run, 0 skipped, {len(lost)} failed" in captured.out
    # a resumed sweep reruns exactly the cells left without a sidecar
    monkeypatch.setattr(bench, "run_experiment", real)
    assert cli.main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == cli.EXIT_OK
    assert f"sweep: {len(lost)} run, {4 - len(lost)} skipped, 0 failed" in capsys.readouterr().out


def test_sweep_records_singular_gram_cell_and_runs_the_rest(tmp_path, capsys):
    cfg = tmp_path / "singular.json"
    _write_config(
        cfg,
        init_b="zero",
        train={"eta": 0.3, "beta1": 0.0, "lambda": 0, "steps": 10},
        grid={"order": ["a_first", "b_first"]},
    )
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--out", str(out)]) == cli.EXIT_FAILURE
    text = capsys.readouterr().out
    assert "singular Gram in the update at step 0" in text
    assert "sweep: 2 run, 0 skipped, 1 failed" in text
    for order, failed in (("a_first", True), ("b_first", False)):
        meta = json.loads((out / f"singular__order-{order}.json").read_text())
        assert meta["diverged"] is failed
        assert bench.RunRecord.parse_csv((out / f"singular__order-{order}.csv").read_text()).rows


@pytest.mark.parametrize(
    "grid, clash",
    [
        # distinct values that print alike, and a repeated value
        ({"eta": [0.1, 0.1000001]}, "{'eta': 0.1} and {'eta': 0.1000001} share the name 'clash__eta-0.1'"),
        ({"eta": [0.2, 0.3, 0.2]}, "{'eta': 0.2} and {'eta': 0.2} share the name 'clash__eta-0.2'"),
    ],
)
def test_sweep_cell_name_clash_exits_2_before_running(tmp_path, capsys, grid, clash):
    cfg = tmp_path / "clash.json"
    _write_config(cfg, grid=grid)
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"grid cells {clash}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cell_that_raises_is_a_failed_cell(tmp_path, capsys, monkeypatch):
    real = bench.run_experiment

    def flaky(spec):
        if spec.train.eta == 0.2:
            raise RuntimeError("boom")
        return real(spec)

    monkeypatch.setattr(bench, "run_experiment", flaky)
    cfg = tmp_path / "grid.json"
    _write_config(cfg, grid={"eta": [0.1, 0.2, 0.3]})
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == cli.EXIT_FAILURE
    text = capsys.readouterr().out
    assert "grid__eta-0.2: error (RuntimeError: boom)" in text
    assert "sweep: 3 run, 0 skipped, 1 failed" in text
    assert sorted(p.name for p in out.glob("*.json")) == ["grid__eta-0.1.json", "grid__eta-0.3.json"]
    # the failed cell left no sidecar, so resuming retries exactly that cell
    monkeypatch.setattr(bench, "run_experiment", real)
    assert cli.main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == cli.EXIT_OK
    assert "sweep: 1 run, 2 skipped, 0 failed" in capsys.readouterr().out


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sweep_threads_below_one_is_usage_error(tmp_path, threads):
    cfg = tmp_path / "grid.json"
    _write_config(cfg, grid={"eta": [0.1, 0.2]})
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", str(cfg), "--out", str(tmp_path / "o"), "--threads", threads])
    assert info.value.code == 2
    assert not (tmp_path / "o").exists()


def test_sweep_without_grid_is_config_error(tmp_path):
    cfg = tmp_path / "nogrid.json"
    _write_config(cfg)
    assert cli.main(["sweep", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_report_empty_directory(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_OK
    assert "no runs" in capsys.readouterr().out


def test_report_mixed_schema_lists_offenders(tmp_path, capsys):
    (tmp_path / "weird.csv").write_text("time,value\n0,1\n", encoding="utf-8")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "weird.csv" in capsys.readouterr().err


def test_report_names_a_run_without_a_sidecar(tmp_path, capsys):
    # A killed sweep leaves a CSV whose sidecar was never written; report
    # summarizes the complete runs, names the incomplete one and exits 0.
    _fake_run(tmp_path, "config", "altlora", 1.0, 12)
    (tmp_path / "odd.csv").write_bytes((tmp_path / "config.csv").read_bytes())
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "odd.csv" in captured.err and "config.csv" not in captured.err
    assert "1 run(s)" in captured.out
    assert len((tmp_path / "summary.csv").read_text().splitlines()) == 2


def _fake_run(directory, name, optimizer, kappa, stt, seed=1):
    spec = bench.ExperimentSpec(
        task="lowrank",
        k=8,
        d=8,
        r=2,
        teacher_rank=2,
        kappa=kappa,
        optimizer=optimizer,
        seed=seed,
        train=optim.TrainConfig(eta=0.3, steps=10),
    )
    record = bench.RunRecord(
        rows=[(0, 1.0, 1.0, 1.0, 512, 0), (10, 1e-4, 0.01, 0.001, 512, 100)],
        steps_to_threshold=stt,
        final_loss=1e-4,
    )
    (directory / f"{name}.csv").write_text(record.to_csv(), encoding="utf-8")
    meta = {
        "schema": cli.RUN_SCHEMA,
        "spec": spec.to_dict(),
        "steps_to_threshold": stt,
        "diverged": False,
        "final_loss": 1e-4,
        "build_id": "altlora-test",
    }
    (directory / f"{name}.json").write_text(json.dumps(meta), encoding="utf-8")


def test_report_kappa_matrix_and_ratios(tmp_path, capsys):
    for kappa, stt in ((1.0, 20), (10.0, 25), (100.0, 30)):
        _fake_run(tmp_path, f"alt_k{kappa:g}", "altlora", kappa, stt)
    for kappa, stt in ((1.0, 70), (10.0, 2000), (100.0, 7000)):
        _fake_run(tmp_path, f"sgd_k{kappa:g}", "lora_sgd", kappa, stt)
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert (tmp_path / "summary.csv").is_file()
    assert "steps_to_threshold vs kappa" in out
    assert "ratio max/min = 1.50" in out  # altlora: 30 / 20
    assert "ratio max/min = 100.00" in out  # lora_sgd: 7000 / 70
    assert "monotone in kappa: yes" in out
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("name,optimizer,task,kappa")
    assert len(summary) == 7


def test_report_best_cell_per_optimizer(tmp_path, capsys):
    _fake_run(tmp_path, "fast", "altlora", 1.0, 12)
    _fake_run(tmp_path, "slow", "altlora", 1.0, 90)
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "best cell per optimizer" in out
    assert "fast" in out.split("altlora", 1)[1].splitlines()[0]


def test_cli_entry_point_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["not-a-command"])
    assert info.value.code == 2


def test_train_non_utf8_config_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b"\xff\xfe{\x00}\x00")
    assert cli.main(["train", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "utf16.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config_seed, flags",
    [
        ("train", -1, []),
        ("sweep", -1, []),
        ("train", 3, ["--seed", "-3"]),
        ("sweep", 3, ["--seed", "-3"]),
        ("verify", None, ["--seed", "-1"]),
    ],
)
def test_negative_seed_is_usage_error(tmp_path, capsys, command, config_seed, flags):
    argv = [command]
    if config_seed is not None:
        cfg = tmp_path / "run.json"
        grid = {"grid": {"eta": [0.1, 0.2]}} if command == "sweep" else {}
        _write_config(cfg, seed=config_seed, **grid)
        argv.append(str(cfg))
    argv += ["--out", str(tmp_path / "o"), *flags]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    assert code == cli.EXIT_CONFIG
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sidecar", ['{"schema": ', "[1, 2]"])
def test_report_malformed_sidecar_lists_offender(tmp_path, capsys, sidecar):
    _fake_run(tmp_path, "good", "altlora", 1.0, 12)
    _fake_run(tmp_path, "bad", "altlora", 1.0, 12)
    (tmp_path / "bad.json").write_text(sidecar, encoding="utf-8")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad.json" in err and "good.json" not in err


@pytest.mark.parametrize("victim", ["bad.csv", "bad.json"])
def test_report_names_a_directory_in_place_of_a_run_file(tmp_path, capsys, victim):
    _fake_run(tmp_path, "good", "altlora", 1.0, 12)
    _fake_run(tmp_path, "bad", "altlora", 1.0, 12)
    (tmp_path / victim).unlink()
    (tmp_path / victim).mkdir()
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert victim in err and "good" not in err and "Traceback" not in err


def test_report_that_cannot_write_its_summary_exits_2_and_leaves_no_temporary_file(tmp_path, capsys):
    _fake_run(tmp_path, "good", "altlora", 1.0, 12)
    (tmp_path / "summary.csv").mkdir()  # os.replace cannot put a file in place of a directory
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert str(tmp_path / "summary.csv") in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not list(tmp_path.glob(".summary.csv.*.tmp"))
    assert (tmp_path / "summary.csv").is_dir()


@pytest.mark.parametrize("fail_in", ["write_text", "replace"])
def test_atomic_write_text_removes_its_temporary_file_when_the_write_fails(tmp_path, monkeypatch, fail_in):
    def fail(tmp, *args, **kwargs):  # the temporary file exists when either call fails
        tmp.touch()
        raise OSError(28, "No space left on device")

    if fail_in == "replace":
        monkeypatch.setattr(cli.os, "replace", fail)
    else:
        monkeypatch.setattr(cli.Path, "write_text", fail)
    with pytest.raises(OSError, match="No space left"):
        cli.atomic_write_text(tmp_path / "run.csv", "text\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "drop",
    [("spec",), ("steps_to_threshold",), ("final_loss",), ("spec", "optimizer"), ("spec", "train", "eta")],
    ids=".".join,
)
def test_report_sidecar_missing_a_read_key_lists_offender(tmp_path, capsys, drop):
    _fake_run(tmp_path, "good", "altlora", 1.0, 12)
    _fake_run(tmp_path, "bad", "altlora", 1.0, 12)
    meta = json.loads((tmp_path / "bad.json").read_text())
    section = meta
    for key in drop[:-1]:
        section = section[key]
    del section[drop[-1]]
    (tmp_path / "bad.json").write_text(json.dumps(meta), encoding="utf-8")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad.json" in err and "good.json" not in err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize(
    "sidecar", ['{"schema": "altlora-run/1"}', '{"schema": "altlora-run/1", "spec": [1]}']
)
def test_report_schema_only_sidecar_lists_offender(tmp_path, capsys, sidecar):
    _fake_run(tmp_path, "good", "altlora", 1.0, 12)
    _fake_run(tmp_path, "bad", "altlora", 1.0, 12)
    (tmp_path / "bad.json").write_text(sidecar, encoding="utf-8")
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "bad.json" in capsys.readouterr().err


def test_report_kappa_matrix_skips_cells_that_never_reached(tmp_path, capsys):
    _fake_run(tmp_path, "alt_k1", "altlora", 1.0, 20)
    _fake_run(tmp_path, "alt_k100_reached", "altlora", 100.0, 16)
    _fake_run(tmp_path, "alt_k100_never", "altlora", 100.0, -1)
    _fake_run(tmp_path, "sgd_k1", "lora_sgd", 1.0, 70)
    _fake_run(tmp_path, "sgd_k100_never", "lora_sgd", 100.0, -1)
    assert cli.main(["report", str(tmp_path)]) == cli.EXIT_OK
    matrix = capsys.readouterr().out.split("steps_to_threshold vs kappa:")[1].splitlines()
    assert matrix[2].split() == ["altlora", "20", "16"]
    assert "ratio max/min = 1.25" in matrix[3]
    assert matrix[4].split() == ["lora_sgd", "70", "-1"]  # -1 only when no cell at that kappa reached it
    assert len(matrix) == 5  # and no ratio line for lora_sgd


@pytest.mark.parametrize(
    "key, value, accepted",
    [
        ("steps_to_threshold", "5", False),
        ("steps_to_threshold", True, False),
        ("steps_to_threshold", 5.0, False),
        ("diverged", "false", False),
        ("diverged", 0, False),
        ("final_loss", "1e-4", False),
        ("final_loss", True, False),
        ("final_loss", [1e-4], False),
        ("final_loss", float("nan"), False),
        # a diverged run records an infinite loss; a NaN loss is written as null
        ("final_loss", float("inf"), True),
        ("final_loss", None, True),
        ("final_loss", 0, True),
    ],
)
def test_report_checks_sidecar_outcome_types(tmp_path, capsys, key, value, accepted):
    _fake_run(tmp_path, "good", "altlora", 1.0, 12)
    _fake_run(tmp_path, "bad", "altlora", 1.0, 12)
    meta = json.loads((tmp_path / "bad.json").read_text())
    meta[key] = value
    (tmp_path / "bad.json").write_text(json.dumps(meta), encoding="utf-8")
    code = cli.main(["report", str(tmp_path)])
    err = capsys.readouterr().err
    if accepted:
        assert code == cli.EXIT_OK and (tmp_path / "summary.csv").exists()
    else:
        assert code == cli.EXIT_CONFIG
        assert "bad.json" in err and "good.json" not in err
        assert not (tmp_path / "summary.csv").exists()


class _Killed(BaseException):
    """The process dying mid-write; no handler in the CLI catches it."""


@pytest.mark.parametrize("killed", [".csv", ".json"])  # the CSV, or the sidecar (the completion marker)
def test_sweep_killed_mid_write_resumes_only_that_cell(tmp_path, capsys, monkeypatch, killed):
    cfg = tmp_path / "grid.json"
    train = {"eta": 0.3, "beta1": 0.0, "order": "b_first", "steps": 5}
    _write_config(cfg, train=train, grid={"eta": [0.1, 0.2]})
    out, clean = tmp_path / "out", tmp_path / "clean"
    assert cli.main(["sweep", str(cfg), "--out", str(clean)]) == cli.EXIT_OK
    victim = out / f"grid__eta-0.2{killed}"
    real_replace = os.replace

    def replace(src, dst):
        # the temporary file is written; the kill comes before it takes the real name
        if dst == victim:
            raise _Killed
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace)
    with pytest.raises(_Killed):
        cli.main(["sweep", str(cfg), "--out", str(out), "--threads", "1"])
    monkeypatch.undo()
    # nothing half-written under a real name: the killed cell has no sidecar,
    # and a CSV only if the kill came after it was complete
    assert sorted(p.name for p in out.glob("*.json")) == ["grid__eta-0.1.json"]
    want_csvs = ["grid__eta-0.1.csv"] + (["grid__eta-0.2.csv"] if killed == ".json" else [])
    assert sorted(p.name for p in out.glob("*.csv")) == want_csvs
    for name in want_csvs:
        assert (out / name).read_bytes() == (clean / name).read_bytes()
    capsys.readouterr()
    assert cli.main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == cli.EXIT_OK
    assert "sweep: 1 run, 1 skipped, 0 failed" in capsys.readouterr().out
    for path in clean.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes()
    assert cli.main(["report", str(out)]) == cli.EXIT_OK


def test_sweep_resume_removes_temporary_files_a_killed_sweep_left(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    train = {"eta": 0.3, "beta1": 0.0, "order": "b_first", "steps": 5}
    _write_config(cfg, train=train, grid={"eta": [0.1, 0.2]})
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    # a sweep killed before its renames, under a pid the resumed sweep does not have
    (out / "grid__eta-0.2.json").unlink()
    foreign = os.getpid() + 1
    for ext in ("csv", "json"):
        (out / f".grid__eta-0.2.{ext}.{foreign}.tmp").write_text("half-written", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == cli.EXIT_OK
    assert "sweep: 1 run, 1 skipped, 0 failed" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir() if p.name.endswith(".tmp")) == []
    assert (out / "grid__eta-0.2.json").exists()


def test_sweep_resume_removes_only_the_temporary_files_of_pending_cells(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    train = {"eta": 0.3, "beta1": 0.0, "order": "b_first", "steps": 5}
    _write_config(cfg, train=train, grid={"eta": [0.1, 0.2]})
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    (out / "grid__eta-0.2.json").unlink()
    foreign = os.getpid() + 1
    pending = [f".grid__eta-0.2.{ext}.{foreign}.tmp" for ext in ("csv", "json")]
    # a completed cell's, a name outside the grid, a name the pending one prefixes, and no pid
    kept = [f".grid__eta-0.1.csv.{foreign}.tmp", f".other.json.{foreign}.tmp",
            f".grid__eta-0.25.csv.{foreign}.tmp", ".grid__eta-0.2.csv.tmp"]
    for name in pending + kept:
        (out / name).write_text("half-written", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["sweep", str(cfg), "--out", str(out), "--threads", "1"]) == cli.EXIT_OK
    assert "sweep: 1 run, 1 skipped, 0 failed" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir() if p.name.endswith(".tmp")) == sorted(kept)
