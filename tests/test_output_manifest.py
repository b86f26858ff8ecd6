"""The bit check of tests/output_manifest.py: its manifest is repeatable and sees one ulp,
and its drift report names the file and column, or the check, that moved."""

import json
import shutil

import numpy as np

import output_manifest


def _entries(directory) -> dict:
    """name -> sha256 of the manifest of directory."""
    return {name: digest for digest, name in (line.split("  ") for line in output_manifest.manifest(directory))}


def test_two_builds_of_a_config_give_one_manifest_that_sees_a_one_ulp_change(tmp_path):
    for build in ("first", "second"):
        output_manifest.train_runs(tmp_path / build, names=("config",))
    first = _entries(tmp_path / "first")
    assert first == _entries(tmp_path / "second")
    assert {"configs/config.json", "runs/config.csv", "runs/config.json", "runs/summary.csv"} <= set(first)

    csv = tmp_path / "second" / "runs" / "config.csv"
    lines = csv.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[1] = repr(float(np.nextafter(float(cells[1]), np.inf)))  # the loss, one ulp up
    lines[2] = ",".join(cells)
    csv.write_text("".join(lines), encoding="utf-8")
    second = _entries(tmp_path / "second")
    assert second.keys() == first.keys()
    assert [name for name in first if first[name] != second[name]] == ["runs/config.csv"]


def _tree(directory, steps=20):
    """A hand-made run tree: one run CSV, its sidecar, a summary.csv and a config file."""
    (directory / "runs").mkdir(parents=True)
    (directory / "runs" / "a.csv").write_text(
        "step,loss,weight_err,grad_norm,state_entries,flops\n"
        "0,0.5,0.25,1.5,64,0\n10,0.125,0.0625,0.75,64,100\n", encoding="utf-8")
    sidecar = {"schema": "altlora-run/1", "steps_to_threshold": steps, "diverged": False, "final_loss": 0.125}
    (directory / "runs" / "a.json").write_text(json.dumps(sidecar), encoding="utf-8")
    (directory / "runs" / "summary.csv").write_text(
        f"name,optimizer,steps_to_threshold,diverged\na,altlora,{steps},False\n", encoding="utf-8")
    (directory / "config.json").write_text("{}", encoding="utf-8")


def test_the_drift_report_names_the_file_and_column_of_a_one_ulp_edit_and_a_moved_outcome(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    _tree(base)
    shutil.copytree(base, head)
    assert output_manifest.main(["--against", str(base), str(head)]) == 0
    same = capsys.readouterr().out.splitlines()
    assert same[-3:] == [
        "4 of 4 common files byte-identical",
        "steps_to_threshold and diverged: none moved",
        "check verdicts: none moved",
    ]

    csv = head / "runs" / "a.csv"
    up = repr(float(np.nextafter(0.0625, np.inf)))  # the second row's weight_err, one ulp up
    csv.write_text(csv.read_text(encoding="utf-8").replace(",0.0625,", f",{up},"), encoding="utf-8")
    (head / "runs" / "extra.diverged").write_text("loss inf at step 3\n", encoding="utf-8")
    assert output_manifest.main(["--against", str(base), str(head)]) == 0
    report = capsys.readouterr().out.splitlines()
    relative = (float(up) - 0.0625) / 0.0625
    assert report == [
        f"4 files in {base}, 5 in {head}",
        f"only in {head}: runs/extra.diverged",
        "differs: runs/a.csv",
        f"  weight_err: max relative deviation {relative:.3g}",
        "3 of 4 common files byte-identical",
        "steps_to_threshold and diverged: none moved",
        "check verdicts: none moved",
    ]

    shutil.rmtree(head)
    _tree(head, steps=21)
    assert output_manifest.main(["--against", str(base), str(head)]) == 0
    report = capsys.readouterr().out.splitlines()
    assert report[1:] == [
        "differs: runs/a.json",
        "  keys: steps_to_threshold",
        "differs: runs/summary.csv",
        "  steps_to_threshold: max relative deviation 0.05",
        "2 of 4 common files byte-identical",
        "steps_to_threshold and diverged: moved in runs/a.json, runs/summary.csv",
        "check verdicts: none moved",
    ]


def _check_report(directory, deviations: dict, passed: dict) -> None:
    """A hand-made check report in directory, one check per entry of deviations."""
    checks = [{"name": name, "instances": 200, "max_deviation": dev, "passed": passed[name], "info": {}}
              for name, dev in deviations.items()]
    doc = {"schema": "altlora-check-report/1", "seed": 0, "passed": all(passed.values()), "checks": checks}
    directory.mkdir(parents=True)
    (directory / "check_report.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def test_the_drift_report_names_each_check_whose_deviation_or_verdict_moved(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    names = ("gram_inverse_identity", "lstsq_scaled_grad_a", "lstsq_scaled_grad_b")
    _check_report(base / "verify_seed0", dict(zip(names, (1e-15, 6.77e-15, 2e-10))), dict.fromkeys(names, True))
    _check_report(head / "verify_seed0", dict(zip(names, (1e-15, 1.02e-14, 2e-9))),
                  {**dict.fromkeys(names, True), "lstsq_scaled_grad_b": False})
    assert output_manifest.main(["--against", str(base), str(head)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"1 files in {base}, 1 in {head}",
        "differs: verify_seed0/check_report.json",
        "  keys: passed",
        "  lstsq_scaled_grad_a: max_deviation 6.77e-15 -> 1.02e-14",
        "  lstsq_scaled_grad_b: max_deviation 2e-10 -> 2e-09",
        "  lstsq_scaled_grad_b: passed true -> false",
        "0 of 1 common files byte-identical",
        "steps_to_threshold and diverged: none moved",
        "check verdicts: moved in verify_seed0/check_report.json (lstsq_scaled_grad_b)",
    ]

    shutil.rmtree(head)
    _check_report(head / "verify_seed0", dict(zip(names, (1e-15, 1.02e-14, 2e-10))), dict.fromkeys(names, True))
    assert output_manifest.main(["--against", str(base), str(head)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "differs: verify_seed0/check_report.json",
        "  lstsq_scaled_grad_a: max_deviation 6.77e-15 -> 1.02e-14",
        "0 of 1 common files byte-identical",
        "steps_to_threshold and diverged: none moved",
        "check verdicts: none moved",
    ]


def test_the_drift_report_takes_two_directories(tmp_path, capsys):
    _tree(tmp_path / "base")
    for argv in (["--against", str(tmp_path / "base")], ["--against", str(tmp_path / "base"), str(tmp_path / "none")]):
        assert output_manifest.main(argv) == 2
        assert "usage: output_manifest.py" in capsys.readouterr().err
