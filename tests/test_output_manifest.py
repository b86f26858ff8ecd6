"""The bit check of tests/output_manifest.py: its manifest is repeatable and sees one ulp."""

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
