"""tests/step_times.py: its rows and exit codes (1 for a failing child, 2 for a usage error), never a time."""

import re
import subprocess

import pytest

import step_times
from altlora import optim


def test_the_probe_prints_a_pass_and_a_step_time_for_each_optimizer(capsys):
    assert step_times.main(["--processes", "2", "--repeats", "1", "--steps", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["optimizer", "pass_us", "step_us"]
    assert [row.split()[0] for row in rows] == list(optim.OPTIMIZERS)
    for row in rows:
        assert re.fullmatch(r"\S+ +\d+\.\d +\d+\.\d", row), row


@pytest.mark.parametrize("argv", [["--processes", "0"], ["--repeats", "-1"], ["--steps", "0"], ["--steps", "x"]])
def test_a_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        step_times.main(argv)
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_a_failing_child_exits_1_and_passes_on_its_error(monkeypatch, capsys):
    failed = subprocess.CompletedProcess([], 1, stdout="", stderr="RuntimeWarning: overflow\n")
    monkeypatch.setattr(step_times.subprocess, "run", lambda *args, **kwargs: failed)
    assert step_times.main(["--processes", "1"]) == 1
    assert capsys.readouterr() == ("", "RuntimeWarning: overflow\n")
