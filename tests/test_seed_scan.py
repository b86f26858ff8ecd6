"""tests/seed_scan.py: per-check pass counts and the worst seed, exit 1 on a failing seed."""

import pytest

import seed_scan
from altlora import oracle


def _fake(deviations: dict, bound: float, above: bool = False):
    """A check over seeds 0..: max_deviation deviations[seed], passed against bound."""
    def check(seed):
        dev = deviations[seed]
        return oracle.CheckResult("fake", 1, dev, dev > bound if above else dev <= bound)
    return check


def test_the_scan_counts_passes_and_names_the_worst_seed_and_every_failure(monkeypatch, capsys):
    monkeypatch.setitem(oracle.CHECKS, "gradient_finite_difference", _fake({0: 1e-9, 1: 0.5, 2: 3e-8, 3: 2.0}, 1e-6))
    assert seed_scan.main(["--filter", "gradient_finite_difference", "0", "3"]) == 1
    assert capsys.readouterr().out == (
        "gradient_finite_difference: 2/4 passed, worst seed 3 at 2.000e+00, failed at seeds 1 3\n")
    assert seed_scan.main(["--filter", "gradient_finite_difference", "0", "0"]) == 0
    assert capsys.readouterr().out == "gradient_finite_difference: 1/1 passed, worst seed 0 at 1.000e-09\n"


def test_the_negative_controls_worst_seed_is_its_least_divergence(monkeypatch, capsys):
    name = "trajectory_invariance_negative_control"
    monkeypatch.setitem(oracle.CHECKS, name, _fake({5: 0.5, 6: 0.02, 7: 0.9}, 1e-3, above=True))
    assert seed_scan.main(["--filter", name, "5", "7"]) == 0
    assert capsys.readouterr().out == f"{name}: 3/3 passed, worst seed 6 at 2.000e-02\n"


def test_the_fd_check_passes_at_the_seed_where_a_probe_reached_a_relu_kink(capsys):
    assert seed_scan.main(["--filter", "gradient_finite_difference", "211", "213"]) == 0
    assert capsys.readouterr().out.startswith("gradient_finite_difference: 3/3 passed, worst seed ")


@pytest.mark.parametrize("argv", [["--filter", "no_such_check", "0", "3"], ["4", "3"], ["-1", "3"], ["0"]])
def test_a_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        seed_scan.main(argv)
    assert exc.value.code == 2 and capsys.readouterr().out == ""
