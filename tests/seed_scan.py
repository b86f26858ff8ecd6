"""Run `altlora verify` checks over a range of seeds and print, per check, its
pass count and its worst (seed, deviation).

    PYTHONPATH=src python tests/seed_scan.py [--filter GLOB] FIRST LAST

GLOB selects checks by name, as `altlora verify --filter` does (all of them
when omitted); every selected check runs at each seed FIRST..LAST inclusive.
One line per check reads

    name: passed/total passed, worst seed S at D[, failed at seeds ...]

where the worst deviation is the largest max_deviation, or the smallest for
the negative control, whose deviation must stay above its bound. The script
exits 1 when any (check, seed) fails and 2 on a usage error. All checks over
seeds 0-999 take several minutes; gradient_finite_difference alone takes
about a second.
"""

from __future__ import annotations

import argparse
import sys

from altlora import oracle

# The check whose max_deviation is the least divergence it saw, and must exceed its bound.
LEAST = {"trajectory_invariance_negative_control"}


def scan(name: str, seeds: range) -> tuple[str, bool]:
    """The report line of one check over seeds, and whether every seed passed."""
    results = [(seed, oracle.CHECKS[name](seed)) for seed in seeds]
    failed = [seed for seed, result in results if not result.passed]
    pick = min if name in LEAST else max
    worst_seed, worst = pick(results, key=lambda item: item[1].max_deviation)
    line = (f"{name}: {len(results) - len(failed)}/{len(results)} passed, "
            f"worst seed {worst_seed} at {worst.max_deviation:.3e}")
    if failed:
        line += ", failed at seeds " + " ".join(map(str, failed))
    return line, not failed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="seed_scan.py", description="per-check pass counts over a seed range")
    parser.add_argument("--filter", default=None, help="glob over check names")
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)  # parse_args and parser.error exit 2
    names = oracle.select_checks(args.filter)
    if not names:
        parser.error(f"no checks match {args.filter!r}")
    if not 0 <= args.first <= args.last:
        parser.error(f"seeds {args.first}..{args.last} are not a range of non-negative seeds")
    passed = True
    for name in names:
        line, ok = scan(name, range(args.first, args.last + 1))
        print(line, flush=True)
        passed = passed and ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
