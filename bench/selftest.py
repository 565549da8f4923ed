"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs catalog-sweep and triangle-export once each in a child, confirms the
real outputs pass, then feeds corrupted copies through the same checks and
accounting as ``run.py`` and confirms that each one drives fail_share above
zero: one changed CSV digit, a flipped ``all_passed``, and a fault call that
exits 0. Last, an oversized call must fail on the child's memory limit
instead of exhausting the machine. Exits 1 if any case goes undetected.
"""

import copy
import random
import sys

from run import Tally, run_ops
from workloads import CSV_ROWS, Op, catalog_sweep, check_exact_text, triangle_export


def change_digit(line):
    """Change the last digit of the middle entry of a CSV row."""
    cells = line.split(",")
    mid = len(cells) // 2
    cells[mid] = cells[mid][:-1] + str((int(cells[mid][-1]) + 1) % 10)
    return ",".join(cells)


def corrupted(report, op_index, mutate):
    bad = copy.deepcopy(report)
    mutate(bad["results"][op_index])
    return bad


def flip_all_passed(result):
    kept = result["kept"]
    for line, text in kept.items():
        if '"all_passed": true' in text:
            kept[line] = text.replace("true", "false")


def main():
    rng = random.Random(0)
    ok = True

    def expect(label, tally, failing):
        nonlocal ok
        good = (tally.fail_share > 0) == failing
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {label}: fail_share {tally.fail_share:.3g}"
              + (f" ({tally.reasons[0]})" if tally.reasons else ""))

    catalog = catalog_sweep(rng)
    triangle = triangle_export(rng)
    catalog_report, _ = run_ops(catalog, Tally())
    triangle_report, _ = run_ops(triangle, Tally())
    for label, ops, report in (("catalog-sweep as run", catalog, catalog_report),
                               ("triangle-export as run", triangle, triangle_report)):
        tally = Tally()
        tally.add(ops, report)
        expect(label, tally, failing=False)

    def digit(result):
        result["kept"][str(CSV_ROWS)] = change_digit(result["kept"][str(CSV_ROWS)])

    def index(name):
        return next(i for i, op in enumerate(catalog) if op.name == name)

    def exits_zero(result):
        result["exit"] = 0

    cases = (
        ("one changed CSV digit", triangle, corrupted(triangle_report, 0, digit)),
        ("flipped all_passed", catalog, corrupted(catalog_report, index("verify-all"),
                                                  flip_all_passed)),
        ("fault call exiting 0", catalog, corrupted(catalog_report, index("verify-fault"),
                                                    exits_zero)),
    )
    for label, ops, report in cases:
        tally = Tally()
        tally.add(ops, report)
        expect(label, tally, failing=True)

    oversized = [Op("oversized", ["value", "--kind", "second", "3000", "1"],
                    lambda result: check_exact_text("unused\n", result))]
    tally = Tally()
    run_ops(oversized, tally)
    expect("oversized call under the memory limit", tally, failing=True)
    ok &= bool(tally.reasons) and "memory limit" in tally.reasons[0]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
