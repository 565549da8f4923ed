#!/usr/bin/env python3
"""Recurrences vs raw enumeration: the engine fills triangles algebraically,
the oracle counts actual combinatorial objects one at a time. They must
agree entry for entry."""

import sys
import time

from stirling import (
    StirlingKind,
    count_permutations_by_cycles,
    count_set_partitions,
    first_from_second,
    second_from_first,
    stirling,
)

UNSIGNED = StirlingKind.FIRST_UNSIGNED
SECOND = StirlingKind.SECOND

print("Permutations of {1..n} grouped by cycle count (enumerated) against")
print("the unsigned first-kind triangle (recurrence):\n")
for n in range(1, 7):
    counted = [count_permutations_by_cycles(n, m) for m in range(1, n + 1)]
    computed = [stirling(UNSIGNED, n, m) for m in range(1, n + 1)]
    marker = "ok" if counted == computed else "MISMATCH"
    print(f"    n={n}: {counted} {marker}")

print("\nSet partitions by block count (restricted growth strings) against")
print("the second-kind triangle:\n")
for n in range(1, 7):
    counted = [count_set_partitions(n, m) for m in range(1, n + 1)]
    computed = [stirling(SECOND, n, m) for m in range(1, n + 1)]
    marker = "ok" if counted == computed else "MISMATCH"
    print(f"    n={n}: {counted} {marker}")

print("\nFull sweep to n = 9 (9! = 362880 permutations, Bell(9) = 21147")
print("partitions, every one visited):")
start = time.perf_counter()
# n = 9 first: its one run and one walk record the census of every smaller n
count_permutations_by_cycles(9, 9)
count_set_partitions(9, 9)
cases = 0
mismatches = 0
for n in range(1, 10):
    for m in range(1, n + 1):
        cases += 2
        if count_permutations_by_cycles(n, m) != stirling(UNSIGNED, n, m):
            mismatches += 1
        if count_set_partitions(n, m) != stirling(SECOND, n, m):
            mismatches += 1
print(f"    {cases} cases, {mismatches} mismatches\n")
# the time goes to stderr, so stdout is the same on every run and every tree
print(f"full sweep to n = 9: {time.perf_counter() - start:.2f}s", file=sys.stderr)

print("A third, independent route: each kind rebuilt from the other via")
print("the alternating binomial conversion sums:\n")
for n, m in [(3, 2), (5, 2), (5, 3), (9, 4)]:
    print(f"    s({n}, {m}) = {first_from_second(n, m):>6}"
          f"   S({n}, {m}) = {second_from_first(n, m):>6}"
          f"   (both match the recurrence values: "
          f"{first_from_second(n, m) == stirling(StirlingKind.FIRST_SIGNED, n, m) and second_from_first(n, m) == stirling(SECOND, n, m)})")
