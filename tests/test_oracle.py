"""Oracle tests: the enumerators against hand counts, an independent
cycle walker, an independent block-insertion enumerator, and the recurrence
engine; and the oracle's imports, which keep it independent of the engine."""

import ast
from itertools import permutations
from pathlib import Path

import pytest

from stirling.engine import StirlingKind, stirling
from stirling.oracle import (
    BudgetExceededError,
    _heap_swaps,
    _permutation_cycle_census,
    count_permutations_by_cycles,
    count_set_partitions,
)


# census of range(n) by cycles, walking every cycle of every permutation that
# itertools yields; independent of the oracle's transposition-by-transposition
# update
def walked_cycle_census(n):
    counts = [0] * (n + 1)
    for perm in permutations(range(n)):
        seen = 0
        cycles = 0
        for i in range(n):
            if seen >> i & 1:
                continue
            cycles += 1
            j = i
            while not seen >> j & 1:
                seen |= 1 << j
                j = perm[j]
        counts[cycles] += 1
    return tuple(counts)


# partitions of an n-set built by inserting each element into every existing
# block or a new one; independent of the restricted-growth-string enumerator
def insertion_partitions(n):
    parts = [[]]
    for i in range(n):
        grown = []
        for partition in parts:
            for b in range(len(partition)):
                copy = [list(block) for block in partition]
                copy[b].append(i)
                grown.append(copy)
            grown.append([list(block) for block in partition] + [[i]])
        parts = grown
    return parts


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_permutation_examples():
    assert count_permutations_by_cycles(3, 2) == 3
    assert count_permutations_by_cycles(4, 1) == 6
    for n in range(1, 8):
        assert count_permutations_by_cycles(n, n) == 1


def test_permutation_census_sums_to_factorial():
    for n in range(1, 8):
        total = sum(count_permutations_by_cycles(n, m) for m in range(1, n + 1))
        expected = 1
        for i in range(1, n + 1):
            expected *= i
        assert total == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_census_matches_cycle_walk(n):
    assert _permutation_cycle_census(n) == walked_cycle_census(n)


def test_permutation_census_of_nine_runs_past_the_block():
    # levels 5..8 lie past the block of positions 0..4; the tuple is the one
    # the itertools walker gave before the oracle moved to Heap's swaps
    assert _permutation_cycle_census(9) == (
        0, 40320, 109584, 118124, 67284, 22449, 4536, 546, 36, 1
    )


@pytest.mark.parametrize("size", range(1, 6))
def test_heap_swaps_visit_every_arrangement_of_the_block_once(size):
    swaps = _heap_swaps(size)
    arrangement = list(range(size))
    seen = {tuple(arrangement)}
    for a, i in swaps:
        assert 0 <= a < i < size
        arrangement[a], arrangement[i] = arrangement[i], arrangement[a]
        seen.add(tuple(arrangement))
    assert len(seen) == len(swaps) + 1
    assert seen == set(permutations(range(size)))


def test_oracle_imports_nothing_from_the_engine():
    path = Path(__file__).resolve().parent.parent / "src" / "stirling" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"functools", ".exact"}


def test_partition_examples():
    assert count_set_partitions(3, 2) == 3
    assert count_set_partitions(4, 2) == 7
    for n in range(1, 9):
        assert count_set_partitions(n, 1) == 1


def test_partition_census_matches_insertion_enumeration():
    for n in range(1, 8):
        independent = insertion_partitions(n)
        assert len(independent) == BELL[n]
        for m in range(1, n + 1):
            by_blocks = sum(1 for p in independent if len(p) == m)
            assert count_set_partitions(n, m) == by_blocks


def test_partition_census_sums_to_bell_numbers():
    for n in range(1, 9):
        total = sum(count_set_partitions(n, m) for m in range(1, n + 1))
        assert total == BELL[n]


def test_out_of_range_m_counts_zero():
    assert count_permutations_by_cycles(4, 5) == 0
    assert count_set_partitions(4, 0) == 0
    assert count_set_partitions(4, 9) == 0


def test_argument_validation():
    with pytest.raises(ValueError):
        count_permutations_by_cycles(0, 1)
    with pytest.raises(ValueError):
        count_set_partitions(-2, 1)
    with pytest.raises(ValueError):
        count_set_partitions(3, -1)
    with pytest.raises(TypeError):
        count_set_partitions(3.0, 1)


def test_budget_is_enforced_and_configurable():
    with pytest.raises(BudgetExceededError):
        count_permutations_by_cycles(11, 3)
    with pytest.raises(BudgetExceededError):
        count_set_partitions(9, 2, budget=8)
    assert count_set_partitions(9, 2, budget=9) > 0


@pytest.mark.parametrize("budget, error", [("9", TypeError), (9.5, TypeError),
                                           (-1, ValueError)])
def test_budget_must_be_a_non_negative_int(budget, error):
    with pytest.raises(error, match="oracle budget must be"):
        count_set_partitions(3, 1, budget=budget)
    with pytest.raises(error, match="oracle budget must be"):
        count_permutations_by_cycles(3, 1, budget=budget)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_agrees_with_engine(n):
    for m in range(1, n + 1):
        assert count_permutations_by_cycles(n, m) == stirling(
            StirlingKind.FIRST_UNSIGNED, n, m
        )
        assert count_set_partitions(n, m) == stirling(StirlingKind.SECOND, n, m)
