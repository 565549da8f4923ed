"""Oracle tests: the enumerators against hand counts, an independent
cycle walker, an independent block-insertion enumerator, and the recurrence
engine; and the oracle's imports, which keep it independent of the engine."""

import ast
from itertools import permutations
from pathlib import Path

import pytest

from stirling import oracle
from stirling.cli import EXIT_OK, run
from stirling.engine import StirlingKind, stirling
from stirling.oracle import (
    BudgetExceededError,
    _heap_swaps,
    _permutation_cycle_census,
    _set_partition_census,
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


# levels 5..8 lie past the block of positions 0..4; the tuple is the one the
# itertools walker gave before the oracle moved to Heap's swaps
CYCLE_CENSUS_OF_NINE = (0, 40320, 109584, 118124, 67284, 22449, 4536, 546, 36, 1)


def test_permutation_census_of_nine_runs_past_the_block():
    assert _permutation_cycle_census(9) == CYCLE_CENSUS_OF_NINE


@pytest.fixture
def fresh_censuses(monkeypatch):
    monkeypatch.setattr(oracle, "_PERMUTATION_CENSUSES", {})
    monkeypatch.setattr(oracle, "_PARTITION_CENSUSES", {})


@pytest.fixture(scope="module")
def independent_censuses():
    cycles = {k: walked_cycle_census(k) for k in range(1, 9)}
    cycles[9] = CYCLE_CENSUS_OF_NINE
    blocks = {}
    for k in range(1, 10):
        counts = [0] * (k + 1)
        for partition in insertion_partitions(k):
            counts[len(partition)] += 1
        blocks[k] = tuple(counts)
    return cycles, blocks


@pytest.mark.parametrize("order", [(9, 6, 5), (5, 6, 9)],
                         ids=["largest-first", "ascending"])
def test_one_run_records_the_census_of_every_smaller_size(
        fresh_censuses, independent_censuses, order):
    cycles, blocks = independent_censuses
    for n in order:
        _permutation_cycle_census(n)
        _set_partition_census(n)
    # sizes 5..9 were read off the runs' own visits, 1..4 are run on their own
    assert sorted(oracle._PERMUTATION_CENSUSES) == [5, 6, 7, 8, 9]
    assert sorted(oracle._PARTITION_CENSUSES) == list(range(1, 10))
    for k in range(1, 10):
        assert _permutation_cycle_census(k) == cycles[k]
        assert _set_partition_census(k) == blocks[k]


def test_oracle_check_enumerates_each_kind_once(fresh_censuses, monkeypatch, capsys):
    runs = []

    def counted(kind, enumerate_up_to):
        def enumerate_and_count(n):
            runs.append((kind, n))
            enumerate_up_to(n)
        return enumerate_and_count

    monkeypatch.setattr(oracle, "_run_permutations",
                        counted("permutations", oracle._run_permutations))
    monkeypatch.setattr(oracle, "_walk_partitions",
                        counted("partitions", oracle._walk_partitions))
    assert run(["oracle-check", "--max", "8"]) == EXIT_OK
    assert capsys.readouterr().out == "72 cases, all equal\n"
    # the sizes below the block of five positions each get a run of their own
    assert runs == [("permutations", 8), ("partitions", 8),
                    ("permutations", 1), ("permutations", 2),
                    ("permutations", 3), ("permutations", 4)]
    runs.clear()
    assert count_permutations_by_cycles(6, 3) == 225
    assert runs == []


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
    assert imported == {".exact"}


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
