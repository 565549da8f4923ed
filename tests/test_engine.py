"""Engine tests: recurrence-built triangles against frozen oracle values,
special-value columns, conversions, memoization, concurrency, exports."""

import dataclasses
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies

from stirling import engine
from stirling.engine import (
    PerturbedCalculator,
    StirlingCalculator,
    StirlingKind,
    Triangle,
    _band,
    _pascal,
    build_triangle,
    first_from_second,
    second_from_first,
    stirling,
)
from stirling.cli import EXIT_OK, run
from stirling.exact import IndexLimitError, dump_json, factorial
from stirling.identities import IdentityId, run_identity

FIRST = StirlingKind.FIRST_SIGNED
UNSIGNED = StirlingKind.FIRST_UNSIGNED
SECOND = StirlingKind.SECOND


def test_row_zero_is_one_for_all_kinds():
    for kind in StirlingKind:
        assert build_triangle(kind, 0).rows == ((1,),)


def test_frozen_small_rows():
    assert build_triangle(SECOND, 3).rows[3] == (0, 1, 3, 1)
    assert build_triangle(SECOND, 4).rows[4] == (0, 1, 7, 6, 1)
    assert build_triangle(FIRST, 3).rows[3] == (0, 2, -3, 1)
    assert build_triangle(FIRST, 5).rows[5] == (0, 24, -50, 35, -10, 1)
    assert build_triangle(UNSIGNED, 3).rows[3] == (0, 2, 3, 1)
    assert StirlingCalculator().row(SECOND, 4) == (0, 1, 7, 6, 1)
    with pytest.raises(ValueError, match="stored for first and second, not first-unsigned"):
        StirlingCalculator().row(UNSIGNED, 3)


def falling_factorial_rows(top):
    # rows 0..top of the signed first kind without the engine: row n holds the
    # power-basis coefficients of x (x-1) ... (x-n+1), expanded one linear
    # factor x - n at a time
    rows, expansion = [], [1]
    for n in range(top + 1):
        rows.append(expansion)
        expansion = [low - n * high for low, high in zip([0, *expansion], [*expansion, 0])]
    return rows


def factorial_times_second(n, m):
    # m! S(n, m) = sum_{j=0}^{m} (-1)^j C(m, j) (m-j)^n, without the engine
    return sum((-1) ** j * comb(m, j) * (m - j) ** n for j in range(m + 1))


def test_first_kind_rows_match_falling_factorial_expansion():
    assert [list(row) for row in build_triangle(FIRST, 120).rows] == falling_factorial_rows(120)


def test_second_kind_rows_match_the_explicit_sum():
    for n, row in enumerate(build_triangle(SECOND, 120).rows):
        assert [factorial(m) * value for m, value in enumerate(row)] == [
            factorial_times_second(n, m) for m in range(n + 1)
        ]


def test_walks_past_the_memo_match_whole_rows():
    # the band from horizon h keeps of each row k only the columns that reach
    # (n, m); every row it yields must be that slice of the whole row k, and
    # the last one the entry (n, m) alone
    rng = random.Random(8)
    first_rows = falling_factorial_rows(300)
    whole = StirlingCalculator()
    for n in (300, 1, *rng.sample(range(2, 300), 4)):
        for h in (0, rng.randrange(n), n - 1):
            for m in sorted({0, 1, n // 2, n - 1, n, rng.randint(0, n)}):
                entry = {}
                for kind in (FIRST, SECOND):
                    steps = list(_band(kind, whole.row(kind, h), h, n, m))
                    assert [k for k, _, _ in steps] == list(range(h, n + 1)), (n, m, h)
                    for k, lo, band in steps:
                        assert lo == max(0, m - (n - k)), (kind, n, m, h, k)
                        assert band == whole.row(kind, k)[lo:min(k, m) + 1], (kind, n, m, h, k)
                    assert steps[-1][2] == (whole.row(kind, n)[m],), (kind, n, m, h)
                    entry[kind] = steps[-1][2][0]
                assert entry[FIRST] == first_rows[n][m], (n, m, h)
                assert factorial(m) * entry[SECOND] == factorial_times_second(n, m), (n, m, h)


def test_a_point_query_walks_and_repeated_ones_grow_the_memo():
    whole = StirlingCalculator()
    # a few queries past the memo store nothing, from any horizon, for all kinds
    for h in (0, 97, 299, 300):
        calc = StirlingCalculator()
        for stored in (FIRST, SECOND):
            calc.row(stored, h)
        for kind, m in ((FIRST, 100), (UNSIGNED, 299), (SECOND, 7)):
            expected = whole.row(SECOND if kind is SECOND else FIRST, 300)[m]
            assert calc.value(kind, 300, m) == (abs(expected) if kind is UNSIGNED else expected)
            assert calc.value(kind, 300, 301) == 0
        assert [len(calc._rows[stored]) for stored in (FIRST, SECOND)] == [h + 1, h + 1]
    # reading a row entry by entry stores it before half of it is read, so
    # repeated queries on one calculator do not each walk from row 0
    calc = StirlingCalculator()
    for m in range(151):
        assert calc.value(SECOND, 300, m) == whole.row(SECOND, 300)[m]
    assert [len(calc._rows[stored]) for stored in (FIRST, SECOND)] == [1, 301]
    assert [calc.value(SECOND, 300, m) for m in range(301)] == list(whole.row(SECOND, 300))


def test_perturbed_offset_shows_through_a_walk_and_a_memo_read():
    healthy = StirlingCalculator()
    fault = PerturbedCalculator(SECOND, 300, 7)
    assert fault.value(SECOND, 300, 7) == healthy.row(SECOND, 300)[7] + 1
    assert len(fault._rows[SECOND]) == 1
    assert fault.value(SECOND, 301, 7) == healthy.row(SECOND, 301)[7]
    assert fault.value(SECOND, 300, 8) == healthy.row(SECOND, 300)[8]
    assert fault.value(FIRST, 300, 7) == healthy.row(FIRST, 300)[7]
    # once row 300 is memoized the offset is applied once, not twice
    assert fault.row(SECOND, 300)[7] == healthy.row(SECOND, 300)[7] + 1
    assert fault.value(SECOND, 300, 7) == healthy.row(SECOND, 300)[7] + 1


def summed_queries(monkeypatch):
    # record the (n, m) of every second-kind query value() answers by the
    # explicit sum rather than by a band walk
    summed = []
    explicit_sum = engine._second_kind_sum

    def recording(n, m):
        summed.append((n, m))
        return explicit_sum(n, m)

    monkeypatch.setattr(engine, "_second_kind_sum", recording)
    return summed


def converted_queries(monkeypatch):
    # record the (n, m) of every entry rebuilt by eq1/eq2's sum over the other
    # kind's diagonal n - m, by value() or by a conversion
    converted = []
    conversion = engine._converted

    def recording(source, n, m, *seen):
        converted.append((n, m))
        return conversion(source, n, m, *seen)

    monkeypatch.setattr(engine, "_converted", recording)
    return converted


def folded_queries(monkeypatch):
    # record the (n, m) of every first-kind query value() answers off the
    # rising factorial folded about its centre
    folded = []
    fold = engine._folded

    def recording(n, m):
        folded.append((n, m))
        return fold(n, m)

    monkeypatch.setattr(engine, "_folded", recording)
    return folded


@pytest.mark.parametrize("kind, n", [(SECOND, 20), (SECOND, 64), (SECOND, 200), (SECOND, 300),
                                     (SECOND, 512), (FIRST, 31), (FIRST, 64), (FIRST, 200)])
def test_point_queries_past_the_memo_match_whole_rows(kind, n, monkeypatch):
    whole = StirlingCalculator().row(kind, n)
    summed = summed_queries(monkeypatch)
    converted = converted_queries(monkeypatch)
    folded = folded_queries(monkeypatch)
    for h in sorted({0, n // 2, n - 1}):
        calc = StirlingCalculator()
        calc.row(kind, h)
        for m in range(n + 1):
            calc._walked[kind] = 0  # each query stays off the memo
            assert calc.value(kind, n, m) == whole[m], (n, h, m)
        assert len(calc._rows[kind]) == h + 1
    assert not set(summed) & set(converted)
    assert not set(folded) & set(converted)
    if n < 32:
        # below the floor every query walks or sums, so oracle-check's n <= 10
        # compares the enumeration with the recurrence
        assert converted == folded == []
    else:
        # the entries next to the diagonal are converted from h = 0 and n // 2,
        # and from h = n - 1 a step or two of walk costs less
        assert [converted.count((n, m)) for m in range(n - 2, n + 1)] == [2, 2, 2]
    if kind is FIRST:
        assert summed == []
        if n == 64:
            # the fold, 3/2 * 32 (d // 2 + 1) steps, costs less than the walk but
            # for m = 0 and 2 from h = 32 and every m from h = 63; the crossover
            # 2 (d + 1)^2 < 48 (d // 2 + 1) converts m = 54..64 from h = 0 and 32
            assert converted == [(64, m) for m in [*range(54, 65), *range(54, 65)]]
            assert folded == [(64, m) for m in [*range(54), 1, *range(3, 54)]]
        return
    assert folded == []
    # the cost rule sums small m far from the memo and converts the narrow
    # bands next to the diagonal
    assert {(n, m) for m in range(7)} <= set(summed)
    if n == 20:
        # the crossover: m = 0..14 from h = 0, m = 0..11 from h = 10, none from h = 19
        assert summed == [(20, m) for m in range(15)] + [(20, m) for m in range(12)]
    if n == 64:
        # where the sum costs less than the walk, the conversion must beat the sum:
        # 2 (d + 1)^2 < 8 (m + 1) from m = 51 on, from h = 0 and h = 32 alike
        assert converted == [(64, m) for m in [*range(51, 65), *range(51, 65)]]


def test_first_kind_point_queries_at_512_match_the_whole_row(monkeypatch):
    # every 32nd m and both sides of each horizon's crossover between the fold,
    # 3/2 * 256 (d // 2 + 1) steps, and the conversion, 2 (d + 1)^2
    whole = StirlingCalculator().row(FIRST, 512)
    converted = converted_queries(monkeypatch)
    folded = folded_queries(monkeypatch)
    expected_converted, expected_folded = [], []
    for h, crossover in ((0, 418), (256, 418), (511, None)):
        calc = StirlingCalculator()
        calc.row(FIRST, h)
        sides = () if crossover is None else (crossover - 1, crossover)
        ms = sorted({*range(0, 513, 32), *sides})
        for m in ms:
            calc._walked[FIRST] = 0  # each query stays off the memo
            assert calc.value(FIRST, 512, m) == whole[m], (h, m)
        assert len(calc._rows[FIRST]) == h + 1
        if crossover is not None:
            expected_converted += [(512, m) for m in ms if m >= crossover]
            expected_folded += [(512, m) for m in ms if m < crossover and (h, m) != (256, 0)]
    # from h = 0 and h = 256 the rule converts m >= 418 and folds the rest, but
    # for m = 0 from h = 256, whose 256-step walk costs less; from h = 511 it walks
    assert converted == expected_converted
    assert folded == expected_folded


@pytest.mark.parametrize("n, crossover", [(32, 28), (33, 29), (64, 54), (65, 55),
                                          (301, 245), (512, 418)])
def test_folded_queries_match_whole_rows(n, crossover, monkeypatch):
    # value() folds every m below the conversion's crossover from h = 0; from
    # h = n // 2 it walks m = 0 and, where the costs tie for even n, m = 2; from
    # h = n - 1 it walks. The fold itself must hold at every m, 0 and n included
    whole = StirlingCalculator().row(FIRST, n)
    folded = folded_queries(monkeypatch)
    walks = {0: set(), n // 2: {0} if n % 2 else {0, 2}, n - 1: set(range(crossover))}
    for h in walks:
        calc = StirlingCalculator()
        calc.row(FIRST, h)
        for m in range(n + 1):
            calc._walked[FIRST] = 0  # each query stays off the memo
            assert calc.value(FIRST, n, m) == whole[m], (h, m)
        assert len(calc._rows[FIRST]) == h + 1
    assert folded == [(n, m) for walked in walks.values() for m in range(crossover)
                      if m not in walked]
    for m in range(crossover, n + 1):
        assert engine._folded(n, m) == whole[m], m
    assert [StirlingCalculator().value(UNSIGNED, n, m) for m in range(0, n + 1, 7)] == [
        abs(v) for v in whole[::7]]


def nested_route(kind, h, n, m, converts):
    # the route value() took to (n, m) from memo row h when each branch of
    # _entry held its own comparison: kept here as the reference for _route
    steps = (n - h) * (min(m, n - m) + 1)
    if kind is SECOND:
        direct, summed = "summed", max(8, n // 8) * (m + 1)
    elif n >= 32:
        direct, summed = "folded", 3 * (n // 2) * (min(m, n - m) // 2 + 1) // 2
    else:
        direct, summed = None, steps
    if converts and n >= 32 and 2 * (n - m + 1) ** 2 < min(steps, summed):
        return "converted", 2 * (n - m + 1) ** 2
    if summed < steps:
        return direct, summed
    return "walked", steps


@pytest.mark.parametrize("h", [0, 64, 200])
def test_point_queries_take_the_route_the_nested_rule_picks(h, monkeypatch):
    # _route lists every route once and takes the first cheapest: each query off
    # the memo runs the route, and is charged the cost, that the nested rule gives
    calc = StirlingCalculator()
    for kind in (FIRST, SECOND):
        calc.row(kind, h)
    whole = StirlingCalculator()
    summed = summed_queries(monkeypatch)
    converted = converted_queries(monkeypatch)
    folded = folded_queries(monkeypatch)
    bands = []
    band = engine._band

    def recording(stored, row, h, n, m):
        bands.append((stored, n, m))
        return band(stored, row, h, n, m)

    monkeypatch.setattr(engine, "_band", recording)

    def check(kind, n, m, converts):
        for queries in (summed, converted, folded, bands):
            queries.clear()
        calc._walked[kind] = 0
        assert calc._entry(kind, n, m, converts) == whole.row(kind, n)[m], (kind, n, m)
        # a walk reads a band of the queried kind, a conversion one of the other
        walked = [(k, j) for stored, k, j in bands if stored is kind]
        taken = {"summed": summed, "converted": converted, "folded": folded, "walked": walked}
        route, cost = nested_route(kind, h, n, m, converts)
        assert {name: queries for name, queries in taken.items() if queries} == {
            route: [(n, m)]}, (kind, n, m, converts)
        assert calc._walked[kind] == cost
        assert len(calc._rows[kind]) == h + 1

    # a tie of each pair of routes that meets from this horizon: walk and sum or
    # fold, walk and conversion, sum or fold and conversion; the first listed wins
    ties = {0: [(SECOND, 8, 0), (SECOND, 33, 24), (FIRST, 32, 27)],
            64: [(SECOND, 73, 0), (FIRST, 102, 1), (SECOND, 66, 66), (FIRST, 66, 66),
                 (SECOND, 205, 161), (FIRST, 128, 105)],
            200: [(SECOND, 228, 0), (SECOND, 202, 202), (FIRST, 202, 202)]}
    for kind, n, m in ties[h]:
        check(kind, n, m, True)

    @settings(max_examples=150, deadline=None)
    @given(strategies.sampled_from([FIRST, SECOND]),
           strategies.integers(h + 1, 300).flatmap(
               lambda n: strategies.tuples(strategies.just(n), strategies.integers(0, n))),
           strategies.booleans())
    def drawn(kind, entry, converts):
        check(kind, *entry, converts)

    drawn()


def test_perturbed_offset_shows_through_a_folded_query_once(monkeypatch):
    healthy = StirlingCalculator()
    target = (301, 100)
    reads = [(301, 100), (301, 99), (301, 101), (300, 100), (302, 100)]
    folded = folded_queries(monkeypatch)
    for n, m in reads:
        want = healthy.row(FIRST, n)[m] + (5 if (n, m) == target else 0)
        assert PerturbedCalculator(FIRST, *target, 5).value(FIRST, n, m) == want, (n, m)
        assert PerturbedCalculator(FIRST, *target, 5).value(UNSIGNED, n, m) == (
            (-1) ** (n - m) * want), (n, m)
    assert folded == [read for read in reads for _ in range(2)]
    # once row 301 is memoized the offset is applied once, not twice
    fault = PerturbedCalculator(FIRST, *target, 5)
    assert fault.value(FIRST, *target) == healthy.row(FIRST, 301)[100] + 5
    assert fault.row(FIRST, 301)[100] == healthy.row(FIRST, 301)[100] + 5
    assert fault.value(FIRST, *target) == healthy.row(FIRST, 301)[100] + 5
    assert len(folded) == 2 * len(reads) + 1


def test_the_explicit_sum_serves_the_second_kind_alone(monkeypatch):
    rows = {kind: StirlingCalculator().row(kind, 454) for kind in (FIRST, SECOND)}

    def no_band(*args):
        # a conversion walks a band too: (454, 133) is summed, neither walked nor converted
        raise AssertionError("walked a band")

    monkeypatch.setattr(engine, "_band", no_band)
    for h in (0, 100):
        calc = StirlingCalculator()
        calc.row(SECOND, h)
        assert calc.value(SECOND, 454, 133) == rows[SECOND][133]
        # charged the cost of the route it took: 134 powers at 454 // 8 steps each
        assert calc._walked[SECOND] == 56 * 134 == 7504
        assert len(calc._rows[SECOND]) == h + 1
    monkeypatch.undo()
    summed = summed_queries(monkeypatch)
    calc = StirlingCalculator()
    assert calc.value(FIRST, 454, 133) == rows[FIRST][133]
    assert calc.value(UNSIGNED, 454, 133) == abs(rows[FIRST][133])
    assert summed == []


def test_perturbed_offset_shows_through_the_explicit_sum(monkeypatch):
    healthy = StirlingCalculator()
    expected = {(n, m): healthy.row(SECOND, n)[m] for n, m in ((400, 100), (400, 99), (401, 100))}
    expected[400, 100] += 5
    summed = summed_queries(monkeypatch)
    for (n, m), value in expected.items():
        assert PerturbedCalculator(SECOND, 400, 100, 5).value(SECOND, n, m) == value, (n, m)
    assert summed == list(expected)


def test_the_explicit_sum_matches_the_recurrence_rows():
    # one power per odd j, shifted for every j = o 2^a; the j = 0 term is 0^0 = 1
    # at n = 0 alone, and the sum vanishes past the diagonal
    for n, row in enumerate(build_triangle(SECOND, 80).rows):
        assert [engine._second_kind_sum(n, m) for m in range(n + 3)] == [*row, 0, 0], n


def test_the_explicit_sum_matches_whole_rows_at_drawn_points():
    calc = StirlingCalculator()

    @settings(max_examples=40, deadline=None)
    @given(strategies.integers(0, 700).flatmap(
        lambda n: strategies.tuples(strategies.just(n), strategies.integers(0, n))))
    def check(entry):
        n, m = entry
        assert engine._second_kind_sum(n, m) == calc.row(SECOND, n)[m], entry

    check()


def test_summed_queries_of_one_row_are_charged_their_powers():
    # every 10th entry of row 600 is summed, at 75 (m + 1) steps each, so the
    # charges top the 600 * 603 // 2 entries of rows 1..600 on the 23rd query,
    # m = 220, and not on the 9th, as the walk's 600 (m + 1) steps would
    calc = StirlingCalculator()
    summed = {}
    for query, m in enumerate(range(0, 601, 10), 1):
        summed[m] = calc.value(SECOND, 600, m)
        assert len(calc._rows[SECOND]) == (1 if query < 23 else 601), m
    assert summed == {m: calc.row(SECOND, 600)[m] for m in summed}


def test_a_converted_query_walks_no_band_to_its_row(monkeypatch):
    expected = {kind: StirlingCalculator().row(kind, 400)[390] for kind in (FIRST, SECOND)}
    bands = []
    band = engine._band

    def recording(kind, row, h, n, m):
        bands.append((kind, h, n, m))
        return band(kind, row, h, n, m)

    monkeypatch.setattr(engine, "_band", recording)
    calc = StirlingCalculator()
    assert calc.value(FIRST, 400, 390) == expected[FIRST]
    assert calc.value(SECOND, 400, 390) == expected[SECOND]
    # each reads diagonal 10 of the other kind off the band to (20, 10)
    assert bands == [(SECOND, 0, 20, 10), (FIRST, 0, 20, 10)]
    # charged the cost of the route it took, 2 (d + 1)^2 for d = 10, so
    # repeated queries still grow the memo
    assert calc._walked == {FIRST: 2 * 11 ** 2, SECOND: 2 * 11 ** 2}


@pytest.mark.parametrize("kind, source", [(FIRST, SECOND), (SECOND, FIRST)])
def test_a_converted_query_carries_the_fault_at_its_entry_alone(kind, source, monkeypatch):
    expected = StirlingCalculator().row(kind, 400)[390]
    converted = converted_queries(monkeypatch)
    # a fault at the converted entry reads +delta exactly
    assert PerturbedCalculator(kind, 400, 390, -7).value(kind, 400, 390) == expected - 7
    # value() reads its source diagonal as built, so a fault at a source entry
    # (10 + k, k) stays out of it, while the conversion, which reads its source
    # through the fault hook, shows it
    for k in (0, 3, 10):
        fault = PerturbedCalculator(source, 10 + k, k, 5)
        assert fault.value(kind, 400, 390) == expected, k
        convert = fault.first_from_second if kind is FIRST else fault.second_from_first
        assert convert(400, 390) != expected, k
    assert converted == [(400, 390)] * 7


def test_special_value_columns():
    for n in range(1, 25):
        signed = stirling(FIRST, n, 1)
        assert signed == (-1) ** (n - 1) * factorial(n - 1)
        assert stirling(SECOND, n, 1) == 1
        assert stirling(FIRST, n, n) == 1
        assert stirling(SECOND, n, n) == 1
        assert stirling(FIRST, n, 0) == 0
        assert stirling(SECOND, n, 0) == 0
    assert stirling(FIRST, 5, 1) == 24
    assert stirling(SECOND, 7, 1) == 1
    assert stirling(FIRST, 6, 6) == 1


def test_point_queries_outside_triangle():
    assert stirling(SECOND, 3, 5) == 0
    assert stirling(FIRST, 0, 0) == 1
    assert stirling(UNSIGNED, 2, 9) == 0


def test_point_query_example_values():
    assert stirling(SECOND, 4, 2) == 7


def test_unsigned_is_sign_stripped_signed():
    for n in range(61):
        for m in range(n + 1):
            signed = stirling(FIRST, n, m)
            unsigned = stirling(UNSIGNED, n, m)
            assert unsigned == abs(signed)
            assert unsigned == (-1) ** (n - m) * signed


def test_sign_pattern_of_signed_first_kind():
    for n in range(1, 61):
        for m in range(1, n + 1):
            value = stirling(FIRST, n, m)
            assert value != 0
            assert value * (-1) ** (n - m) > 0


def test_unsigned_row_sums_are_factorials():
    for n in range(21):
        total = sum(stirling(UNSIGNED, n, m) for m in range(n + 1))
        assert total == factorial(n)


def test_memoization_is_observationally_transparent():
    fresh = StirlingCalculator()
    before = fresh.value(SECOND, 50, 25)
    bulk = StirlingCalculator()
    bulk.row(SECOND, 60)
    after = bulk.value(SECOND, 50, 25)
    assert before == after
    # and repeated queries on the same calculator agree with themselves
    assert fresh.value(SECOND, 50, 25) == before


def test_conversion_examples():
    assert first_from_second(3, 2) == -3
    assert first_from_second(5, 2) == -50
    assert second_from_first(4, 2) == 7
    assert second_from_first(5, 3) == 25
    for n in (1, 2, 7, 19):
        assert first_from_second(n, n) == 1
        assert second_from_first(n, n) == 1


def test_conversion_round_trip_against_recurrences():
    for n in range(1, 61):
        for m in range(1, n + 1):
            assert first_from_second(n, m) == stirling(FIRST, n, m)
            assert second_from_first(n, m) == stirling(SECOND, n, m)


@pytest.mark.parametrize(
    "calc",
    [
        StirlingCalculator(),
        PerturbedCalculator(SECOND, 30, 7, delta=1),
        PerturbedCalculator(FIRST, 33, 2, delta=-3),
        # faults in source rows >= 40, which the sweeps walk as a band
        PerturbedCalculator(SECOND, 55, 20),
        PerturbedCalculator(FIRST, 78, 39, delta=-2),
    ],
    ids=["healthy", "second:30:7", "first:33:2:-3", "second:55:20", "first:78:39:-2"],
)
def test_point_and_sweep_conversions_agree(calc):
    # the point path fills the conversion sum from math.comb, the eq1/eq2
    # sweeps from the Pascal table; for every 1 <= m <= n <= 40 both must
    # rebuild the same value, the sweep's counterexample lhs where its
    # rebuilt value differs from value() and value() everywhere else
    cases = [
        (IdentityId.CONVERSION_1, calc.first_from_second, FIRST),
        (IdentityId.CONVERSION_2, calc.second_from_first, SECOND),
    ]
    for identity, convert, target in cases:
        rebuilt = {
            (ce.indices["n"], ce.indices["m"]): ce.lhs
            for ce in run_identity(identity, 40, calc).counterexamples
        }
        for n in range(1, 41):
            for m in range(1, n + 1):
                direct = calc.value(target, n, m)
                assert convert(n, m) == rebuilt.get((n, m), direct), (identity, n, m)


def test_pascal_table_rows_are_signed_binomials():
    rows = _pascal(81)
    assert len(rows) == 162
    # rows 0..80 are whole; later rows keep their first 81 entries
    assert rows[:81] == [
        tuple((-1) ** j * comb(r, j) for j in range(r + 1)) for r in range(81)
    ]
    assert rows[161] == tuple((-1) ** j * comb(161, j) for j in range(81))
    assert _pascal(5) == [row[:5] for row in rows[:10]]
    assert _pascal(0) == []


def pascal_triangle(rows):
    # additive oracle: nothing but C(0,0) = 1 and Pascal's rule
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        tri.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return tri


def test_pascal_table_matches_additive_oracle():
    tri = pascal_triangle(40)
    rows = _pascal(41)
    for r in range(41):
        assert rows[r] == tuple((-1) ** j * c for j, c in enumerate(tri[r]))


def test_pascal_table_rule_symmetry_and_row_sums():
    rows = _pascal(101)
    for r in range(1, 101):
        # (1 - x)^r = (1 - x)^(r-1) - x (1 - x)^(r-1)
        prev = rows[r - 1] + (0,)
        assert rows[r] == tuple(prev[j] - (prev[j - 1] if j else 0) for j in range(r + 1))
        assert [abs(c) for c in rows[r]] == [abs(c) for c in reversed(rows[r])]
        assert sum(rows[r]) == 0
        assert sum(map(abs, rows[r])) == 2**r


def test_conversion_domain_errors():
    for bad in [(3, 0), (0, 0), (2, 3)]:
        with pytest.raises(ValueError):
            first_from_second(*bad)
        with pytest.raises(ValueError):
            second_from_first(*bad)


@pytest.mark.parametrize("cap, error, message", [
    ("10", TypeError, "index cap must be an int, got str"),
    (2.5, TypeError, "index cap must be an int, got float"),
    (True, TypeError, "index cap must be an int, got bool"),
    (-1, ValueError, "index cap must be non-negative, got -1"),
])
def test_index_cap_must_be_a_non_negative_int(cap, error, message):
    with pytest.raises(error, match=message):
        StirlingCalculator(index_cap=cap)


def test_kind_token_lookup():
    assert StirlingKind("first") is FIRST
    assert StirlingKind("first-unsigned") is UNSIGNED
    assert StirlingKind("second") is SECOND
    with pytest.raises(ValueError):
        StirlingKind("third")


@pytest.mark.parametrize("kind", ["second", None, 1])
def test_kind_must_be_a_stirling_kind(kind):
    # a mistyped kind never matches a stored row, so a PerturbedCalculator
    # built with one would inject no fault and every sweep would pass
    calc = StirlingCalculator()
    calls = [
        lambda: calc.row(kind, 5),
        lambda: calc.value(kind, 5, 2),
        lambda: calc.value(kind, 3, 5),
        lambda: calc.triangle(kind, 3),
        lambda: PerturbedCalculator(kind, 5, 2),
        lambda: Triangle(kind, [(1,)]),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=f"kind must be a StirlingKind, got {kind!r}"):
            call()


def test_index_cap_enforced():
    calc = StirlingCalculator(index_cap=50)
    assert calc.value(SECOND, 50, 10) > 0
    with pytest.raises(IndexLimitError):
        calc.value(SECOND, 51, 10)
    with pytest.raises(IndexLimitError):
        calc.triangle(SECOND, 51)
    with pytest.raises(IndexLimitError):
        calc.first_from_second(51, 1)
    assert len(calc.row(SECOND, 50)) == 51
    with pytest.raises(IndexLimitError):
        calc.row(SECOND, 51)
    with pytest.raises(ValueError):
        calc.value(SECOND, -1, 0)


@pytest.mark.parametrize("make", [
    StirlingCalculator, lambda: PerturbedCalculator(SECOND, 3, 1),
], ids=["plain", "perturbed"])
@pytest.mark.parametrize("kind", [FIRST, SECOND])
def test_row_index_is_a_non_negative_int(make, kind):
    calc = make()
    calc.row(kind, 4)  # memoized rows that a negative index would wrap around to
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        calc.row(kind, -1)
    for inexact in (True, 2.0):
        with pytest.raises(TypeError, match="n must be an int"):
            calc.row(kind, inexact)


@pytest.mark.parametrize("convert, source, target", [
    (StirlingCalculator.first_from_second, SECOND, FIRST),
    (StirlingCalculator.second_from_first, FIRST, SECOND),
], ids=["s1-from-s2", "s2-from-s1"])
def test_conversions_store_no_source_row(convert, source, target):
    # the alternating sum at (n, m) reads source entries up to row 2(n - m),
    # past the index cap when m = 1, all off a band that is stored nowhere:
    # the source memo keeps only row 0
    for m in (1, 20, 40):
        calc = StirlingCalculator(index_cap=40)
        assert convert(calc, 40, m) == calc.value(target, 40, m)
        assert len(calc._rows[source]) == 1, m


@pytest.mark.parametrize("identity, source", [
    (IdentityId.CONVERSION_1, SECOND), (IdentityId.CONVERSION_2, FIRST),
])
def test_conversion_sweeps_store_no_source_row(identity, source):
    # the sweep up to N reads source rows up to 2N - 2, all off a band that is
    # stored nowhere: the source memo keeps only row 0
    calc = StirlingCalculator()
    assert run_identity(identity, 30, calc).passed
    assert len(calc._rows[source]) == 1


def test_a_stream_walks_no_band(monkeypatch, capsys):
    # a stream steps whole rows by _next_row, as the memo grows, off whatever
    # row the memo ends at; a fault read in one row never reaches the next
    healthy = StirlingCalculator()
    whole = {kind: tuple(healthy.row(kind, n) for n in range(41)) for kind in (FIRST, SECOND)}

    def no_band(*args):
        raise AssertionError("walked a band")

    monkeypatch.setattr(engine, "_band", no_band)
    calc = StirlingCalculator()
    assert calc.triangle(FIRST, 40).rows == whole[FIRST]
    assert calc.triangle(SECOND, 40).rows == whole[SECOND]
    assert calc.triangle(UNSIGNED, 40).rows == tuple(tuple(map(abs, row)) for row in whole[FIRST])
    for identity in (IdentityId.UNIT_SUM_5, IdentityId.DERIV_RELATION_17):
        assert run_identity(identity, 40, StirlingCalculator()).passed
    for text in ("table", "csv", "json"):
        assert run(["triangle", "--kind", "second", "--rows", "40", "--format", text]) == EXIT_OK
        out = capsys.readouterr().out
        if text == "csv":
            assert out == Triangle(SECOND, whole[SECOND]).to_csv()
        assert out.count("\n") >= 41
    for kind in (FIRST, SECOND):
        for h in (0, 19, 20, 21, 40):
            fault = PerturbedCalculator(kind, 20, 3)
            fault.row(kind, h)
            streamed = list(fault._stream(kind, 40))
            assert len(fault._rows[kind]) == h + 1
            assert streamed == [fault.row(kind, n) for n in range(41)], (kind, h)
            offset = [n for n in range(41) if streamed[n] != whole[kind][n]]
            assert offset == [20], (kind, h)
            assert streamed[20][3] == whole[kind][20][3] + 1


def test_triangle_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Triangle(SECOND, [(1,), (0, 1, 9)])
    with pytest.raises(ValueError, match="row 0"):
        Triangle(SECOND, [])


@pytest.mark.parametrize("rows", [[(1.9,)], [(1,), (0, True)], [("1",)]])
def test_triangle_rejects_inexact_entries(rows):
    with pytest.raises(TypeError, match="triangle entry must be an int"):
        Triangle(SECOND, rows)


def test_triangle_is_a_frozen_value_equal_to_the_memo_rows():
    calc = StirlingCalculator()
    tri = calc.triangle(SECOND, 5)
    assert tri.rows == tuple(calc.row(SECOND, n) for n in range(6))
    twin = Triangle(SECOND, [list(row) for row in tri.rows])
    assert twin == tri and twin is not tri
    assert hash(twin) == hash(tri) == hash((SECOND, tri.rows))
    assert tri != Triangle(FIRST, tri.rows)
    assert repr(tri) == "Triangle('second', rows=0..5)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        tri.rows = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        del tri.rows
    assert tri != (SECOND, tri.rows)


def test_csv_export():
    tri = build_triangle(SECOND, 3)
    assert tri.to_csv() == "1\n0,1\n0,1,1\n0,1,3,1\n"
    assert build_triangle(FIRST, 0).to_csv() == "1\n"


def test_json_export_is_decimal_strings_and_round_trips():
    tri = build_triangle(FIRST, 3)
    text = tri.to_json()
    data = json.loads(text)
    assert data == [["1"], ["0", "1"], ["0", "-1", "1"], ["0", "2", "-3", "1"]]
    assert dump_json(data) == text


def test_concurrent_point_queries_match_sequential():
    reference = StirlingCalculator()
    reference.row(FIRST, 39)
    reference.row(SECOND, 39)
    tasks = [
        (kind, n, m)
        for kind in (FIRST, SECOND, UNSIGNED)
        for n in range(40)
        for m in range(n + 1)
    ]
    expected = {t: reference.value(*t) for t in tasks}
    shuffled = tasks[:]
    random.Random(7).shuffle(shuffled)

    calc = StirlingCalculator()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda t: (t, calc.value(*t)), shuffled))
    assert dict(results) == {t: expected[t] for t in shuffled}


def test_concurrent_walks_and_row_growth_match_sequential():
    # walks read the last memoized row while other threads append rows
    reference = StirlingCalculator()
    reference.row(FIRST, 120)
    reference.row(SECOND, 120)
    tasks = [(kind, n, m) for kind in (FIRST, SECOND, UNSIGNED)
             for n in range(8, 121, 8) for m in (1, n // 3, n - 1)]
    expected = {t: reference.value(*t) for t in tasks}
    calc = StirlingCalculator()

    def query_or_grow(i):
        kind, n, m = tasks[i]
        if i % 3 == 0:
            calc.row(SECOND if kind is SECOND else FIRST, n)
        return tasks[i], calc.value(kind, n, m)

    order = random.Random(9).sample(range(len(tasks)), len(tasks))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = dict(pool.map(query_or_grow, order, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_concurrent_bulk_builds_are_consistent():
    calc = StirlingCalculator()
    with ThreadPoolExecutor(max_workers=6) as pool:
        triangles = list(pool.map(lambda _: calc.triangle(SECOND, 45), range(6)))
    assert all(t == triangles[0] for t in triangles)
    assert triangles[0] == StirlingCalculator().triangle(SECOND, 45)


def test_perturbed_calculator_offsets_exactly_one_entry():
    healthy = StirlingCalculator()
    perturbed = PerturbedCalculator(SECOND, 5, 2, delta=1)
    diffs = [
        (kind, n, m)
        for kind in (FIRST, SECOND)
        for n in range(10)
        for m in range(n + 1)
        if perturbed.value(kind, n, m) != healthy.value(kind, n, m)
    ]
    assert diffs == [(SECOND, 5, 2)]
    assert perturbed.value(SECOND, 5, 2) == healthy.value(SECOND, 5, 2) + 1
    # the derived unsigned view reflects a signed-entry fault
    signed_fault = PerturbedCalculator(FIRST, 4, 2, delta=1)
    assert signed_fault.value(UNSIGNED, 4, 2) == healthy.value(UNSIGNED, 4, 2) + 1
    # row() hands out a perturbed copy; the stored row stays pristine, so
    # rows the recurrence builds after the faulty row was read are healthy
    assert perturbed.row(SECOND, 5) == (0, 1, 16, 25, 10, 1)
    assert perturbed._rows[SECOND][5] == healthy.row(SECOND, 5) == (0, 1, 15, 25, 10, 1)
    for kind in (FIRST, SECOND):
        assert [perturbed.row(kind, n) for n in range(6, 30)] == [
            healthy.row(kind, n) for n in range(6, 30)
        ]
    # column 0 lies inside the triangle for the fault injector
    column_zero = PerturbedCalculator(FIRST, 1, 0, delta=1)
    assert column_zero.row(FIRST, 1) == (1, 1)
    assert column_zero.value(FIRST, 1, 0) == 1
    assert column_zero.row(FIRST, 2) == healthy.row(FIRST, 2)


_INDICES = strategies.integers(0, 12)
_READS = strategies.one_of(
    strategies.tuples(strategies.just("value"), strategies.sampled_from(StirlingKind),
                      _INDICES, _INDICES),
    strategies.tuples(strategies.just("row"), strategies.sampled_from([FIRST, SECOND]), _INDICES),
    strategies.tuples(strategies.just("triangle"), strategies.sampled_from(StirlingKind), _INDICES),
    strategies.integers(1, 12).flatmap(lambda n: strategies.tuples(
        strategies.sampled_from(["first_from_second", "second_from_first"]),
        strategies.just(n), strategies.integers(1, n))),
)
_FAULTS = strategies.none() | strategies.integers(0, 12).flatmap(lambda n: strategies.tuples(
    strategies.sampled_from([FIRST, SECOND]), strategies.just(n), strategies.integers(0, n),
    strategies.integers(-3, 3).filter(bool)))


def _near_diagonal(d):
    # a fault past the conversion's floor, or on a source diagonal: value()
    # converts entries (n, n - d) from the other kind's diagonal d, whose entries
    # (d + k, k) it reads as built, while the two conversions read them through
    # the fault hook
    stored = strategies.sampled_from([FIRST, SECOND])
    near = strategies.integers(32, 160).map(lambda n: (n, n - d))
    entries = near | strategies.integers(0, d).map(lambda k: (d + k, k))
    reads = strategies.one_of(
        strategies.tuples(strategies.just("value"), strategies.sampled_from(StirlingKind),
                          entries).map(lambda read: (*read[:2], *read[2])),
        strategies.tuples(strategies.just("row"), stored, strategies.integers(0, 2 * d)),
        strategies.tuples(strategies.sampled_from(["first_from_second", "second_from_first"]),
                          near).map(lambda read: (read[0], *read[1])),
    )
    faults = strategies.tuples(stored, entries, strategies.integers(-3, 3).filter(bool)).map(
        lambda fault: (fault[0], *fault[1], fault[2]))
    return strategies.tuples(faults, strategies.lists(reads, max_size=25))


def _beside_a_fold(n, m):
    # a fault on or beside a first-kind entry mid-row past the fold's floor,
    # which value() folds off the memo, or walks once the reads have grown it
    near = strategies.tuples(strategies.integers(n - 1, n + 1), strategies.integers(m - 1, m + 1))
    reads = strategies.tuples(strategies.just("value"), strategies.sampled_from([FIRST, UNSIGNED]),
                              near).map(lambda read: (*read[:2], *read[2]))
    faults = strategies.tuples(strategies.sampled_from([FIRST, SECOND]), near,
                               strategies.integers(-3, 3).filter(bool)).map(
        lambda fault: (fault[0], *fault[1], fault[2]))
    return strategies.tuples(faults, strategies.lists(reads, max_size=25))


_MID_ROW = strategies.integers(32, 160).flatmap(
    lambda n: strategies.tuples(strategies.just(n), strategies.integers(n // 4, 3 * n // 4)))


@settings(deadline=None)
@given(strategies.tuples(_FAULTS, strategies.lists(_READS, max_size=25))
       | strategies.integers(0, 12).flatmap(_near_diagonal)
       | _MID_ROW.flatmap(lambda entry: _beside_a_fold(*entry)))
def test_every_read_path_carries_the_fault_at_its_entry_alone(case):
    # one calculator serves every read, so memo reads, walks from each memo
    # height, explicit sums, folds, conversions and growth mix in whatever
    # order is drawn
    fault, reads = case

    def fresh():
        return StirlingCalculator() if fault is None else PerturbedCalculator(*fault)

    healthy = StirlingCalculator()

    def expected(kind, n, m):
        if m > n:
            return 0
        if kind is UNSIGNED:
            return (-1) ** (n - m) * expected(FIRST, n, m)
        offset = fault[3] if fault is not None and fault[:3] == (kind, n, m) else 0
        return healthy.row(kind, n)[m] + offset

    def expected_row(kind, n):
        return tuple(expected(kind, n, m) for m in range(n + 1))

    calc = fresh()
    for name, *args in reads:
        result = getattr(calc, name)(*args)
        assert result == getattr(fresh(), name)(*args)
        if name == "value":
            assert result == expected(*args)
        elif name == "row":
            assert result == expected_row(*args)
        elif name == "triangle":
            kind, top = args
            assert result.rows == tuple(expected_row(kind, n) for n in range(top + 1))
        if fault is not None:
            assert calc.value(*fault[:3]) == expected(*fault[:3])


def test_perturbed_calculator_argument_validation():
    with pytest.raises(ValueError, match="stored for first and second, not first-unsigned"):
        PerturbedCalculator(UNSIGNED, 3, 1)
    with pytest.raises(ValueError):
        PerturbedCalculator(SECOND, 3, 4)
    with pytest.raises(ValueError):
        PerturbedCalculator(SECOND, 3, 1, delta=0)
    for inexact in (0.5, True):
        with pytest.raises(TypeError, match="delta must be an int"):
            PerturbedCalculator(SECOND, 3, 1, delta=inexact)


def _triangular_rows(top):
    # rows 0..top, row n of n + 1 ints: almost surely off both kinds' recurrences
    entry = strategies.integers(-10 ** 6, 10 ** 6)
    return strategies.tuples(*(strategies.tuples(*[entry] * (n + 1)) for n in range(top + 1)))


@settings(deadline=None)
@given(strategies.integers(0, 10).flatmap(lambda top: strategies.tuples(
    strategies.just(top), _triangular_rows(top), _triangular_rows(top))))
def test_the_product_is_its_sums_for_any_triangular_rows(case):
    # engine._product steps the product by the Stirling recurrences and corrects
    # each row where a row it read breaks them; for arbitrary rows every
    # correction runs, and each entry, row 0 and column 0 included, must still be
    # sum_l outer(m, l) inner(l, k)
    top, first_rows, second_rows = case
    rows = {FIRST: first_rows, SECOND: second_rows}
    calc = SimpleNamespace(row=lambda kind, n: rows[kind][n])
    for outer, inner in ((FIRST, SECOND), (SECOND, FIRST)):
        o, i = rows[outer], rows[inner]
        expected = [[sum(o[m][l] * i[l][k] for l in range(k, m + 1)) for k in range(m + 1)]
                    for m in range(top + 1)]
        assert engine._product(calc, outer, inner, top) == expected, (outer, inner)
