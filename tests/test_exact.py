"""Substrate tests: factorials against a brute-force oracle, index guard
rails, and the exact text codecs."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies

from stirling.exact import (
    DEFAULT_INDEX_CAP,
    IndexLimitError,
    check_index,
    check_int,
    check_limit,
    check_rational,
    dump_json,
    factorial,
    format_int,
    format_rational,
    parse_int,
    parse_rational,
)


def product_factorial(n):
    out = 1
    for i in range(1, n + 1):
        out *= i
    return out


def test_factorial_examples():
    assert factorial(0) == 1
    assert factorial(4) == 24 == product_factorial(4)
    assert factorial(10) == 3628800 == product_factorial(10)


@pytest.mark.parametrize("n", [25, 100, 300])
def test_factorial_matches_iterated_multiplication(n):
    assert factorial(n) == product_factorial(n)


def test_large_values_stay_exact():
    # thousands of decimal digits, no overflow, no rounding
    value = factorial(2000)
    assert len(str(value)) > 5000
    assert value % 2000 == 0


def test_index_guard_rails():
    assert check_index(0) == 0
    assert check_index(DEFAULT_INDEX_CAP) == DEFAULT_INDEX_CAP
    with pytest.raises(IndexLimitError):
        check_index(DEFAULT_INDEX_CAP + 1)
    with pytest.raises(IndexLimitError):
        factorial(20_000)
    with pytest.raises(ValueError):
        factorial(-1)
    with pytest.raises(TypeError):
        check_index(True)
    assert check_index(500, cap=500) == 500
    with pytest.raises(IndexLimitError):
        check_index(501, cap=500)


class Small(int):
    """An int subclass; rejected exactly where bool is."""


def test_exactness_guards():
    assert check_int(7, "n") == 7
    for inexact in (True, Small(7), 7.0, "7", Fraction(7)):
        with pytest.raises(TypeError, match="^n must be an int, got "):
            check_int(inexact, "n")
    with pytest.raises(TypeError):
        check_index(Small(3))
    assert check_rational("2/4") == Fraction(1, 2)
    assert check_rational(3) == Fraction(3)
    with pytest.raises(TypeError, match="floats are not exact"):
        check_rational(0.5)
    assert check_limit(0, "oracle budget") == 0
    with pytest.raises(ValueError, match="oracle budget must be non-negative, got -1"):
        check_limit(-1, "oracle budget")


class Ratio(Fraction):
    """A Fraction subclass; converted to a plain Fraction, not passed through."""


def test_check_rational_hands_back_a_fraction_itself():
    half = Fraction(1, 2)
    assert check_rational(half) is half
    converted = check_rational(Ratio(1, 2))
    assert type(converted) is Fraction and converted == half
    for inexact in (0.5, 2.0):
        with pytest.raises(TypeError, match="floats are not exact"):
            check_rational(inexact)


def test_int_codec():
    assert format_int(-5) == "-5"
    assert format_int(0) == "0"
    assert parse_int("123456789012345678901234567890") == 123456789012345678901234567890
    assert parse_int(" -42 ") == -42
    assert parse_int("−7") == -7  # typographic minus tolerated on input
    with pytest.raises(TypeError, match="value must be an int, got float"):
        format_int(1.5)


def test_rational_codec():
    assert format_rational(Fraction(3, 7)) == "3/7"
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(5) == "5"
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-9") == Fraction(-9)
    assert parse_rational("−3/7") == Fraction(-3, 7)
    with pytest.raises(TypeError):
        format_rational(0.5)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_rational_codec_round_trip():
    values = [Fraction(0), Fraction(1, 3), Fraction(-7, 11), Fraction(10**40, 3**30)]
    for v in values:
        assert parse_rational(format_rational(v)) == v


@given(
    strategies.integers(min_value=-(10**30), max_value=10**30),
    strategies.integers(min_value=1, max_value=10**30),
    strategies.integers(min_value=-(10**15), max_value=10**15).filter(lambda g: g != 0),
)
def test_rational_normalization(p, q, g):
    assert Fraction(p * g, q * g) == Fraction(p, q)
    assert Fraction(p, q).denominator > 0


def test_dump_json_round_trips_byte_identical():
    payload = {"id": "x", "values": ["-12", "3/7"], "count": 3, "nested": {"a": [1, 2]}}
    text = dump_json(payload)
    assert dump_json(json.loads(text)) == text
