"""CLI contract tests: output bytes, exit codes, env fallbacks, JSON
round-tripping. Everything runs in-process through cli.run()."""

import argparse
import functools
import json
import os
import re
import signal
import subprocess
import sys
from itertools import chain
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from stirling import cli
from stirling.cli import (
    ENV_INDEX_CAP,
    ENV_ORACLE_BUDGET,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_parser,
    run,
)
from stirling import engine, oracle
from stirling.engine import PerturbedCalculator, StirlingCalculator, StirlingKind, stirling
from stirling.exact import dump_json
from stirling.oracle import count_set_partitions

try:
    import resource
except ImportError:  # not on Windows
    resource = None

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
# argv, exit code, stdout and stderr of triangle, value, convert, oracle-check
# and bad --inject-fault specs; see CHANGES.md for how it was written
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())
IDENTITY_TOKENS = [
    "eq1", "eq2", "eq3", "eq4", "eq5", "eq6",
    "eq11", "eq12", "eq13", "eq14", "eq15", "eq16", "eq17", "eq18",
]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_INDEX_CAP, raising=False)
    monkeypatch.delenv(ENV_ORACLE_BUDGET, raising=False)


def _masked(text):
    # the golden files' form of the output: verify's timings replaced by N
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": N', text)
    return re.sub(r"\d+ ms$", "N ms", text, flags=re.M)


def test_triangle_csv_example(capsys):
    assert run(["triangle", "--kind", "second", "--rows", "3", "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == "1\n0,1\n0,1,1\n0,1,3,1\n"


def test_triangle_row_zero_table(capsys):
    assert run(["triangle", "--kind", "first", "--rows", "0"]) == EXIT_OK
    assert capsys.readouterr().out == "1\n"


def test_triangle_table_pads_columns(capsys):
    assert run(["triangle", "--kind", "first", "--rows", "4"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "1\n"
        "0  1\n"
        "0 -1  1\n"
        "0  2 -3  1\n"
        "0 -6 11 -6 1\n"
    )


def _table_sized_over_every_cell(rows):
    # each column right-aligned to the widest of all its cells
    cells = [[str(v) for v in row] for row in rows]
    widths = {}
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths.get(i, 0), len(cell))
    return "".join(
        " ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip() + "\n"
        for row in cells
    )


@pytest.mark.parametrize("kind", ["first", "first-unsigned", "second"])
def test_triangle_table_columns_are_as_wide_as_their_widest_cell(capsys, kind):
    # the table sizes its columns from its last two rows alone, which must
    # give every column the width of its widest cell at every size
    rows = StirlingCalculator().triangle(StirlingKind(kind), 120).rows
    for n in range(121):
        assert run(["triangle", "--kind", kind, "--rows", str(n)]) == EXIT_OK
        assert capsys.readouterr().out == _table_sized_over_every_cell(rows[:n + 1])


def test_triangle_json_round_trips(capsys):
    assert run(["triangle", "--kind", "second", "--rows", "5", "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data[5] == ["0", "1", "15", "25", "10", "1"]
    assert dump_json(data) + "\n" == out


@pytest.mark.parametrize("rows", [0, 1, 2, 40])
@pytest.mark.parametrize("kind", ["first", "first-unsigned", "second"])
def test_triangle_csv_and_json_print_the_snapshot_exports(capsys, kind, rows):
    # the command streams its rows, yet prints the snapshot's exports byte for byte
    triangle = StirlingCalculator().triangle(StirlingKind(kind), rows)
    for fmt, out in [("csv", triangle.to_csv()), ("json", triangle.to_json() + "\n")]:
        assert run(["triangle", "--kind", kind, "--rows", str(rows), "--format", fmt]) == EXIT_OK
        assert capsys.readouterr().out == out


def test_triangle_exceeding_cap_exits_3(capsys):
    assert run(["triangle", "--kind", "second", "--rows", "20000"]) == EXIT_LIMIT
    assert "index cap" in capsys.readouterr().err


def test_triangle_negative_rows_is_usage_error():
    assert run(["triangle", "--kind", "second", "--rows", "-1"]) == EXIT_USAGE


def test_triangle_unknown_kind_is_usage_error():
    assert run(["triangle", "--kind", "third", "--rows", "2"]) == EXIT_USAGE


def test_value_examples(capsys):
    assert run(["value", "--kind", "first", "5", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "24\n"
    assert run(["value", "--kind", "second", "4", "2"]) == EXIT_OK
    assert capsys.readouterr().out == "7\n"
    assert run(["value", "--kind", "second", "3", "5"]) == EXIT_OK
    assert capsys.readouterr().out == "0\n"
    assert run(["value", "--kind", "first-unsigned", "5", "2"]) == EXIT_OK
    assert capsys.readouterr().out == "50\n"


def test_value_bad_arguments():
    assert run(["value", "--kind", "first", "x", "1"]) == EXIT_USAGE
    assert run(["value", "--kind", "first", "-1", "1"]) == EXIT_USAGE
    assert run(["value", "5", "1"]) == EXIT_USAGE


def test_convert_agreement(capsys):
    assert run(["convert", "--direction", "s1-from-s2", "5", "2"]) == EXIT_OK
    assert capsys.readouterr().out == "value: -50\nrecurrence: -50\nagree: yes\n"
    assert run(["convert", "--direction", "s2-from-s1", "5", "3", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "direction": "s2-from-s1",
        "n": 5,
        "m": 3,
        "value": "25",
        "recurrence": "25",
        "agree": True,
    }


@pytest.mark.parametrize("direction", ["s1-from-s2", "s2-from-s1"])
def test_convert_does_not_check_the_conversion_against_itself(direction, monkeypatch, capsys):
    # value() converts (400, 390), so convert's recurrence side must take
    # another route, or a broken conversion sum would agree with itself
    conversion_sum = engine._conversion_sum
    monkeypatch.setattr(engine, "_conversion_sum", lambda *args: conversion_sum(*args) + 1)
    assert run(["convert", "--direction", direction, "400", "390"]) == EXIT_VIOLATION
    value, recurrence, agree = capsys.readouterr().out.splitlines()
    assert int(value.removeprefix("value: ")) == int(recurrence.removeprefix("recurrence: ")) + 1
    assert agree == "agree: no"


def test_convert_domain_error_is_usage():
    assert run(["convert", "--direction", "s1-from-s2", "3", "0"]) == EXIT_USAGE
    assert run(["convert", "--direction", "s1-from-s2", "3", "4"]) == EXIT_USAGE


def test_verify_single_identity_json(capsys):
    assert run(["verify", "--identity", "eq5", "--max", "30", "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["id"] == "eq5"
    assert data["status"] == "pass"
    assert data["range"] == "1 <= m <= 30 (30 cases)"
    assert data["counterexamples"] == []
    assert dump_json(data) + "\n" == out


def test_verify_all_reports_and_exit_zero(capsys):
    assert run(["verify", "--identity", "all", "--max", "25", "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    data = json.loads(out)
    assert dump_json(data) + "\n" == out
    assert data["all_passed"] is True
    assert [r["id"] for r in data["reports"]] == IDENTITY_TOKENS
    assert all(r["status"] == "pass" for r in data["reports"])


def test_verify_table_lists_every_identity(capsys):
    assert run(["verify", "--identity", "all", "--max", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["id", "status", "range", "counterexamples", "elapsed"]
    assert "14 identities checked, all passed" in out


def test_every_kind_and_identity_token_resolves(capsys):
    kinds = {
        "first": StirlingKind.FIRST_SIGNED,
        "first-unsigned": StirlingKind.FIRST_UNSIGNED,
        "second": StirlingKind.SECOND,
    }
    for token, kind in kinds.items():
        assert run(["value", "--kind", token, "6", "3"]) == EXIT_OK
        assert capsys.readouterr().out == f"{stirling(kind, 6, 3)}\n"
        assert run(["triangle", "--kind", token, "--rows", "3", "--format", "csv"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 4
    for token in IDENTITY_TOKENS:
        assert run(["verify", "--identity", token, "--max", "6", "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["id"] == token
    assert run(["verify", "--identity", "all", "--max", "6", "--format", "json"]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [report["id"] for report in reports] == IDENTITY_TOKENS


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("label, fault, code", [
    ("healthy", [], EXIT_OK),
    ("second-6-3-1", ["--inject-fault", "second:6:3:1"], EXIT_VIOLATION),
    ("first-0-0-2", ["--inject-fault", "first:0:0:2"], EXIT_VIOLATION),
    # a fault past row 12 that eq1 reads off a walked source diagonal
    ("second-15-4-1", ["--inject-fault", "second:15:4:1"], EXIT_VIOLATION),
])
def test_verify_all_matches_the_golden_bytes(capsys, fmt, label, fault, code):
    # tests/golden holds this stdout with the timings masked; see CHANGES.md
    argv = ["verify", "--identity", "all", "--max", "12", "--format", fmt, *fault]
    assert run(argv) == code
    golden = GOLDEN / f"verify_all_12_{label}.{fmt}"
    assert _masked(capsys.readouterr().out) == golden.read_text()


@pytest.mark.parametrize("case", COMMANDS, ids=[" ".join(case["argv"]) for case in COMMANDS])
def test_commands_match_the_golden_bytes(capsys, case):
    code = run(case["argv"])
    out, err = capsys.readouterr()
    assert (code, _masked(out), _masked(err)) == (case["code"], case["stdout"], case["stderr"])


def test_verify_unknown_identity_exits_2(capsys):
    assert run(["verify", "--identity", "eq99"]) == EXIT_USAGE


def test_verify_injected_fault_exits_1_with_counterexamples(capsys):
    code = run([
        "verify", "--identity", "all", "--max", "12",
        "--inject-fault", "second:5:2:1", "--format", "json",
    ])
    assert code == EXIT_VIOLATION
    data = json.loads(capsys.readouterr().out)
    assert data["all_passed"] is False
    failing = [r for r in data["reports"] if r["status"] == "fail"]
    assert failing
    assert all(r["counterexamples"] for r in failing)
    ce = failing[0]["counterexamples"][0]
    assert set(ce) == {"indices", "lhs", "rhs"}


def test_verify_fault_in_table_mode_prints_counterexamples(capsys):
    code = run(["verify", "--identity", "eq5", "--max", "9", "--inject-fault", "second:5:2:1"])
    assert code == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "counterexamples for eq5:" in out
    assert "m=5: lhs=" in out
    assert "violations found" in out


def test_verify_bad_fault_spec_is_usage_error(capsys):
    assert run(["verify", "--identity", "eq5", "--inject-fault", "second:5"]) == EXIT_USAGE
    assert run(["verify", "--identity", "eq5", "--inject-fault", "third:5:2:1"]) == EXIT_USAGE
    assert run(["verify", "--identity", "eq5", "--inject-fault", "second:a:b"]) == EXIT_USAGE
    assert run(["verify", "--identity", "eq5", "--inject-fault", "second:2:5:1"]) == EXIT_USAGE


def test_verify_max_above_cap_exits_3():
    assert run(["verify", "--identity", "eq5", "--max", "20000"]) == EXIT_LIMIT


def test_oracle_check_pass(capsys):
    assert run(["oracle-check", "--max", "8"]) == EXIT_OK
    assert capsys.readouterr().out == "72 cases, all equal\n"
    assert run(["oracle-check", "--max", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "2 cases, all equal\n"


def test_oracle_check_over_budget_exits_3(capsys):
    assert run(["oracle-check", "--max", "12"]) == EXIT_LIMIT
    assert "budget" in capsys.readouterr().err


def test_oracle_check_reports_a_mismatch(monkeypatch, capsys):
    def off_by_one_at_4_2(n, m, budget):
        return count_set_partitions(n, m, budget) + ((n, m) == (4, 2))

    monkeypatch.setattr("stirling.cli.count_set_partitions", off_by_one_at_4_2)
    assert run(["oracle-check", "--max", "5"]) == EXIT_VIOLATION
    assert capsys.readouterr().out == (
        "30 cases, 1 mismatch\n  second (n=4, m=2): engine=7 enumeration=8\n"
    )


def test_oracle_check_and_triangle_read_the_calculator_not_a_snapshot(monkeypatch, capsys):
    def no_snapshot(*args):
        raise AssertionError("the command took a triangle snapshot")

    monkeypatch.setattr(StirlingCalculator, "triangle", no_snapshot)
    monkeypatch.setattr(engine.Triangle, "__init__", no_snapshot)
    assert run(["oracle-check", "--max", "6"]) == EXIT_OK
    assert capsys.readouterr().out == "42 cases, all equal\n"
    rows = [["1"], ["0", "1"], ["0", "1", "1"], ["0", "2", "3", "1"]]
    for fmt, out in [
        ("table", "1\n0 1\n0 1 1\n0 2 3 1\n"),
        ("csv", "1\n0,1\n0,1,1\n0,2,3,1\n"),
        ("json", dump_json(rows) + "\n"),
    ]:
        assert run(["triangle", "--kind", "first-unsigned", "--rows", "3", "--format", fmt]) == EXIT_OK
        assert capsys.readouterr().out == out


def test_oracle_check_compares_the_enumeration_with_the_walk(monkeypatch, capsys):
    # the enumeration must be checked against the recurrence: at n <= 8 no
    # converted, summed or folded value stands in for it
    def no_shortcut(*args):
        raise AssertionError("oracle-check read a value off the recurrence")

    monkeypatch.setattr(engine, "_converted", no_shortcut)
    monkeypatch.setattr(engine, "_second_kind_sum", no_shortcut)
    monkeypatch.setattr(engine, "_folded", no_shortcut)
    assert run(["oracle-check", "--max", "8"]) == EXIT_OK
    assert capsys.readouterr().out == "72 cases, all equal\n"


def test_oracle_check_checks_the_index_cap_before_enumerating(monkeypatch, capsys):
    def no_enumeration(n, m, budget):
        raise AssertionError("oracle-check enumerated past the index cap")

    monkeypatch.setattr("stirling.cli.count_permutations_by_cycles", no_enumeration)
    assert run(["--index-cap", "4", "oracle-check", "--max", "5"]) == EXIT_LIMIT
    assert capsys.readouterr().err == "stirling: --max=5 exceeds the index cap of 4\n"


def test_oracle_check_checks_the_index_cap_before_walking_partitions(monkeypatch, capsys):
    def no_enumeration(n, m, budget):
        raise AssertionError("oracle-check walked partitions past the index cap")

    monkeypatch.setattr("stirling.cli.count_set_partitions", no_enumeration)
    assert run(["--index-cap", "4", "oracle-check", "--max", "5"]) == EXIT_LIMIT
    assert capsys.readouterr().err == "stirling: --max=5 exceeds the index cap of 4\n"


@pytest.mark.parametrize("max_n", range(1, 6))
def test_oracle_check_below_and_at_the_block(monkeypatch, capsys, max_n):
    # sizes 1..4 meet their k! boundary inside Heap's first block of five
    # positions, and 5 ends on it; each must come out of a fresh run
    monkeypatch.setattr(oracle, "_PERMUTATION_CENSUSES", {})
    monkeypatch.setattr(oracle, "_PARTITION_CENSUSES", {})
    assert run(["oracle-check", "--max", str(max_n)]) == EXIT_OK
    assert capsys.readouterr().out == f"{max_n * (max_n + 1)} cases, all equal\n"


@pytest.mark.parametrize("argv, code, err", [
    (["verify", "--identity", "eq1", "--max", "5"], EXIT_LIMIT,
     "--max=5 exceeds the index cap of 4"),
    (["triangle", "--kind", "second", "--rows", "5"], EXIT_LIMIT,
     "--rows=5 exceeds the index cap of 4"),
    (["verify", "--identity", "eq1", "--max", "-1"], EXIT_USAGE,
     "--max must be non-negative, got -1"),
    (["triangle", "--kind", "second", "--rows", "-1"], EXIT_USAGE,
     "--rows must be non-negative, got -1"),
    # the fault is parsed first, so its index is the one reported
    (["verify", "--identity", "all", "--max", "5", "--inject-fault", "second:6:2"],
     EXIT_LIMIT, "n=6 exceeds the index cap of 4"),
], ids=["verify", "triangle", "verify-negative", "triangle-negative", "verify-fault"])
def test_index_errors_name_the_flag(capsys, argv, code, err):
    assert run(["--index-cap", "4", *argv]) == code
    assert capsys.readouterr().err == f"stirling: {err}\n"


@pytest.mark.parametrize("kind, n, m, line", [
    (StirlingKind.SECOND, 4, 2, "second (n=4, m=2): engine=8 enumeration=7"),
    # the signed entry -50 goes to -49: the unsigned view reads 49
    (StirlingKind.FIRST_SIGNED, 5, 2, "first-unsigned (n=5, m=2): engine=49 enumeration=50"),
], ids=["second", "first-signed"])
def test_oracle_check_catches_an_engine_fault(monkeypatch, capsys, kind, n, m, line):
    def faulty(index_cap):
        return PerturbedCalculator(kind, n, m, index_cap=index_cap)

    monkeypatch.setattr("stirling.cli.StirlingCalculator", faulty)
    assert run(["oracle-check", "--max", "6"]) == EXIT_VIOLATION
    assert capsys.readouterr().out == f"42 cases, 1 mismatch\n  {line}\n"


def test_oracle_check_max_below_one_is_usage_error(capsys):
    assert run(["oracle-check", "--max", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "stirling: --max must be at least 1, got 0\n"


def test_oracle_check_budget_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv(ENV_ORACLE_BUDGET, "4")
    assert run(["oracle-check", "--max", "5"]) == EXIT_LIMIT
    capsys.readouterr()
    assert run(["oracle-check", "--max", "5", "--budget", "6"]) == EXIT_OK
    assert capsys.readouterr().out == "30 cases, all equal\n"


def test_index_cap_env_and_flag(monkeypatch, capsys):
    monkeypatch.setenv(ENV_INDEX_CAP, "2")
    assert run(["triangle", "--kind", "second", "--rows", "3"]) == EXIT_LIMIT
    capsys.readouterr()
    assert run(["--index-cap", "5", "triangle", "--kind", "second", "--rows", "3"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setenv(ENV_INDEX_CAP, "not-a-number")
    assert run(["triangle", "--kind", "second", "--rows", "3"]) == EXIT_USAGE
    assert "STIRLING_INDEX_CAP" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["value", "--kind", "first", "6", "2"],
    ["convert", "--direction", "s1-from-s2", "6", "2"],
    ["verify", "--identity", "eq5", "--max", "6"],
    ["verify", "--identity", "eq5", "--max", "4", "--inject-fault", "second:6:2"],
    ["oracle-check", "--max", "5"],
], ids=["value", "convert", "verify", "verify-fault", "oracle-check"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_index_cap_reaches_every_command(monkeypatch, capsys, argv, source):
    # one calculator per run carries the cap, into the fault calculator too
    if source == "env":
        monkeypatch.setenv(ENV_INDEX_CAP, "4")
    else:
        argv = ["--index-cap", "4", *argv]
    assert run(argv) == EXIT_LIMIT
    assert "exceeds the index cap of 4" in capsys.readouterr().err


def test_negative_limits_are_usage_errors(capsys):
    assert run(["oracle-check", "--max", "3", "--budget", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "stirling: oracle budget must be non-negative, got -1\n"
    assert run(["--index-cap", "-1", "value", "--kind", "first", "1", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "stirling: index cap must be non-negative, got -1\n"


def test_oracle_budget_env_is_read_only_by_oracle_check(monkeypatch, capsys):
    monkeypatch.setenv(ENV_ORACLE_BUDGET, "x")
    assert run(["oracle-check", "--max", "3"]) == EXIT_USAGE
    assert "STIRLING_ORACLE_BUDGET" in capsys.readouterr().err
    assert run(["value", "--kind", "first", "1", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "1\n"


def test_run_builds_one_parser_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "_parser", functools.cache(build_parser))
    # a well-formed request is read off the command table
    assert run(["value", "--kind", "second", "4", "2"]) == EXIT_OK
    assert run(["convert", "--direction", "s1-from-s2", "5", "2"]) == EXIT_OK
    assert built == []
    # the first declined request builds the shared parser, the next builds none
    assert run(["value", "--kind=second", "4", "2"]) == EXIT_OK
    assert built and built[0] is cli._parser()
    built.clear()
    assert run(["value", "--kin", "second", "4", "2"]) == EXIT_OK
    assert built == []
    # the count does see construction, and build_parser() still builds afresh
    assert build_parser() is not build_parser()
    assert built
    assert capsys.readouterr().out == "7\nvalue: -50\nrecurrence: -50\nagree: yes\n7\n7\n"


def test_no_state_carries_from_one_run_to_the_next(monkeypatch, capsys):
    def outcome(argv):
        code = run(argv)
        return code, capsys.readouterr().out

    value = ["value", "--kind", "first", "6", "2"]
    assert outcome(["--index-cap", "4", *value]) == (EXIT_LIMIT, "")
    assert outcome(value) == (EXIT_OK, "274\n")

    verify = ["verify", "--identity", "eq5", "--max", "9"]
    assert outcome([*verify, "--inject-fault", "second:5:2:1"])[0] == EXIT_VIOLATION
    assert outcome(verify)[0] == EXIT_OK

    convert = ["convert", "--direction", "s2-from-s1", "5", "3"]
    code, out = outcome([*convert, "--format", "json"])
    assert (code, json.loads(out)["value"]) == (EXIT_OK, "25")
    assert outcome(convert) == (EXIT_OK, "value: 25\nrecurrence: 25\nagree: yes\n")

    monkeypatch.setenv(ENV_INDEX_CAP, "2")
    assert outcome(["value", "--kind", "second", "4", "2"]) == (EXIT_LIMIT, "")
    monkeypatch.delenv(ENV_INDEX_CAP)
    assert outcome(["value", "--kind", "second", "4", "2"]) == (EXIT_OK, "7\n")


@pytest.mark.parametrize("argv", [
    ["value", "--kind", "third", "5", "1"],
    ["value", "5", "1"],
    ["value", "--kind", "first", "x", "1"],
    [],
    ["--help"],
    ["value", "--help"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_errors_and_help_match_a_fresh_parser(monkeypatch, capsys, argv):
    # against a fresh parser rather than fixed text: argparse's wording
    # differs between Python versions
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(argv)
    expected = (exited.value.code, *capsys.readouterr())
    assert expected[0] in (EXIT_OK, EXIT_USAGE)

    assert (run(argv), *capsys.readouterr()) == expected
    assert run(["value", "--kind", "second", "4", "2"]) == EXIT_OK
    capsys.readouterr()
    assert (run(argv), *capsys.readouterr()) == expected


@pytest.mark.parametrize("argv", [
    ["value", "--kin", "second", "4", "2"],
    ["value", "--kind=second", "4", "2"],
    ["value", "4", "--kind", "second", "--", "2"],
])
def test_argparse_still_serves_the_spellings_the_reader_declines(capsys, argv):
    assert cli._read(argv) is None
    assert run(argv) == EXIT_OK
    assert capsys.readouterr() == ("7\n", "")


def test_a_repeated_flag_goes_to_argparse_where_the_last_one_wins(capsys):
    argv = ["verify", "--identity", "eq5", "--max", "6", "--max", "7", "--format", "json"]
    assert cli._read(argv) is None
    assert run(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["range"] == "1 <= m <= 7 (7 cases)"


@pytest.mark.parametrize("argv", [
    ["value", "--kind", "second", "4", "2"],
    ["--index-cap", "40", "value", "--kind", "first-unsigned", "5", "2"],
    ["value", "4", "--kind", "first", "2"],
    ["convert", "--format", "json", "--direction", "s2-from-s1", "5", "3"],
    ["triangle", "--rows", "3", "--kind", "second", "--format", "csv"],
    ["verify", "--identity", "all", "--max", "12", "--inject-fault", "second:5:2:1"],
    ["oracle-check", "--budget", "9", "--max", "6"],
    ["oracle-check"],
])
def test_the_reader_reads_plain_requests_as_argparse_does(argv):
    read = cli._read(argv)
    assert read is not None
    assert vars(read) == vars(build_parser().parse_args(argv))


def _mostly(plain, odd):
    # seven draws in eight spelled plainly, so that about a quarter of the
    # argvs are well formed throughout
    return st.sampled_from([plain] * 7 + [odd]).flatmap(lambda tokens: tokens)


_INT_TOKENS = _mostly(
    st.integers(0, 8).map(str),
    # int() reads these as argparse's type=int does, or rejects them
    st.sampled_from(["-1", "-2", "+4", " 5", "\u0663", "0_7", "", "x", "1.0"]),
)
_ODD_TOKENS = st.sampled_from([
    "--", "-h", "--help", "--kin", "--kind=first", "--max=3", "--format",
    "--index-cap", "--nope", "-1", "value", "",
])


def _option_values(kind):
    if kind is int:
        return _INT_TOKENS
    if kind is str:
        # free text, half of it spelled like an option, which argparse
        # refuses as a value unless it reads as a negative number
        return st.sampled_from(["second:5:2:1", "first:3:1:2", "bad", "-x", "--max", "-1"])
    return _mostly(st.sampled_from(kind), st.sampled_from(["third", "", "-h", "ALL"]))


@st.composite
def _argvs(draw):
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, options, positionals = cli._COMMANDS[name]
    pieces = []
    for flag, _, kind, *_ in options:
        # absent, once, or repeated
        for _ in range(draw(st.sampled_from([0] + [1] * 8 + [2]))):
            value = draw(_option_values(kind))
            glued = draw(st.integers(0, 19)) == 0
            pieces.append([f"{flag}={value}"] if glued else [flag, value])
    count = len(positionals) + draw(st.sampled_from([0] * 14 + [-1, 1]))
    pieces += [[draw(_INT_TOKENS)] for _ in range(max(count, 0))]
    argv = [name, *chain.from_iterable(draw(st.permutations(pieces)))]
    if draw(st.booleans()):
        cap = ["--index-cap", draw(_INT_TOKENS)]
        at = draw(st.sampled_from([0, 0, 0, 1, len(argv)]))
        argv[at:at] = cap
    for _ in range(draw(st.sampled_from([0] * 14 + [1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_ODD_TOKENS))
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
# the draws above reach these only in some runs: argparse lets the last of a
# repeated flag win, and refuses a value spelled like an option
@example(["value", "--kind", "first", "--kind", "second", "4", "2"])
@example(["verify", "--identity", "eq5", "--inject-fault", "-x"])
def test_the_reader_declines_or_agrees_with_a_fresh_parser(argv):
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == vars(build_parser().parse_args(argv))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
def test_run_answers_as_a_fresh_parser_and_its_handler_would(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    got = (run(argv), *capsys.readouterr())
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_read", lambda argv: None)
        patched.setattr(cli, "_parser", build_parser)
        expected = (run(argv), *capsys.readouterr())
    assert _masked(got[1]) == _masked(expected[1])
    assert (got[0], got[2]) == (expected[0], expected[2])


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "stirling.cli", "value", "--kind", "second", "4", "2"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "7\n"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # every command is a fresh process: these modules would cost several ms of
    # each call's start-up. -S keeps a site .pth file from preloading them.
    child = (
        "import sys; sys.path.insert(0, sys.argv[1]); import stirling.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child, str(SRC)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_well_formed_requests_leave_argparse_unimported():
    # argparse pulls in gettext and locale, ~2 ms of each call's start-up;
    # only help, usage errors and unusual spellings need it
    child = (
        "import sys; sys.path.insert(0, sys.argv[1]); from stirling.cli import run; "
        "codes = [run(['value', '--kind', 'second', '4', '2']), "
        "run(['verify', '--identity', 'eq5', '--max', '6'])]; "
        "loaded = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]; "
        "codes.append(run(['value', '--kind', 'third', '1', '1'])); "
        "print(codes, loaded)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child, str(SRC)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("7\n")
    assert proc.stdout.splitlines()[-1] == "[0, 0, 2] []"
    assert proc.stderr.startswith("usage: stirling value")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="needs SIGPIPE")
def test_a_closed_reader_ends_the_command_by_sigpipe():
    # ~3 MB of csv, more than any pipe buffer holds, so the writer is still
    # writing when its reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "stirling.cli",
         "triangle", "--kind", "second", "--rows", "200", "--format", "csv"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _limit_address_space(mib=400):
    # runs in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize("argv, code, out", [
    (["value", "--kind", "second", "3000", "1"], EXIT_OK, "1\n"),
    (["value", "--kind", "first", "3000", "2999"], EXIT_OK, "-4498500\n"),
    (["value", "--kind", "first-unsigned", "3000", "1"], EXIT_OK, f"{factorial(2999)}\n"),
    (["convert", "--direction", "s1-from-s2", "1000", "1"], EXIT_OK,
     f"value: {-factorial(999)}\nrecurrence: {-factorial(999)}\nagree: yes\n"),
    (["convert", "--direction", "s2-from-s1", "1000", "1"], EXIT_OK,
     "value: 1\nrecurrence: 1\nagree: yes\n"),
    (["verify", "--identity", "all", "--max", "3000"], EXIT_LIMIT, ""),
], ids=["second", "first", "first-unsigned", "s1-from-s2", "s2-from-s1", "verify-all"])
def test_oversized_requests_finish_or_exit_3_under_a_memory_limit(argv, code, out):
    # a point query or conversion walks one band of columns and stores no
    # row, so it finishes in 400 MiB; the whole catalog to 3000, whose tables
    # and products hold whole triangles, cannot, and must say so in one line
    # with exit 3, not a traceback with exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "stirling.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    if code == EXIT_LIMIT:
        assert proc.stderr == "stirling: out of memory for this request\n"


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize("argv, count, last", [
    (["verify", "--identity", "eq17", "--max", "800"], 3,
     lambda: "1 identity checked, all passed\n"),
    (["triangle", "--kind", "second", "--rows", "600", "--format", "csv"], 601,
     lambda: ",".join(map(str, StirlingCalculator().row(StirlingKind.SECOND, 600))) + "\n"),
], ids=["eq17", "triangle"])
def test_one_pass_requests_run_in_48_mib(tmp_path, argv, count, last):
    # a row relation and a triangle read rows 0..N once each off streams that
    # store no row, so they run in 48 MiB, where filling the memo to row N
    # exits 3; stdout goes to a file, read back a line at a time
    text = tmp_path / "out.txt"
    with text.open("w") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "stirling.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=functools.partial(_limit_address_space, 48),
            timeout=120,
        )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    with text.open() as lines:
        for lines_read, final in enumerate(lines, 1):
            pass
    text.unlink()
    assert (lines_read, final) == (count, last())


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize("kind, fmt", [
    ("second", "table"), ("second", "csv"), ("second", "json"), ("first-unsigned", "csv"),
])
def test_every_triangle_format_writes_600_rows_in_200_mib(tmp_path, kind, fmt):
    # every format is written row by row, so the command holds a row or two and
    # one row's text, not the whole text (csv and json took more than 200 MiB when
    # they were rendered whole); stdout goes to a file, read back a line at a
    # time, so neither process holds the whole text
    text = tmp_path / "triangle.txt"
    with text.open("w") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "stirling.cli",
             "triangle", "--kind", kind, "--rows", "600", "--format", fmt],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=functools.partial(_limit_address_space, 200),
            timeout=120,
        )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    with text.open() as lines:
        for count, last in enumerate(lines, 1):
            pass
    text.unlink()
    stored = StirlingKind.SECOND if kind == "second" else StirlingKind.FIRST_SIGNED
    cells = [str(abs(v)) for v in StirlingCalculator().row(stored, 600)]
    if fmt == "json":
        # "[", then per row "  [", its entries one a line and "  ]," or "  ]"; "]"
        assert (count, last) == (2 + sum(n + 3 for n in range(601)), "]\n")
    else:
        assert count == 601
        assert (last.rstrip("\n").split(",") if fmt == "csv" else last.split()) == cells
