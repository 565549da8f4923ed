"""Command-line frontend: triangle export, point queries, conversions, and
identity verification.

Exit codes are part of the contract and stable across versions:

    0   all requested checks passed
    1   at least one identity violation was found
    2   usage error (bad arguments, unknown identity or kind)
    3   resource limit (index cap or enumeration budget exceeded, or out of memory)

A reader that closes the pipe early (``stirling ... | head``) ends the
``stirling`` command by SIGPIPE, silently; :func:`run` leaves signals alone.

The commands and their options are declared once, in ``_COMMANDS``. A
well-formed request spelled the plain way (``--flag VALUE``, each flag at
most once) is read straight off that table, without importing argparse:
about 2 µs a call, where argparse's ``parse_args`` takes about 30 µs and
the first call's import and build of its parser 4-6 ms (in-process,
Python 3.11 on a 2-CPU VM). Help, usage errors and every other spelling
(``--flag=value``, abbreviations, repeated flags, ``--``) go through
argparse, whose parser :func:`build_parser` builds from the same table.

All numeric output is exact decimal; the machine formats (csv, json)
re-serialize byte for byte.
"""

import os
import sys
from collections import deque
from itertools import chain, zip_longest
from types import SimpleNamespace

from .engine import (PerturbedCalculator, StirlingCalculator, StirlingKind,
                     _csv_lines, _json_lines)
from .exact import DEFAULT_INDEX_CAP, ResourceLimitError, check_index, check_limit, dump_json
from .identities import IdentityId, run_all, run_identity
from .oracle import (
    BudgetExceededError,
    DEFAULT_ENUMERATION_BUDGET,
    count_permutations_by_cycles,
    count_set_partitions,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

ENV_INDEX_CAP = "STIRLING_INDEX_CAP"
ENV_ORACLE_BUDGET = "STIRLING_ORACLE_BUDGET"

_KIND_TOKENS = tuple(kind.value for kind in StirlingKind)
_IDENTITY_TOKENS = ("all",) + tuple(identity.value for identity in IdentityId)


def _limit(value, env_name: str, default: int, what: str) -> int:
    # the flag's value wins over the environment, the environment over the
    # default; validated before the command computes anything
    if value is None:
        raw = os.environ.get(env_name)
        try:
            value = default if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"environment variable {env_name}={raw!r} is not an integer")
    return check_limit(value, what)


def _render_table(rows) -> str:
    # rows of equal length, each column left-aligned to its widest cell
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join(" ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in rows)


def _cmd_triangle(args, calc) -> int:
    # every format is written a row at a time as _stream steps the rows, storing
    # none of them; the table steps them twice, first for its widths
    check_index(args.rows, calc.index_cap, "--rows")
    kind = StirlingKind(args.kind)
    rows = calc._stream(kind, args.rows)
    if args.format == "csv":
        pieces = _csv_lines(rows)
    elif args.format == "json":
        pieces = chain(_json_lines(rows), ("\n",))
    else:
        # columns right-aligned to their widest cells, all in the last two rows:
        # |s(n, m)| and S(n, m) never decrease down column m >= 1, a minus sign
        # shows only on alternate rows and column 0 is 1 wide
        last = deque(calc._stream(kind, args.rows), maxlen=2)
        widths = [max(len(str(v)) for v in column)
                  for column in zip_longest(*last, fillvalue=0)]
        pieces = (" ".join(map(str.rjust, map(str, row), widths)) + "\n" for row in rows)
    for piece in pieces:
        sys.stdout.write(piece)
    return EXIT_OK


def _cmd_value(args, calc) -> int:
    print(calc.value(StirlingKind(args.kind), args.n, args.m))
    return EXIT_OK


def _parse_fault(fault: str, index_cap: int) -> PerturbedCalculator:
    parts = fault.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"--inject-fault expects KIND:N:M[:DELTA], got {fault!r}"
        )
    kind_token, n_text, m_text = parts[:3]
    if kind_token not in ("first", "second"):
        raise ValueError(
            f"--inject-fault kind must be 'first' or 'second', got {kind_token!r}"
        )
    try:
        n = int(n_text)
        m = int(m_text)
        delta = int(parts[3]) if len(parts) == 4 else 1
    except ValueError:
        raise ValueError(f"--inject-fault expects integer N:M[:DELTA], got {fault!r}")
    try:
        return PerturbedCalculator(
            StirlingKind(kind_token), n, m, delta, index_cap=index_cap
        )
    except ValueError as exc:
        raise ValueError(f"--inject-fault: {exc}")


def _report_rows(reports):
    rows = [["id", "status", "range", "counterexamples", "elapsed"]]
    for report in reports:
        rows.append(
            [
                report.id.value,
                report.status,
                report.range,
                str(len(report.counterexamples)),
                f"{report.elapsed_ms} ms",
            ]
        )
    return rows


def _print_counterexamples(report):
    print(f"counterexamples for {report.id.value}:")
    for ce in report.counterexamples:
        where = ", ".join(f"{name}={value}" for name, value in ce.indices.items())
        print(f"  {where}: lhs={ce.lhs} rhs={ce.rhs}")


def _cmd_verify(args, calc) -> int:
    if args.inject_fault is not None:
        calc = _parse_fault(args.inject_fault, calc.index_cap)
    check_index(args.max_index, calc.index_cap, "--max")
    if args.identity == "all":
        reports = run_all(args.max_index, calc)
    else:
        reports = [run_identity(IdentityId(args.identity), args.max_index, calc)]
    all_passed = all(report.passed for report in reports)

    if args.format == "json":
        if args.identity == "all":
            payload = {
                "reports": [report.to_json_data() for report in reports],
                "all_passed": all_passed,
            }
        else:
            payload = reports[0].to_json_data()
        print(dump_json(payload))
    else:
        sys.stdout.write(_render_table(_report_rows(reports)))
        for report in reports:
            if not report.passed:
                _print_counterexamples(report)
        summary = "all passed" if all_passed else "violations found"
        print(f"{len(reports)} identit{'y' if len(reports) == 1 else 'ies'} checked, {summary}")

    return EXIT_OK if all_passed else EXIT_VIOLATION


def _cmd_oracle_check(args, calc) -> int:
    budget = _limit(args.budget, ENV_ORACLE_BUDGET, DEFAULT_ENUMERATION_BUDGET,
                    "oracle budget")
    if args.max_n < 1:
        raise ValueError(f"--max must be at least 1, got {args.max_n}")
    if args.max_n > budget:
        raise BudgetExceededError(args.max_n, budget)
    check_index(args.max_n, calc.index_cap, "--max")
    # one enumeration of the largest size records every smaller size's census
    count_permutations_by_cycles(args.max_n, args.max_n, budget)
    count_set_partitions(args.max_n, args.max_n, budget)

    cases = 0
    mismatches = []
    for n in range(1, args.max_n + 1):
        for m in range(1, n + 1):
            pairs = (
                (StirlingKind.FIRST_UNSIGNED, count_permutations_by_cycles(n, m, budget)),
                (StirlingKind.SECOND, count_set_partitions(n, m, budget)),
            )
            for kind, counted in pairs:
                cases += 1
                computed = calc.value(kind, n, m)
                if computed != counted:
                    mismatches.append((kind, n, m, computed, counted))

    if not mismatches:
        print(f"{cases} cases, all equal")
        return EXIT_OK
    print(f"{cases} cases, {len(mismatches)} mismatch{'' if len(mismatches) == 1 else 'es'}")
    for kind, n, m, computed, counted in mismatches:
        print(f"  {kind.value} (n={n}, m={m}): engine={computed} enumeration={counted}")
    return EXIT_VIOLATION


def _cmd_convert(args, calc) -> int:
    if args.direction == "s1-from-s2":
        convert, kind = calc.first_from_second, StirlingKind.FIRST_SIGNED
    else:
        convert, kind = calc.second_from_first, StirlingKind.SECOND
    converted = convert(args.n, args.m)
    # value() may answer by this very sum: read by a route that excludes it
    direct = calc._entry(kind, args.n, args.m, converts=False)
    agree = converted == direct

    if args.format == "json":
        print(
            dump_json(
                {
                    "direction": args.direction,
                    "n": args.n,
                    "m": args.m,
                    "value": str(converted),
                    "recurrence": str(direct),
                    "agree": agree,
                }
            )
        )
    else:
        print(f"value: {converted}")
        print(f"recurrence: {direct}")
        print(f"agree: {'yes' if agree else 'no'}")
    return EXIT_OK if agree else EXIT_VIOLATION


# The command line, declared once: the reader below and build_parser() both
# read it. An option is (flag, dest, type, default, metavar, help), where type
# is int, a tuple of choices or str (any text), and a default of _REQUIRED
# makes the flag required. A command is (help, handler, options, positionals),
# and every positional is an int.
_REQUIRED = object()

_INDEX_CAP = ("--index-cap", "index_cap", int, None, "N",
              f"cap on index arguments (env {ENV_INDEX_CAP}, default {DEFAULT_INDEX_CAP})")

_COMMANDS = {
    "triangle": ("print rows 0..N of one triangle", _cmd_triangle, (
        ("--kind", "kind", _KIND_TOKENS, _REQUIRED, None, None),
        ("--rows", "rows", int, _REQUIRED, "N", None),
        ("--format", "format", ("table", "csv", "json"), "table", None, None),
    ), ()),
    "value": ("print one triangle entry", _cmd_value, (
        ("--kind", "kind", _KIND_TOKENS, _REQUIRED, None, None),
    ), ("n", "m")),
    "verify": ("sweep one identity or the whole catalog", _cmd_verify, (
        ("--identity", "identity", _IDENTITY_TOKENS, _REQUIRED, None, None),
        ("--max", "max_index", int, 25, "N", "sweep bound (default 25)"),
        ("--format", "format", ("table", "json"), "table", None, None),
        ("--inject-fault", "inject_fault", str, None, "KIND:N:M[:DELTA]",
         "self-test hook: offset one stored entry before sweeping, "
         "e.g. second:5:2:1; a healthy install must then exit 1"),
    ), ()),
    "oracle-check": ("compare engine values against brute-force enumeration",
                     _cmd_oracle_check, (
        ("--max", "max_n", int, 8, "N", "check all 1 <= m <= n <= N (default 8)"),
        ("--budget", "budget", int, None, "N",
         f"enumeration budget (env {ENV_ORACLE_BUDGET}, "
         f"default {DEFAULT_ENUMERATION_BUDGET})"),
    ), ()),
    "convert": ("rebuild one kind from the other at (n, m)", _cmd_convert, (
        ("--direction", "direction", ("s1-from-s2", "s2-from-s1"), _REQUIRED, None, None),
        ("--format", "format", ("table", "json"), "table", None, None),
    ), ("n", "m")),
}


def _add_option(parser, option) -> None:
    flag, dest, kind, default, metavar, text = option
    required = default is _REQUIRED
    parser.add_argument(
        flag,
        dest=dest,
        type=int if kind is int else None,
        choices=kind if isinstance(kind, tuple) else None,
        default=None if required else default,
        required=required,
        metavar=metavar,
        help=text,
    )


def build_parser():
    # the one import of argparse: run() needs a parser only for help, usage
    # errors and the spellings that _read() leaves to it
    import argparse

    parser = argparse.ArgumentParser(
        prog="stirling",
        description="Exact Stirling number triangles and a verified identity catalog.",
    )
    _add_option(parser, _INDEX_CAP)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options, positionals) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for option in options:
            _add_option(command, option)
        for positional in positionals:
            command.add_argument(positional, type=int)
        command.set_defaults(handler=handler)
    return parser


# per command, the dest and type of each of its flags
_FLAGS = {name: {flag: (dest, kind) for flag, dest, kind, *_ in options}
          for name, (_, _, options, _) in _COMMANDS.items()}


def _token(kind, token: str):
    # a flag's value or a positional, spelled so that argparse reads it as one
    if token.startswith("-"):
        raise ValueError(token)
    if kind is int:
        return int(token)
    if kind is not str and token not in kind:
        raise ValueError(token)
    return token


def _read(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, or None.

    Reads only the plain spelling of a well-formed request: an optional
    leading ``--index-cap N``, a command, each of its flags at most once as
    ``--flag VALUE``, and exactly its positionals, where no value or
    positional starts with ``-``. Everything else, from help, ``--``,
    ``--flag=value``, abbreviations and repeated flags to every usage error,
    returns None and is left to argparse."""
    tokens = iter(argv)
    try:
        command = next(tokens)
        index_cap = None
        if command == "--index-cap":
            index_cap = _token(int, next(tokens))
            command = next(tokens)
        _, handler, options, names = _COMMANDS[command]
        flags = _FLAGS[command]
        values = {}
        positionals = []
        for token in tokens:
            if token.startswith("-"):
                dest, kind = flags[token]
                if dest in values:
                    return None
                values[dest] = _token(kind, next(tokens))
            else:
                positionals.append(int(token))
    except (KeyError, StopIteration, ValueError):
        return None
    if len(positionals) != len(names):
        return None
    for _, dest, _, default, *_ in options:
        if dest not in values:
            if default is _REQUIRED:
                return None
            values[dest] = default
    values.update(zip(names, positionals))
    return SimpleNamespace(command=command, index_cap=index_cap, handler=handler, **values)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)

    try:
        index_cap = _limit(args.index_cap, ENV_INDEX_CAP, DEFAULT_INDEX_CAP, "index cap")
        return args.handler(args, StirlingCalculator(index_cap=index_cap))
    except ResourceLimitError as exc:
        print(f"stirling: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except MemoryError:
        print("stirling: out of memory for this request", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"stirling: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    import signal  # only the command needs it: callers of run() skip the import

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
