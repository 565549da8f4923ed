"""The four workloads: seeded CLI calls and the checks on their output.

BENCHMARK.json runs catalog-sweep, oracle-census and point-query;
triangle-export runs in every traced pass and by hand (see README.md).

Sizes are fixed; the seed picks only the fault location, the query stream
and which rows and entries get checked, so every seed does the same amount
of work. Checks read the lines the child's sink kept and compare them with
values from ``reference``, which shares no code with the engine.

Every call is short, at most about a third of a second on a 2-CPU box:
``run.py`` times each call by its fastest repetition, and a short call is
repeated more often in a run and is more likely to have one repetition
that no other tenant of the machine slowed. So catalog-sweep verifies one
identity per call, and the triangle and oracle sizes stay below the point
where one call takes a second.

Why each workload:

catalog-sweep    identity sweeps and entry reads do almost all the work;
                 rows stop near n = N+1, so row construction is negligible.
                 An all-identity call checks the JSON report and
                 ``all_passed``; the fault call runs the sweeps through
                 PerturbedCalculator and the counterexample path.
triangle-export  serialization is most of the time, row build plus
                 snapshot the rest; the memo's ~N^3 growth shows in peak RSS.
                 No identity or oracle code runs.
oracle-census    almost all the time is enumerating 8! permutations; the
                 only workload that runs the oracle, and engine changes must
                 leave it unchanged.
point-query      each call builds a fresh calculator, so row construction and
                 memo allocation dominate and the output is one number; the
                 one place where the engine's write path is the main cost.
"""

import json
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from reference import bell_numbers, second_kind, unsigned_first_kind_rows

CATALOG_MAX = 64
FAULT_MAX = 30
CSV_ROWS = 400
JSON_ROWS = 250
ORACLE_MAX = 8
POINT_VALUES = 180
POINT_CONVERTS = 20
VALUE_MAX_N = 512
CONVERT_MAX_N = 128
POINT_ORDER_SEED = 0

CATALOG_IDS = ("eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq11", "eq12",
               "eq13", "eq14", "eq15", "eq16", "eq17", "eq18")
# (index name, first index) of each one-index identity's range
_SINGLE_RANGES = {
    "eq5": ("m", 1), "eq6": ("m", 1), "eq11": ("m", 1), "eq12": ("j", 1),
    "eq13": ("m", 1), "eq14": ("m", 2), "eq15": ("j", 1), "eq16": ("j", 2),
    "eq17": ("m", 2), "eq18": ("j", 2),
}
REPORT_KEYS = {"id", "range", "status", "counterexamples", "elapsed_ms"}


@dataclass
class Op:
    """One CLI call and the check on its output.

    ``check`` takes the child's result for this call and returns a failure
    reason, or None when the output is correct. ``keep`` names the output
    lines the sink retains (None: every line). ``stable`` calls must print
    the same bytes on every run.
    """

    name: str
    argv: list
    check: Callable[[dict], Optional[str]]
    keep: Optional[list] = None
    stable: bool = True
    digests: set = field(default_factory=set)

    def failure(self, result) -> Optional[str]:
        if result is None:
            return "child process ended before this call finished"
        if result["error"]:
            return result["error"]
        if self.stable:
            self.digests.add(result["sha256"])
            if len(self.digests) > 1:
                return "output differs between runs"
        try:
            return self.check(result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"


def text(result) -> str:
    """Whole output of a call whose sink kept every line."""
    kept = result["kept"]
    return "".join(kept[str(i)] + "\n" for i in range(result["lines"])) + kept.get(
        str(result["lines"]), "")


def _exit(result, want):
    if result["exit"] != want:
        return f"exit code {result['exit']}, expected {want}"
    return None


def _plural(count, noun):
    return f"{count} {noun}" if count == 1 else f"{count} {noun}s"


def expected_range(identity, top):
    if identity in ("eq1", "eq2"):
        return f"1 <= m <= n <= {top} ({_plural(top * (top + 1) // 2, 'pair')})"
    if identity in ("eq3", "eq4"):
        return f"0 <= j,k <= {top} ({_plural((top + 1) ** 2, 'pair')})"
    name, first = _SINGLE_RANGES[identity]
    return f"{first} <= {name} <= {top} ({_plural(max(0, top - first + 1), 'case')})"


# catalog-sweep


def report_failure(identity, top, report):
    """Why one verify report is not a clean pass of ``identity``, or None."""
    if set(report) != REPORT_KEYS:
        return f"report keys {sorted(report)}"
    if report["id"] != identity:
        return f"report id {report['id']!r}, expected {identity!r}"
    if report["status"] != "pass" or report["counterexamples"] != []:
        return f"status {report['status']!r}"
    if report["range"] != expected_range(identity, top):
        return f"range {report['range']!r}"
    elapsed = report["elapsed_ms"]
    if not isinstance(elapsed, int) or isinstance(elapsed, bool) or elapsed < 0:
        return f"elapsed_ms {elapsed!r}"
    return None


def check_verify_one(identity, top, result):
    return _exit(result, 0) or report_failure(identity, top, json.loads(text(result)))


def check_verify_all(top, result):
    bad = _exit(result, 0)
    if bad:
        return bad
    payload = json.loads(text(result))
    if set(payload) != {"reports", "all_passed"}:
        return f"report keys {sorted(payload)}"
    if payload["all_passed"] is not True:
        return "all_passed is not true"
    reports = payload["reports"]
    if [r.get("id") for r in reports] != list(CATALOG_IDS):
        return "report ids are not the catalog in order"
    for identity, report in zip(CATALOG_IDS, reports):
        bad = report_failure(identity, top, report)
        if bad:
            return f"{identity}: {bad}"
    return None


def check_verify_fault(top, result):
    bad = _exit(result, 1)
    if bad:
        return bad
    lines = text(result).splitlines()
    if lines[0].split() != ["id", "status", "range", "counterexamples", "elapsed"]:
        return f"table header {lines[0]!r}"
    counts = {}
    for identity, line in zip(CATALOG_IDS, lines[1:15]):
        cells = line.split()
        if cells[0] != identity or cells[1] not in ("pass", "fail") or cells[-1] != "ms":
            return f"table row {line!r}"
        if " ".join(cells[2:-3]) != expected_range(identity, top):
            return f"{identity}: range in {line!r}"
        count = int(cells[-3])
        if (cells[1] == "fail") != (count > 0):
            return f"{identity}: status {cells[1]} with {count} counterexamples"
        counts[identity] = count
    if not any(counts.values()):
        return "the injected fault was not detected"
    body = lines[15:]
    for identity in CATALOG_IDS:
        if not counts[identity]:
            continue
        if body[0] != f"counterexamples for {identity}:":
            return f"expected the counterexamples for {identity}, got {body[0]!r}"
        listed = body[1:1 + counts[identity]]
        if len(listed) != counts[identity] or not all(
                c.startswith("  ") and " lhs=" in c and " rhs=" in c for c in listed):
            return f"{identity}: counterexample lines do not match the count"
        body = body[1 + counts[identity]:]
    if body != ["14 identities checked, violations found"]:
        return f"summary lines {body!r}"
    return None


def catalog_sweep(rng):
    kind = rng.choice(("first", "second"))
    n = rng.randint(1, FAULT_MAX)
    m = rng.randint(1, n)
    ops = [Op(f"verify-{identity}",
              ["verify", "--identity", identity, "--max", str(CATALOG_MAX), "--format", "json"],
              partial(check_verify_one, identity, CATALOG_MAX), stable=False)
           for identity in CATALOG_IDS]
    ops.append(Op("verify-all",
                  ["verify", "--identity", "all", "--max", str(FAULT_MAX), "--format", "json"],
                  partial(check_verify_all, FAULT_MAX), stable=False))
    ops.append(Op("verify-fault",
                  ["verify", "--identity", "all", "--max", str(FAULT_MAX),
                   "--inject-fault", f"{kind}:{n}:{m}"],
                  partial(check_verify_fault, FAULT_MAX), stable=False))
    return ops


# triangle-export


def check_triangle_csv(top, entries, result):
    bad = _exit(result, 0)
    if bad:
        return bad
    if result["lines"] != top + 1:
        return f"{result['lines']} lines, expected {top + 1}"
    bells = bell_numbers(top)
    for n, ms in entries.items():
        row = [int(cell) for cell in result["kept"][str(n)].split(",")]
        if len(row) != n + 1:
            return f"row {n} has {len(row)} entries"
        if sum(row) != bells[n]:
            return f"row {n} does not sum to Bell({n})"
        for m in ms:
            if row[m] != second_kind(n, m):
                return f"S({n}, {m}) is wrong"
    return None


def json_row_start(n):
    """Line of the "  [" that opens row n in the CLI's indented JSON."""
    return 1 + n * (n - 1) // 2 + 3 * n


def check_triangle_json(top, expected, result):
    bad = _exit(result, 0)
    if bad:
        return bad
    if result["lines"] != json_row_start(top + 1) + 1:
        return f"{result['lines']} lines, expected {json_row_start(top + 1) + 1}"
    kept = result["kept"]
    for n, want in expected.items():
        start = json_row_start(n)
        close = "  ]" if n == top else "  ],"
        if kept[str(start)] != "  [" or kept[str(start + n + 2)] != close:
            return f"row {n} is not delimited as expected"
        for m, value in enumerate(want):
            comma = "" if m == n else ","
            if kept[str(start + 1 + m)] != f'    "{value}"{comma}':
                return f"|s({n}, {m})| is wrong"
    return None


def triangle_export(rng):
    csv_rows = {CSV_ROWS, rng.randint(1, CSV_ROWS - 1), rng.randint(1, CSV_ROWS - 1)}
    csv_entries = {n: sorted(rng.sample(range(n + 1), min(3, n + 1))) for n in csv_rows}
    json_rows = {JSON_ROWS, rng.randint(1, JSON_ROWS - 1)}
    expected = unsigned_first_kind_rows(json_rows)
    json_keep = [line for n in json_rows
                 for line in range(json_row_start(n), json_row_start(n) + n + 3)]
    return [
        Op("triangle-csv",
           ["triangle", "--kind", "second", "--rows", str(CSV_ROWS), "--format", "csv"],
           partial(check_triangle_csv, CSV_ROWS, csv_entries), keep=sorted(csv_rows)),
        Op("triangle-json",
           ["triangle", "--kind", "first-unsigned", "--rows", str(JSON_ROWS),
            "--format", "json"],
           partial(check_triangle_json, JSON_ROWS, expected), keep=json_keep),
    ]


# oracle-census


def check_exact_text(want, result):
    bad = _exit(result, 0)
    if bad:
        return bad
    got = text(result)
    return None if got == want else f"output {got[:80]!r}, expected {want[:80]!r}"


def oracle_census(rng):
    cases = ORACLE_MAX * (ORACLE_MAX + 1)
    return [Op("oracle", ["oracle-check", "--max", str(ORACLE_MAX)],
               partial(check_exact_text, f"{cases} cases, all equal\n"))]


# point-query


def log_grid(count, top):
    """count fixed sizes spread evenly over 1..top on a log scale."""
    return [max(1, round(top ** ((i + 0.5) / count))) for i in range(count)]


def check_convert(direction, n, m, want, fmt, result):
    bad = _exit(result, 0)
    if bad:
        return bad
    out = text(result)
    if fmt == "json":
        ok = json.loads(out) == {"direction": direction, "n": n, "m": m, "value": str(want),
                                 "recurrence": str(want), "agree": True}
    else:
        ok = out == f"value: {want}\nrecurrence: {want}\nagree: yes\n"
    return None if ok else f"convert output {out[:80]!r}"


def point_query(rng):
    # Sizes, kinds, directions and their order are fixed, each kind and
    # direction spread over the whole size range; the seed picks m and the
    # convert format. A seeded order would move peak RSS by ~10 %: what the
    # allocator keeps after one large call depends on which calls came before.
    value_kinds = ("first", "first-unsigned", "second")
    queries = [("value", value_kinds[i % 3], n, rng.randint(1, n))
               for i, n in enumerate(log_grid(POINT_VALUES, VALUE_MAX_N))]
    directions = ("s1-from-s2", "s2-from-s1")
    queries += [("convert", directions[i % 2], n, rng.randint(1, n))
                for i, n in enumerate(log_grid(POINT_CONVERTS, CONVERT_MAX_N))]
    random.Random(POINT_ORDER_SEED).shuffle(queries)

    first_rows = unsigned_first_kind_rows(
        n for command, kind, n, m in queries if kind in ("first", "first-unsigned", "s1-from-s2"))

    def expected(kind, n, m):
        if kind in ("second", "s2-from-s1"):
            return second_kind(n, m)
        unsigned = first_rows[n][m]
        return unsigned if kind == "first-unsigned" or (n - m) % 2 == 0 else -unsigned

    ops = []
    for command, kind, n, m in queries:
        want = expected(kind, n, m)
        if command == "value":
            ops.append(Op("value", ["value", "--kind", kind, str(n), str(m)],
                          partial(check_exact_text, f"{want}\n")))
        else:
            fmt = rng.choice(("table", "json"))
            ops.append(Op("convert",
                          ["convert", "--direction", kind, "--format", fmt, str(n), str(m)],
                          partial(check_convert, kind, n, m, want, fmt)))
    return ops


WORKLOADS = {
    "catalog-sweep": catalog_sweep,
    "triangle-export": triangle_export,
    "oracle-census": oracle_census,
    "point-query": point_query,
}
