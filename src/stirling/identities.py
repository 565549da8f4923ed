"""The identity catalog: first-class checkers with structured reports.

Every identity the library guarantees lives here under a stable id (also the
CLI token). Scalar checks return the two sides exactly as computed; sweep
runners walk an identity's natural index range up to a chosen bound,
collecting every violation (never failing fast) into an
:class:`IdentityReport`. Sweeps are sequential and deterministic, so
counterexamples always appear in index order.

The catalog:

    eq1   s(n, m) equals the alternating binomial sum over second-kind values
    eq2   S(n, m) equals the mirrored sum over signed first-kind values
    eq3   sum_l s(l, j) S(k, l) = 1 if j == k else 0
    eq4   sum_l s(k, l) S(l, j) = 1 if j == k else 0
    eq5   sum_j s(m, j) sum_k S(j, k) = 1
    eq6   sum_j S(m, j) sum_k s(j, k) = 1
    eq11  sum_j s(m, j) sum_k S(j, k) x^k  =  x^m
    eq12  sum_m S(j, m) sum_k s(m, k) x^k  =  x^j
    eq13  eq11 with the diagonal term split off collapses to the zero poly
    eq14  eq13 at x = 1: -sum_{j<m} s(m, j) sum_k S(j, k) = sum_{k<m} S(m, k)
    eq15  eq12 with the diagonal term split off collapses to the zero poly
    eq16  eq15 at x = 1: -sum_{m<j} S(j, m) sum_k s(m, k) = sum_{k<j} s(j, k)
    eq17  linear term of eq13: S(m, 1) = -sum_{j<m} s(m, j) S(j, 1)
    eq18  linear term of eq15: s(j, 1) = -sum_{m<j} S(j, m) s(m, 1)

Out-of-triangle factors contribute zero everywhere, so the eq3/eq4 sums over
l = 0 .. max(j, k) + 1 are entry (k, j) of the products S·s and s·S; eq11/eq13
read row m of s·S from coefficient 1, and eq12/eq15 row j of S·s.

Each first-kind/second-kind pair is one function parametrized by which kind
sits outside and which inside, behind the public ``*_first``/``*_second``
names. A sweep reads each row once and builds what its sums share once: inner
row sums or column 1. Every other table comes from an engine function that
receives the calculator: the rows of S·s (eq3, eq12, eq15) and s·S (eq4,
eq11, eq13) from ``engine._product``, which the polynomial builders use too,
and eq1/eq2's converted rows from ``engine._conversion_rows``, which walks
the source diagonals as a band from row 0 and so stores no source row.
``run_all`` builds each product once, on its first read, and hands the same
rows to its three readers, so eq3's and eq4's ``elapsed_ms`` carry the
products' cost. Each inner sum is then one dot product of plain ints.
"""

import enum
import time
from functools import cache
from operator import mul

from .engine import _SHARED, StirlingKind, _conversion_rows, _product
from .exact import FrozenValue, check_index

_FIRST = StirlingKind.FIRST_SIGNED
_SECOND = StirlingKind.SECOND


class IdentityId(enum.Enum):
    """Stable catalog ids; declaration order is the catalog order."""

    CONVERSION_1 = "eq1"
    CONVERSION_2 = "eq2"
    ORTHOGONALITY_3 = "eq3"
    ORTHOGONALITY_4 = "eq4"
    UNIT_SUM_5 = "eq5"
    UNIT_SUM_6 = "eq6"
    BASIS_POLY_11 = "eq11"
    BASIS_POLY_12 = "eq12"
    RESIDUAL_13 = "eq13"
    ROW_RELATION_14 = "eq14"
    RESIDUAL_15 = "eq15"
    ROW_RELATION_16 = "eq16"
    DERIV_RELATION_17 = "eq17"
    DERIV_RELATION_18 = "eq18"


class Counterexample(FrozenValue):
    """One failing index point, both sides recorded exactly as computed."""

    __slots__ = ("indices", "lhs", "rhs")

    def __init__(self, indices: dict, lhs: int, rhs: int):
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def to_json_data(self) -> dict:
        return {
            "indices": dict(self.indices),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


class IdentityReport(FrozenValue):
    """Outcome of sweeping one identity over a range."""

    __slots__ = ("id", "range", "counterexamples", "elapsed_ms")

    def __init__(self, id: IdentityId, range: str, counterexamples: tuple, elapsed_ms: int):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "range", range)
        object.__setattr__(self, "counterexamples", counterexamples)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)

    @property
    def status(self) -> str:
        """The verdict: "fail" when the sweep found a counterexample, else "pass"."""
        return "fail" if self.counterexamples else "pass"

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_data(self) -> dict:
        return {
            "id": self.id.value,
            "range": self.range,
            "status": self.status,
            "counterexamples": [c.to_json_data() for c in self.counterexamples],
            "elapsed_ms": self.elapsed_ms,
        }


# scalar checks


def check_orthogonality(j: int, k: int, calc=None, mirrored: bool = False):
    """Orthogonality sum and its Kronecker-delta target, as (lhs, expected).

    Default composition: sum over l of s(l, j) * S(k, l). With
    ``mirrored=True`` the order flips: sum over l of s(k, l) * S(l, j).
    Both run l = 0 .. max(j, k) + 1 with out-of-triangle factors zero.
    """
    calc = calc or _SHARED
    check_index(j, calc.index_cap, "j")
    check_index(k, calc.index_cap, "k")
    column_kind, row_kind = (_SECOND, _FIRST) if mirrored else (_FIRST, _SECOND)
    terms = enumerate(calc.row(row_kind, k)[j:], j)
    lhs = sum(calc.row(column_kind, l)[j] * value for l, value in terms)
    return lhs, 1 if j == k else 0


def _inner_sums(rows):
    # sum_{k=1}^{j} inner(j, k) for each row j
    return [sum(row[1:]) for row in rows]


def _unit_sum(outer_row, inner_row, sums):
    return sum(map(mul, outer_row[1:], sums[1:])), 1


def _row_relation(outer_row, inner_row, sums):
    return -sum(map(mul, outer_row[1:-1], sums[1:])), sum(inner_row[1:-1])


def _deriv_relation(outer_row, inner_row, column):
    return inner_row[1], -sum(map(mul, outer_row[1:-1], column))


# (evaluate(outer row m, inner row m, table), table of inner rows, smallest m)
_UNIT_SUM = (_unit_sum, _inner_sums, 1)
_ROW_RELATION = (_row_relation, _inner_sums, 2)
_DERIV_RELATION = (_deriv_relation, lambda rows: [row[1] for row in rows[1:]], 2)


def _check(relation, name, outer, inner, index, calc):
    calc = calc or _SHARED
    evaluate, table, start = relation
    check_index(index, calc.index_cap, name)
    if index < start:
        raise ValueError(f"{name} must be at least {start}, got {index}")
    rows = [calc.row(inner, n) for n in range(index + 1)]
    return evaluate(calc.row(outer, index), rows[index], table(rows))


def check_unit_sum_first(m: int, calc=None) -> int:
    """sum_{j=1}^{m} s(m, j) sum_{k=1}^{j} S(j, k); must equal 1."""
    return _check(_UNIT_SUM, "m", _FIRST, _SECOND, m, calc)[0]


def check_unit_sum_second(m: int, calc=None) -> int:
    """sum_{j=1}^{m} S(m, j) sum_{k=1}^{j} s(j, k); must equal 1."""
    return _check(_UNIT_SUM, "m", _SECOND, _FIRST, m, calc)[0]


def check_row_relation_first(m: int, calc=None):
    """(lhs, rhs) of: -sum_{j=1}^{m-1} s(m, j) sum_{k=1}^{j} S(j, k)
    against sum_{k=1}^{m-1} S(m, k). Defined for m >= 2."""
    return _check(_ROW_RELATION, "m", _FIRST, _SECOND, m, calc)


def check_row_relation_second(j: int, calc=None):
    """(lhs, rhs) of: -sum_{m=1}^{j-1} S(j, m) sum_{k=1}^{m} s(m, k)
    against sum_{k=1}^{j-1} s(j, k). Defined for j >= 2."""
    return _check(_ROW_RELATION, "j", _SECOND, _FIRST, j, calc)


def check_deriv_relation_second(m: int, calc=None):
    """(lhs, rhs) of: S(m, 1) = -sum_{j=1}^{m-1} s(m, j) S(j, 1).

    This is the vanishing linear coefficient of residual_poly_first(m),
    restated; both computation paths must agree. Defined for m >= 2.
    """
    return _check(_DERIV_RELATION, "m", _FIRST, _SECOND, m, calc)


def check_deriv_relation_first(j: int, calc=None):
    """(lhs, rhs) of: s(j, 1) = -sum_{m=1}^{j-1} S(j, m) s(m, 1).
    Defined for j >= 2."""
    return _check(_DERIV_RELATION, "j", _SECOND, _FIRST, j, calc)


# sweeps: each factory returns (range description, sweep generator); a sweep
# takes (max_index, calc, product), product(outer, inner) being rows
# 0..max_index of outer·inner


def _sweep_conversion(target, source):
    def sweep(max_index, calc, product):
        for n, converted in enumerate(_conversion_rows(calc, source, max_index), 1):
            direct = calc.row(target, n)[1:]
            if converted != direct:
                for m, lhs, rhs in zip(range(1, n + 1), converted, direct):
                    if lhs != rhs:
                        yield Counterexample({"n": n, "m": m}, lhs, rhs)

    return _range_triangle, sweep


def _sweep_orthogonality(outer, inner):
    # entry (k, j) of outer·inner, j-major, k >= j: past the diagonal both sides are 0
    def sweep(max_index, calc, product):
        rows = product(outer, inner)
        for j in range(max_index + 1):
            for k, row in enumerate(rows[j:], j):
                expected = 1 if j == k else 0
                if row[j] != expected:
                    yield Counterexample({"j": j, "k": k}, row[j], expected)

    return _range_grid, sweep


def _sweep_rows(relation, name, outer, inner):
    evaluate, table, start = relation

    def sweep(max_index, calc, product):
        rows = [calc.row(inner, n) for n in range(max_index + 1)]
        hoisted = table(rows)
        for index in range(start, max_index + 1):
            lhs, rhs = evaluate(calc.row(outer, index), rows[index], hoisted)
            if lhs != rhs:
                yield Counterexample({name: index}, lhs, rhs)

    return _range_from(start, name), sweep


def _sweep_poly(name, outer, inner, residual):
    # coefficients 1..index of row index of outer·inner against x^index, or
    # (residual) 1..index-1 against zero
    def sweep(max_index, calc, product):
        for index, built in enumerate(product(outer, inner)[1:], 1):
            for k in range(1, index if residual else index + 1):
                expected = 1 if k == index else 0
                if built[k] != expected:
                    yield Counterexample({name: index, "k": k}, built[k], expected)

    return _range_from(1, name), sweep


def _plural(count, noun):
    return f"{count} {noun}" if count == 1 else f"{count} {noun}s"


def _range_triangle(max_index):
    pairs = max_index * (max_index + 1) // 2
    return f"1 <= m <= n <= {max_index} ({_plural(pairs, 'pair')})"


def _range_grid(max_index):
    return f"0 <= j,k <= {max_index} ({_plural((max_index + 1) ** 2, 'pair')})"


def _range_from(start, index_name):
    def describe(max_index):
        count = max(0, max_index - start + 1)
        return f"{start} <= {index_name} <= {max_index} ({_plural(count, 'case')})"

    return describe


_SWEEPS = {
    IdentityId.CONVERSION_1: _sweep_conversion(_FIRST, _SECOND),
    IdentityId.CONVERSION_2: _sweep_conversion(_SECOND, _FIRST),
    IdentityId.ORTHOGONALITY_3: _sweep_orthogonality(_SECOND, _FIRST),
    IdentityId.ORTHOGONALITY_4: _sweep_orthogonality(_FIRST, _SECOND),
    IdentityId.UNIT_SUM_5: _sweep_rows(_UNIT_SUM, "m", _FIRST, _SECOND),
    IdentityId.UNIT_SUM_6: _sweep_rows(_UNIT_SUM, "m", _SECOND, _FIRST),
    IdentityId.BASIS_POLY_11: _sweep_poly("m", _FIRST, _SECOND, False),
    IdentityId.BASIS_POLY_12: _sweep_poly("j", _SECOND, _FIRST, False),
    IdentityId.RESIDUAL_13: _sweep_poly("m", _FIRST, _SECOND, True),
    IdentityId.ROW_RELATION_14: _sweep_rows(_ROW_RELATION, "m", _FIRST, _SECOND),
    IdentityId.RESIDUAL_15: _sweep_poly("j", _SECOND, _FIRST, True),
    IdentityId.ROW_RELATION_16: _sweep_rows(_ROW_RELATION, "j", _SECOND, _FIRST),
    IdentityId.DERIV_RELATION_17: _sweep_rows(_DERIV_RELATION, "m", _FIRST, _SECOND),
    IdentityId.DERIV_RELATION_18: _sweep_rows(_DERIV_RELATION, "j", _SECOND, _FIRST),
}


def _run(identities, max_index, calc):
    # the sweeps of one call share each product, built on its first read
    calc = calc or _SHARED
    check_index(max_index, calc.index_cap, "max_index")
    product = cache(lambda outer, inner: _product(calc, outer, inner, max_index))
    reports = []
    for identity in identities:
        describe_range, sweep = _SWEEPS[identity]
        start = time.perf_counter()
        found = tuple(sweep(max_index, calc, product))
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        reports.append(IdentityReport(
            id=identity,
            range=describe_range(max_index),
            counterexamples=found,
            elapsed_ms=elapsed_ms,
        ))
    return reports


def run_identity(identity: IdentityId, max_index: int, calc=None) -> IdentityReport:
    """Sweep one identity up to max_index, collecting every violation."""
    return _run([identity], max_index, calc)[0]


def run_all(max_index: int, calc=None) -> list:
    """Sweep the whole catalog in catalog order. Each of the products S·s
    and s·S is built once, by its first reader (eq3, eq4), whose
    ``elapsed_ms`` carries its cost."""
    return _run(IdentityId, max_index, calc)
