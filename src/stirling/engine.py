"""Stirling number triangles of both kinds.

Rows are filled by the classical recurrences

    first kind (signed)   s(n+1, m) = s(n, m-1) - n * s(n, m)
    second kind           S(n+1, m) = m * S(n, m) + S(n, m-1)

anchored at s(0, 0) = S(0, 0) = 1, with every entry outside the triangle
(m > n, or m = 0 with n > 0) equal to zero. The unsigned first kind is the
sign-stripped view |s(n, m)| = (-1)^(n-m) s(n, m); it is derived from the
signed triangle, never recomputed by a second recurrence.

:class:`StirlingCalculator` memoizes rows per kind, growing row at a time and
never evicting. The memo of both kinds grows as ~N³ bytes (about 50 MiB at
N = 500, 410 MiB at N = 1000); the index cap bounds indices, not memory.
Rows are immutable tuples appended under a lock, so concurrent readers need
no synchronization once a row exists. Entries are read two ways. Whole rows
come from :meth:`StirlingCalculator.row`, which fills the memo: triangles read
them there and the sweeps fetch each row they need once. Every other table a
sweep holds, bar lists of N ints, comes from ``_product``, the rows of s·S
and S·s, or ``_conversion_rows``, eq1/eq2's Pascal weights and diagonals.
Everything else but some second-kind point queries is read off a band,
``_band``: the rows from a start row up to (n, m), each kept only in the
columns that reach (n, m) and stored nowhere. A point query,
:meth:`StirlingCalculator.value`, reads row n if the memo holds it.
Otherwise it takes the cheapest of three routes, each costed in band steps:
the walk up the band from the memo's last row h, (n - h)(min(m, n - m) + 1)
steps in one band of memory; for the second kind, the explicit sum
S(n, m) = sum_j (-1)^(m-j) C(m, j) j^n / m!, ``_second_kind_sum``, whose
m + 1 powers count max(8, n // 8) steps each; and for n >= 32, eq1/eq2's
sum over diagonal d = n - m of the other kind, ``_converted``, whose band
to (2d, d) counts 2 (d + 1)^2. Whatever the route, the query is
charged the walk's steps, and once those charges since the memo last grew
add up to the missing rows, the query fills them instead: one query stores
nothing, and many on one calculator cost at most about twice the rows they
read. The eq1/eq2 sweeps up to N read source diagonals 0..N-1, entries
(d + k, k) with k <= d, off the band from row 0 to (2N - 2, N - 1), and a
conversion at (n, m) reads diagonal d alone off the band to (2d, d), so
neither stores a source row. The band and the row fill take the same
step, ``_next_row``, and every read hands its entries out through one
hook, ``_seen``, which is where a fault is injected: a converted query
hands out its one result there and reads its source diagonal as built.

The inter-kind conversions rebuild either kind from the other through
alternating binomial-weighted sums over the opposite triangle; they must
agree with the recurrence-built values exactly, which makes them the first
whole-triangle consistency check.
"""

import enum
import threading
from itertools import accumulate, repeat, zip_longest
from math import comb, factorial
from operator import add, mul, sub

from .exact import DEFAULT_INDEX_CAP, FrozenValue, check_index, check_int, check_limit, dump_json


class StirlingKind(enum.Enum):
    """Triangle selector; values double as the CLI tokens."""

    FIRST_SIGNED = "first"
    FIRST_UNSIGNED = "first-unsigned"
    SECOND = "second"


def _stored(kind: StirlingKind) -> StirlingKind:
    # kind as a key of the memo: the rule every read of stored rows goes by
    if not isinstance(kind, StirlingKind):
        raise TypeError(f"kind must be a StirlingKind, got {kind!r}")
    if kind is StirlingKind.FIRST_UNSIGNED:
        raise ValueError("rows are stored for first and second, not first-unsigned")
    return kind


class Triangle(FrozenValue):
    """Immutable snapshot of the first rows of one triangle kind; int entries."""

    __slots__ = ("kind", "rows")

    def __init__(self, kind: StirlingKind, rows):
        if not isinstance(kind, StirlingKind):
            raise TypeError(f"kind must be a StirlingKind, got {kind!r}")
        # one pass over the rows, each checked while the unsigned view's fresh
        # entries are in cache: a row's types in one C-level pass, and only a row
        # that fails it entry by entry, so the rule and its message are check_int's
        checked = []
        for n, row in enumerate(map(tuple, rows)):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
            if not set(map(type, row)) <= {int}:
                for v in row:
                    check_int(v, "triangle entry")
            checked.append(row)
        if not checked:
            raise ValueError("a triangle needs at least row 0")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rows", tuple(checked))

    def __repr__(self):
        return f"Triangle({self.kind.value!r}, rows=0..{len(self.rows) - 1})"

    def to_csv(self) -> str:
        """Ragged comma-separated exact decimals, one row per line, no header."""
        return "\n".join(",".join(str(v) for v in row) for row in self.rows) + "\n"

    def to_json(self) -> str:
        """Rows as a JSON array of arrays of exact decimal strings."""
        return dump_json([[str(v) for v in row] for row in self.rows])


def _next_row(kind: StirlingKind, prev: tuple, n: int, lo: int = 0) -> tuple:
    # columns lo..hi+1 of row n+1 of a stored kind from columns lo..hi of its row
    # n: entry m = prev[m-1] + w_m prev[m] for m = lo+1..hi with w_m = -n (first
    # kind) or m (second), flanked by 0 and prev[hi]. The 0 is column lo only
    # when lo = 0 and prev[hi] the diagonal only when hi = n: a whole row (lo = 0,
    # hi = n) is exact, and a band drops the flanks it has not reached.
    weights = repeat(-n) if kind is StirlingKind.FIRST_SIGNED else range(lo + 1, lo + len(prev))
    return (0, *map(add, prev, map(mul, weights, prev[1:])), prev[-1])


def _band(kind: StirlingKind, row: tuple, h: int, n: int, m: int):
    # rows h..n of a stored kind from its row h, keeping of row k only the
    # columns that reach (n, m): yields (k, lo, columns lo..min(k, m) of row k)
    # with lo = max(0, m-(n-k)), at most min(m, n-m) + 1 entries once k >= m.
    # Each row is stepped from the one yielded before it, never from a copy a
    # reader patched, so a fault cannot spread.
    lo = max(0, m - (n - h))
    band = row[lo:m + 1]
    for k in range(h, n + 1):
        if k > h:
            next_lo = max(0, m - (n - k))
            band = _next_row(kind, band, k - 1, lo)[next_lo - lo:m + 1 - lo]
            lo = next_lo
        yield k, lo, band


class StirlingCalculator:
    """Point queries and memoized rows over both triangles.

    All public index arguments are validated against ``index_cap``. Reads of
    already-built rows and walks past them are lock-free; growth happens
    under a lock, appending immutable tuples, so values returned to
    concurrent callers are always consistent with the sequential ones.
    """

    def __init__(self, index_cap: int = DEFAULT_INDEX_CAP):
        self.index_cap = check_limit(index_cap, "index cap")
        self._rows = {
            StirlingKind.FIRST_SIGNED: [(1,)],
            StirlingKind.SECOND: [(1,)],
        }
        # per stored kind: band steps walked since its memo last grew
        self._walked = dict.fromkeys(self._rows, 0)
        self._lock = threading.Lock()

    def value(self, kind: StirlingKind, n: int, m: int) -> int:
        """Stirling number of the given kind at (n, m); zero outside the
        triangle. Read from row n if the memo holds it, else, storing no row,
        by the cheapest of: the walk from the memo's last row h, costing
        (n - h)(min(m, n - m) + 1) steps; for the second kind, the explicit
        sum sum_j (-1)^(m-j) C(m, j) j^n / m!, costing max(8, n // 8)(m + 1);
        and for n >= 32, the conversion from diagonal d = n - m of the other
        kind, costing 2 (d + 1)^2. Once such reads have been charged as many
        walk steps as the missing rows hold, those rows are stored instead."""
        check_index(n, self.index_cap, "n")
        check_index(m, self.index_cap, "m")
        if kind is not StirlingKind.FIRST_UNSIGNED:
            return self._entry(kind, n, m)
        signed = self._entry(StirlingKind.FIRST_SIGNED, n, m)
        return -signed if (n - m) % 2 else signed

    def _entry(self, kind: StirlingKind, n: int, m: int, converts: bool = True) -> int:
        # entry (n, m) of a stored kind, zero when m > n: from the memo, or
        # off it by the cheapest route until the walks since the memo last grew
        # would take more steps than rows h+1..n hold, and then grown. Without
        # converts, no route is the conversion. The walk takes no lock: rows only
        # get appended, so row h stays row h while other threads grow the memo,
        # and a lost update of the count only delays growth.
        rows = self._rows.get(kind)
        if rows is None:
            _stored(kind)  # raises: the memo holds every stored kind
        if m > n:
            return 0
        h = len(rows) - 1
        if n > h:
            steps = (n - h) * (min(m, n - m) + 1)
            walked = self._walked[kind] + steps
            if walked <= (n - h) * (n + h + 3) // 2:
                self._walked[kind] = walked
                # a second-kind entry costs m + 1 powers j^n by the explicit sum.
                # Timed against walks from horizons 0 to 7n/8, a power cost as
                # much as about 64 band steps at n = 512 and 250-375 at n = 2000
                # to 3000, where pow outgrows a step's add; at n <= 128, where a
                # step's overhead dominates, the sum won from a few steps. So a
                # power counts max(8, n // 8) steps; the floor keeps n <= 8 walking.
                summed = max(8, n // 8) * (m + 1) if kind is StirlingKind.SECOND else steps
                # either kind's entry is also eq1/eq2's sum over diagonal d = n - m of
                # the other kind, off the band to (2d, d). Timed against walks from
                # row 0 for n = 128 to 2000, the first kind broke even at d = n/2 and
                # the second at d = n/2.25 to n/2, so the conversion counts 2 (d + 1)^2
                # steps. That tops every walk at m = 0; the floor keeps n < 32 off it.
                if converts and n >= 32 and 2 * (n - m + 1) ** 2 < min(steps, summed):
                    source, = self._rows.keys() - {kind}  # the other stored kind
                    return self._seen(kind, n, m, (_converted(source, n, m),))[0]
                if summed < steps:
                    return self._seen(kind, n, m, (_second_kind_sum(n, m),))[0]
                for _, _, band in _band(kind, rows[h], h, n, m):
                    pass
                return self._seen(kind, n, m, band)[0]
            self._grow(rows, kind, n)
        return self._seen(kind, n, m, rows[n][m:m + 1])[0]

    def row(self, kind: StirlingKind, n: int) -> tuple:
        """Row n of a stored kind (FIRST_SIGNED or SECOND): the tuple of its
        n + 1 entries, built on first use.

        The read path of everything but :meth:`value`: triangles,
        conversions, sweeps and polynomial builders read entries out of
        these rows.
        """
        rows = self._rows.get(kind)
        if rows is None:
            _stored(kind)  # raises: the memo holds every stored kind
        if len(rows) <= check_index(n, self.index_cap, "n"):
            self._grow(rows, kind, n)
        return self._seen(kind, n, 0, rows[n])

    def _seen(self, kind: StirlingKind, n: int, lo: int, entries: tuple) -> tuple:
        # columns lo.. of row n of a stored kind as every read hands them out:
        # row(), value()'s memo read, band, explicit sum and conversion, and the
        # band rows that _conversion_rows and _convert read. The memo and the
        # bands keep rows as built.
        return entries

    def _grow(self, rows: list, kind: StirlingKind, n: int) -> None:
        # append rows of a stored kind to its memo rows up to row n
        with self._lock:
            while len(rows) <= n:
                rows.append(_next_row(kind, rows[-1], len(rows) - 1))
            self._walked[kind] = 0

    def triangle(self, kind: StirlingKind, max_row: int) -> Triangle:
        """Snapshot rows 0..max_row of one kind."""
        check_index(max_row, self.index_cap, "max_row")
        if kind is not StirlingKind.FIRST_UNSIGNED:
            return Triangle(kind, (self.row(kind, n) for n in range(max_row + 1)))
        signed = (self.row(StirlingKind.FIRST_SIGNED, n) for n in range(max_row + 1))
        return Triangle(kind, (
            [-v if (n - m) % 2 else v for m, v in enumerate(row)]
            for n, row in enumerate(signed)
        ))

    def first_from_second(self, n: int, m: int) -> int:
        """Signed first-kind value rebuilt from the second-kind triangle:

            s(n, m) = sum_{k=0}^{n-m} (-1)^k C(n-1+k, n-m+k) C(2n-m, n-m-k) S(n-m+k, k)

        Requires 1 <= m <= n. Must equal value(FIRST_SIGNED, n, m) exactly.
        """
        return self._convert(StirlingKind.SECOND, n, m)

    def second_from_first(self, n: int, m: int) -> int:
        """Second-kind value rebuilt from the signed first-kind triangle;
        the mirror image of :meth:`first_from_second`."""
        return self._convert(StirlingKind.FIRST_SIGNED, n, m)

    def _convert(self, source: StirlingKind, n: int, m: int) -> int:
        # _converted's sum over the source kind, read through _seen
        check_index(n, self.index_cap, "n")
        check_index(m, self.index_cap, "m")
        if m < 1 or m > n:
            raise ValueError(f"conversion requires 1 <= m <= n, got n={n}, m={m}")
        return _converted(source, n, m, self._seen)


class PerturbedCalculator(StirlingCalculator):
    """Calculator whose one stored entry comes back offset by delta.

    The fault lives in one hook, ``_seen``, which every read goes through:
    the copy of its row handed out by :meth:`row`, the entry :meth:`value`
    reads by any route (its conversion reads the source as built), and each
    band row that the eq1/eq2 sweeps and the public conversions read their
    source diagonals from. The memo and the bands keep their rows as
    built, so rows built later by the recurrence are the healthy ones and
    the fault never spreads past its own entry.

    Fault injector: an identity suite that still passes against a corrupted
    triangle would be vacuous, so tests (and ``verify --inject-fault``) use
    this to prove the checkers can fail.
    """

    def __init__(self, kind: StirlingKind, n: int, m: int, delta: int = 1,
                 index_cap: int = DEFAULT_INDEX_CAP):
        super().__init__(index_cap=index_cap)
        check_index(n, index_cap, "n")
        check_index(m, index_cap, "m")
        if m > n:
            raise ValueError(f"(n={n}, m={m}) lies outside the triangle")
        if check_int(delta, "delta") == 0:
            raise ValueError("delta must be nonzero")
        self.target = (_stored(kind), n, m)
        self.delta = delta

    def _seen(self, kind: StirlingKind, n: int, lo: int, entries: tuple) -> tuple:
        target_kind, target_n, target_m = self.target
        i = target_m - lo
        if kind is not target_kind or n != target_n or not 0 <= i < len(entries):
            return entries
        patched = list(entries)
        patched[i] += self.delta
        return tuple(patched)


def _converted(source: StirlingKind, n: int, m: int, seen=lambda kind, k, lo, band: band) -> int:
    # first_from_second's sum over diagonal d = n - m of the source kind (column 0 of
    # rows d..2d of the band to (2d, d), each row read through seen, by default as
    # built), each signed binomial stepped exactly from the one before it
    d = n - m
    column = accumulate(range(n, n + d), lambda c, j: c * j // (j - m + 1),
                        initial=(-1) ** (m - 1) * comb(n - 1, m - 1))
    row = accumulate(range(d), lambda r, k: -r * (d - k) // (n + k + 1),
                     initial=(-1) ** d * comb(n + d, d))
    diagonal = [seen(source, k, lo, band)[0]
                for k, lo, band in _band(source, (1,), 0, 2 * d, d) if k >= d]
    return _conversion_sum(n, column, row, diagonal)


def _conversion_rows(calc: StirlingCalculator, source: StirlingKind, top: int):
    # for n = 1..top, the tuple of _converted's sums at m = 1..n, weighted by slices of
    # _pascal(top), which a sweep reads faster than stepped binomials. The diagonals
    # 0..top-1 come through calc._seen off the band to (2top-2, top-1): rows 0..top-1
    # whole, then one column fewer on the left at every row. Column c of row r lies
    # on diagonal r-c and is read while c <= r-c, so diagonals r-lo down to ceil(r/2).
    pascal = _pascal(top)
    columns = _columns(pascal, top)
    diagonals = [[] for _ in range(top)]
    for r, lo, band in _band(source, (1,), 0, 2 * top - 2, top - 1):
        for d, entry in zip(range(r - lo, (r - 1) // 2, -1), calc._seen(source, r, lo, band)):
            diagonals[d].append(entry)
    for n in range(1, top + 1):
        yield tuple(_conversion_sum(n, column[d:2 * d + 1], pascal[n + d][d::-1], diagonals[d])
                    for column, d in zip(columns, range(n - 1, -1, -1)))


def _conversion_sum(n: int, column, row, diagonal) -> int:
    # sum_{k=0}^{d} (-1)^k C(n-1+k, m-1) C(n+d, d-k) source(d+k, k), d = n - m: Pascal
    # column m-1 over rows n-1..n-1+d and row n+d read backwards from index d. Signed
    # as in _pascal they carry (-1)^(m-1) (-1)^(d-k) = (-1)^k (-1)^(n-1).
    total = sum(map(mul, map(mul, column, row), diagonal))
    return total if n % 2 else -total


def _second_kind_sum(n: int, m: int) -> int:
    # S(n, m) = sum_{j=0}^{m} (-1)^(m-j) C(m, j) j^n / m!, exactly: m + 1 powers,
    # each signed binomial stepped from the one before it
    binomials = accumulate(range(1, m + 1), lambda c, j: -c * (m + 1 - j) // j, initial=(-1) ** m)
    return sum(map(mul, binomials, map(pow, range(m + 1), repeat(n)))) // factorial(m)


def _pascal(top: int) -> list:
    # rows 0..2*top-1 of (-1)^j C(r, j), the coefficients of (1 - x)^r, each kept
    # to its first top entries: all that a conversion sweep up to n = top reads
    rows, row = [], (1,)
    while len(rows) < 2 * top:
        rows.append(row[:top])
        row = (1, *map(sub, row[1:], row), -row[-1])
    return rows


def _columns(rows, width: int) -> list:
    # columns 0..width-1 of the rows 0..top, column k from its entry (k, k) down
    padded = zip_longest(*(row[:width] for row in rows), fillvalue=0)
    return [column[k:] for k, column in enumerate(padded)]


def _product(calc: StirlingCalculator, outer: StirlingKind, inner: StirlingKind,
             top: int, first: int = 0) -> list:
    # rows first..top of outer·inner, from the columns of inner rows 0..top: entry
    # (m, k) = sum_{l=k}^{m} outer(m, l) inner(l, k), k = 0..m (zero past m)
    columns = _columns([calc.row(inner, n) for n in range(top + 1)], top + 1)
    rows = (calc.row(outer, m) for m in range(first, top + 1))
    return [[sum(map(mul, row[k:], columns[k])) for k in range(len(row))] for row in rows]


_SHARED = StirlingCalculator()


def stirling(kind: StirlingKind, n: int, m: int) -> int:
    return _SHARED.value(kind, n, m)


def build_triangle(kind: StirlingKind, max_row: int) -> Triangle:
    return _SHARED.triangle(kind, max_row)


def first_from_second(n: int, m: int) -> int:
    return _SHARED.first_from_second(n, m)


def second_from_first(n: int, m: int) -> int:
    return _SHARED.second_from_first(n, m)
