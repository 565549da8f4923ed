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
no synchronization once a row exists. Whole rows are stepped, each from the
one before it, by ``_next_row``, and read two ways. Readers that come back
to rows read :meth:`StirlingCalculator.row`, which stores them in the memo.
Triangles and the other sweeps read rows 0..N once each off ``_stream``,
which takes row n from the memo while the memo holds it, steps it from row
n - 1 as built otherwise, and stores none; triangles write theirs, the
unsigned rows sign-flipped as they go, into a snapshot or straight into CSV
or JSON text, ``_csv_lines`` and ``_json_lines``. Every other table a sweep
holds, bar lists of N ints, comes from ``_product``, the rows of s·S and
S·s, or ``_conversion_rows``, eq1/eq2's Pascal weights and diagonals.
``_product`` builds each product row from the last by the product's own
recurrence, P(m+1, k) = P(m, k-1) + (k - m) P(m, k) for s·S and P(m, k-1)
for S·s, plus two sparse corrections where a row as read differs from its
kind's recurrence applied to the row before it. That is exactly
sum_l outer(m, l) inner(l, k) for any lower-triangular rows, so a fault
reads as it would in the dot products. On healthy rows every correction is
zero, and the product costs O(N^2) small-int steps after one pass that
checks each row against its recurrence.
The cones that walks and conversions read come off a band, ``_band``: the
rows from a start row up to (n, m), each kept only in the columns that
reach (n, m) and stored nowhere. A point query,
:meth:`StirlingCalculator.value`, reads row n if the memo holds it.
Otherwise ``_route`` picks the first cheapest of four routes, each costed
in band steps: the walk up the band from the memo's last row h,
(n - h)(min(m, n - m) + 1) steps in one band of memory; for the second kind,
the explicit sum S(n, m) = sum_j (-1)^(m-j) C(m, j) j^n / m!,
``_second_kind_sum``, max(8, n // 8)(m + 1), though only odd j take a power
and every j = o 2^a reuses o^n shifted; for the first kind and n >= 32, the
folded product, ``_folded``: the rising factorial x(x+1)...(x+n-1) with
factors j and n-1-j paired into a polynomial in y = x(x+n-1), whose band of
n // 2 rows to a window about min(m, n - m) / 2 wide counts
3/2 (n // 2)(min(m, n - m) // 2 + 1); and for n >= 32, eq1/eq2's sum over
diagonal d = n - m of the other kind, ``_converted``, whose band to (2d, d)
counts 2 (d + 1)^2. The query is charged the cost of the route it took, and
once those charges since the memo last grew would top the entries of the
missing rows, the query fills them instead: one query stores nothing, and
many on one calculator cost, in charged steps, at most about twice the
entries of the rows they read. The eq1/eq2 sweeps up to N read source
diagonals 0..N-1, entries (d + k, k) with k <= d, off the band from row 0 to
(2N - 2, N - 1), and a conversion at (n, m) reads diagonal d alone off the
band to (2d, d), so neither stores a source row. The band, the fold and
whole rows take the same step, ``_step``; the product writes its recurrences
out on its own, so that rows built wrong by ``_step`` fail its readers.
Every read hands its entries out through one hook, ``_seen``, which is
where a fault is injected: a summed, folded or converted query hands out
its one result there, and a converted one reads its source diagonal as
built.

The inter-kind conversions rebuild either kind from the other through
alternating binomial-weighted sums over the opposite triangle; they must
agree with the recurrence-built values exactly, which makes them the first
whole-triangle consistency check.
"""

import enum
import threading
from itertools import accumulate, chain, repeat, zip_longest
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
        return "".join(_csv_lines(self.rows))

    def to_json(self) -> str:
        """Rows as a JSON array of arrays of exact decimal strings."""
        return "".join(_json_lines(self.rows))


def _csv_lines(rows):
    # Triangle.to_csv's text, one line per row
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _json_lines(rows):
    # Triangle.to_json's text, dump_json of the list of rows, one piece per row:
    # each row as dump_json writes it inside its outer brackets, the first piece
    # opening the array only once a row has arrived. Needs at least one row.
    separator = "[\n"
    for row in rows:
        yield separator + dump_json([list(map(str, row))])[2:-2]
        separator = ",\n"
    yield "\n]"


def _next_row(kind: StirlingKind, prev: tuple, n: int, lo: int = 0) -> tuple:
    # columns lo..hi+1 of row n+1 of a stored kind from columns lo..hi of its row
    # n: _step with w_m = -n (first kind) or m (second)
    weights = repeat(-n) if kind is StirlingKind.FIRST_SIGNED else range(lo + 1, lo + len(prev))
    return _step(prev, weights)


def _step(prev: tuple, weights) -> tuple:
    # columns lo..hi+1 from columns lo..hi: entry m = prev[m-1] + w_m prev[m] for
    # m = lo+1..hi, flanked by 0 and prev[hi]; with every w_m = w, a polynomial's
    # coefficients times x + w. The 0 is column lo only when lo = 0 and prev[hi]
    # the top only when hi is the degree: a whole row is exact, and a band drops
    # the flanks it has not reached.
    return (0, *map(add, prev, map(mul, weights, prev[1:])), prev[-1])


def _band(kind: StirlingKind, row: tuple, h: int, n: int, m: int):
    # the cone to (n, m) that a walk and a conversion read: rows h..n of a stored
    # kind from its row h, keeping of row k only the columns that reach (n, m).
    # Yields (k, lo, columns lo..min(k, m) of row k) with lo = max(0, m-(n-k)), at
    # most min(m, n-m) + 1 entries once k >= m. Each row is stepped from the one
    # yielded before it, never from a copy a reader patched, so a fault cannot spread.
    lo = max(0, m - (n - h))
    band = row[lo:m + 1]
    for k in range(h, n + 1):
        if k > h:
            next_lo = max(0, m - (n - k))
            band = _next_row(kind, band, k - 1, lo)[next_lo - lo:m + 1 - lo]
            lo = next_lo
        yield k, lo, band


def _route(kind: StirlingKind, row: tuple, h: int, n: int, m: int, converts: bool):
    # (cost in band steps, call returning entry (n, m)) of the first cheapest route
    # there from row h of a stored kind, h < n, routes listed in the order that
    # breaks ties. The walk up the band costs (n - h)(min(m, n - m) + 1).
    # A second-kind entry costs m + 1 powers j^n by the explicit sum. Timed against
    # walks from horizons 0 to 7n/8, a power cost as much as about 64 band steps at
    # n = 512 and 250-375 at n = 2000 to 3000, where pow outgrows a step's add; at
    # n <= 128, where a step's overhead dominates, the sum won from a few steps. So
    # a power counts max(8, n // 8) steps; the floor keeps n <= 8 walking.
    # A first-kind entry is summed off the folded product instead, a band of n // 2
    # rows about half as wide as the walk's, counted as 3/2 of its entries. Timed for
    # n = 33 to 2000, it won 2.1-3.4 times over walks from row 0 and came within
    # 0.8-1.08 times of walks from horizons where the counts meet. The floor keeps
    # n < 32 walking.
    # Either kind's entry is also eq1/eq2's sum over diagonal d = n - m of the other
    # kind, off the band to (2d, d); without converts it is not a route. Timed
    # against walks from row 0 for n = 128 to 2000, the first kind broke even at
    # d = n/2 and the second at d = n/2.25 to n/2, so the conversion counts
    # 2 (d + 1)^2 steps. That tops every walk at m = 0; the floor keeps n < 32 off it.
    # Each route looks its function up when it runs, and the walk holds one band
    # row at a time.
    def walk():
        for _, _, band in _band(kind, row, h, n, m):
            pass
        return band[0]

    routes = [((n - h) * (min(m, n - m) + 1), walk)]
    if kind is StirlingKind.SECOND:
        routes.append((max(8, n // 8) * (m + 1), lambda: _second_kind_sum(n, m)))
    elif n >= 32:
        routes.append((3 * (n // 2) * (min(m, n - m) // 2 + 1) // 2, lambda: _folded(n, m)))
    if converts and n >= 32:
        source = StirlingKind.FIRST_SIGNED if kind is StirlingKind.SECOND else StirlingKind.SECOND
        routes.append((2 * (n - m + 1) ** 2, lambda: _converted(source, n, m)))
    return min(routes, key=lambda route: route[0])


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
        # per stored kind: band steps charged off the memo since it last grew
        self._walked = dict.fromkeys(self._rows, 0)
        self._lock = threading.Lock()

    def value(self, kind: StirlingKind, n: int, m: int) -> int:
        """Stirling number of the given kind at (n, m); zero outside the
        triangle. Read from row n if the memo holds it, else, storing no row,
        by the cheapest of four routes, each costed in band steps as the
        module docstring lists: the walk from the memo's last row, the
        explicit sum (second kind), the folded rising factorial (first kind)
        and the conversion from the other kind. Each such read is charged the
        cost of the route it took; once the charges since the memo last grew
        would top the entries of the missing rows, those rows are stored
        instead."""
        check_index(n, self.index_cap, "n")
        check_index(m, self.index_cap, "m")
        if kind is not StirlingKind.FIRST_UNSIGNED:
            return self._entry(kind, n, m)
        signed = self._entry(StirlingKind.FIRST_SIGNED, n, m)
        return -signed if (n - m) % 2 else signed

    def _entry(self, kind: StirlingKind, n: int, m: int, converts: bool = True) -> int:
        # entry (n, m) of a stored kind, zero when m > n: from the memo, or off
        # it by _route's cheapest route, charged that route's cost, until the
        # charges since the memo last grew would top the entries rows h+1..n
        # hold, and then grown. Without converts, no route is the conversion.
        # The routes take no lock: rows only get appended, so row h stays row h
        # while other threads grow the memo, and a lost update of the charge
        # only delays growth.
        rows = self._rows.get(kind)
        if rows is None:
            _stored(kind)  # raises: the memo holds every stored kind
        if m > n:
            return 0
        h = len(rows) - 1
        if n > h:
            cost, route = _route(kind, rows[h], h, n, m, converts)
            if self._walked[kind] + cost <= (n - h) * (n + h + 3) // 2:
                self._walked[kind] += cost
                return self._seen(kind, n, m, (route(),))[0]
            self._grow(rows, kind, n)
        return self._seen(kind, n, m, rows[n][m:m + 1])[0]

    def row(self, kind: StirlingKind, n: int) -> tuple:
        """Row n of a stored kind (FIRST_SIGNED or SECOND): the tuple of its
        n + 1 entries, stored in the memo with the rows before it on first use.

        The read path of readers that come back to rows: the products
        and the orthogonality check.
        """
        rows = self._rows.get(kind)
        if rows is None:
            _stored(kind)  # raises: the memo holds every stored kind
        if len(rows) <= check_index(n, self.index_cap, "n"):
            self._grow(rows, kind, n)
        return self._seen(kind, n, 0, rows[n])

    def _seen(self, kind: StirlingKind, n: int, lo: int, entries: tuple) -> tuple:
        # columns lo.. of row n of a stored kind as every read hands them out:
        # row(), _stream, value()'s memo read, band, explicit sum, fold and
        # conversion, and the band rows that _conversion_rows and _convert read.
        # The memo and the bands keep rows as built.
        return entries

    def _grow(self, rows: list, kind: StirlingKind, n: int) -> None:
        # append rows of a stored kind to its memo rows up to row n
        with self._lock:
            while len(rows) <= n:
                rows.append(_next_row(kind, rows[-1], len(rows) - 1))
            self._walked[kind] = 0

    def triangle(self, kind: StirlingKind, max_row: int) -> Triangle:
        """Snapshot rows 0..max_row of one kind, each as :meth:`row` hands it
        out; entry m of first-unsigned row n is (-1)^(n-m) times the signed one."""
        check_index(max_row, self.index_cap, "max_row")
        return Triangle(kind, self._stream(kind, max_row))

    def _stream(self, kind: StirlingKind, top: int):
        # rows 0..top of any kind as row() hands them out, storing none: row n
        # from the memo while it holds it, else by _next_row from row n-1 as
        # built; first-unsigned flips the signed rows' signs one row at a time
        stored = StirlingKind.FIRST_SIGNED if kind is StirlingKind.FIRST_UNSIGNED else kind
        rows = self._rows[stored]
        for n in range(top + 1):
            built = rows[n] if n < len(rows) else _next_row(stored, built, n - 1)
            row = self._seen(stored, n, 0, built)
            if kind is not stored:
                row = tuple(-v if (n - m) % 2 else v for m, v in enumerate(row))
            yield row

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
    the copy of its row handed out by :meth:`row` or a stream of rows, the
    entry :meth:`value` reads by any route (its conversion reads the source
    as built), and each band row that the eq1/eq2 sweeps and the public
    conversions read their source diagonals from. The memo, the streams and
    the bands step each row from the one before it as built, so rows built
    later by the recurrence are the healthy ones and the fault never spreads
    past its own entry.

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
    # _pascal(top), which a sweep reads faster than stepped binomials: its rows, and
    # its columns, zero-padded, each from its entry (k, k) down. The diagonals
    # 0..top-1 come through calc._seen off the band to (2top-2, top-1): rows 0..top-1
    # whole, then one column fewer on the left at every row. Column c of row r lies
    # on diagonal r-c and is read while c <= r-c, so diagonals r-lo down to ceil(r/2).
    pascal = _pascal(top)
    columns = [column[k:] for k, column in enumerate(zip_longest(*pascal, fillvalue=0))]
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
    # S(n, m) = sum_{j=0}^{m} (-1)^(m-j) C(m, j) j^n / m!, exactly, each signed
    # binomial stepped from the one before it. Only odd j = o take a power: o^n
    # serves every j = o 2^a <= m, as o^n shifted left by a n bits, and one power
    # is held at a time. The j = 0 term is 0^n, 1 when n = 0.
    binomials = list(accumulate(range(1, m + 1), lambda c, j: -c * (m + 1 - j) // j,
                                initial=(-1) ** m))
    total = binomials[0] if n == 0 else 0
    for odd in range(1, m + 1, 2):
        power, shift, j = pow(odd, n), 0, odd
        while j <= m:
            total += binomials[j] * power << shift
            j, shift = 2 * j, shift + n
    return total // factorial(m)


def _folded(n: int, m: int) -> int:
    # s(n, m) off x(x+1)...(x+n-1) = Q(y) (x + h)^(n % 2), h = n // 2, folded
    # about its centre: factor j times factor n-1-j is y + j(n-1-j), y = x(x+n-1),
    # so Q(y) = prod_{j<h} (y + j(n-1-j)). Q's coefficients c_k come a factor at a
    # time by _step, kept to the columns k = ceil(t/2)..min(m, h), t = m - n % 2,
    # that reach x^t and x^m through y^k = sum_i C(k, i) (n-1)^(k-i) x^(k+i); so
    # the x^t coefficient of Q(y) is g(t) = sum_k c_k C(k, t-k) (n-1)^(2k-t), and
    # |s(n, m)| is g(m) for even n and g(m-1) + h g(m) for odd n.
    h, odd = divmod(n, 2)
    left, right = (m - odd + 1) // 2, min(m, h)
    lo, band = 0, (1,)
    for j in range(h):
        next_lo = max(0, left - (h - 1 - j))
        band = _step(band, repeat(j * (n - 1 - j)))[next_lo - lo:right + 1 - lo]
        lo = next_lo

    def g(t):
        # Horner in (n-1)^2 over k = min(t, right) down to ceil(t/2)
        total, square = 0, (n - 1) ** 2
        for k in range(min(t, right), (t - 1) // 2, -1):
            total = total * square + band[k - left] * comb(k, t - k)
        return total * (n - 1) ** (t % 2)

    unsigned = g(m - 1) + h * g(m) if odd else g(m)
    return -unsigned if (n - m) % 2 else unsigned


def _pascal(top: int) -> list:
    # rows 0..2*top-1 of (-1)^j C(r, j), the coefficients of (1 - x)^r, each kept
    # to its first top entries: all that a conversion sweep up to n = top reads
    rows, row = [], (1,)
    while len(rows) < 2 * top:
        rows.append(row[:top])
        row = (1, *map(sub, row[1:], row), -row[-1])
    return rows


def _product(calc: StirlingCalculator, outer: StirlingKind, inner: StirlingKind,
             top: int) -> list:
    # rows 0..top of outer·inner, entry (m, k) = sum_{l=k}^{m} outer(m, l) inner(l, k),
    # k = 0..m (zero past m), each row built from the last by the product's own
    # recurrence. With outer(m+1, l) = outer(m, l-1) + a_l outer(m, l) + r_{m+1}(l) and
    # inner(l+1, k) = inner(l, k-1) + b_k inner(l, k) + rho_{l+1}(k), where a and b
    # are each kind's weights and r and rho what the rows as read add to them,
    #   P(m+1, k) = P(m, k-1) + (a + b) P(m, k)
    #             + sum_{l<=m} outer(m, l) rho_{l+1}(k) + sum_l r_{m+1}(l) inner(l, k),
    # since a_l + b_k does not depend on l: k - m for s·S, l - l = 0 for S·s. That
    # holds for any lower-triangular int rows, so a fault changes the product exactly
    # as it changes the dot products; healthy rows leave every r and rho zero. The
    # recurrences are written out here, apart from the row builder's, so that a
    # builder broken the same way cannot make the product vacuously right.
    def residuals(kind, rows):
        # per row l+1, the nonzero (k, row(l+1)[k] - row(l)[k-1] - w_k row(l)[k]) for
        # k = 0..l+1, w_k = -l for s and k for S; row 0 has no predecessor
        found = [()]
        for l, (prev, row) in enumerate(zip(rows, rows[1:])):
            weights = repeat(-l, l + 1) if kind is StirlingKind.FIRST_SIGNED else range(l + 1)
            stepped = (*map(add, chain((0,), prev), map(mul, weights, prev)), prev[-1])
            found.append(() if row == stepped else
                         [(k, a - b) for k, (a, b) in enumerate(zip(row, stepped)) if a != b])
        return found

    inner_rows = [calc.row(inner, n) for n in range(top + 1)]
    outer_rows = [calc.row(outer, m) for m in range(top + 1)]
    rho, r = residuals(inner, inner_rows), residuals(outer, outer_rows)
    broken = [l for l in range(top) if rho[l + 1]]
    rows = [[outer_rows[0][0] * inner_rows[0][0]]]
    for m, outer_row in enumerate(outer_rows[:top]):
        prev = rows[-1]
        if outer is StirlingKind.FIRST_SIGNED:
            row = [*map(add, chain((0,), prev), map(mul, range(-m, 1), prev)), prev[-1]]
        else:
            row = [0, *prev]
        for l in broken:
            if l > m:
                break
            for k, d in rho[l + 1]:
                row[k] += outer_row[l] * d
        for l, d in r[m + 1]:
            row[:l + 1] = map(add, row, map(mul, repeat(d), inner_rows[l]))
        rows.append(row)
    return rows


_SHARED = StirlingCalculator()


def stirling(kind: StirlingKind, n: int, m: int) -> int:
    return _SHARED.value(kind, n, m)


def build_triangle(kind: StirlingKind, max_row: int) -> Triangle:
    return _SHARED.triangle(kind, max_row)


def first_from_second(n: int, m: int) -> int:
    return _SHARED.first_from_second(n, m)


def second_from_first(n: int, m: int) -> int:
    return _SHARED.second_from_first(n, m)
