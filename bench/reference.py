"""Reference values for checking the CLI's output.

Nothing here imports the engine: each value comes from a textbook formula
that the engine does not use, so a defect in the engine cannot hide itself.
"""

from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def second_kind(n: int, m: int) -> int:
    """S(n, m) by the explicit alternating sum

        S(n, m) = sum_{k=0}^{m} (-1)^k C(m, k) (m - k)^n / m!

    (Python's 0 ** 0 == 1 gives S(0, 0) = 1 and S(n, 0) = 0 for n > 0.)
    """
    total = sum((-1) ** k * comb(m, k) * (m - k) ** n for k in range(m + 1))
    quotient, remainder = divmod(total, factorial(m))
    if remainder:
        raise ArithmeticError(f"alternating sum for S({n}, {m}) is not divisible by {m}!")
    return quotient


def unsigned_first_kind_rows(ns) -> dict:
    """{n: (|s(n, 0)|, ..., |s(n, n)|)} for every n in ns: the coefficients
    of the rising factorial x (x + 1) ... (x + n - 1), expanded once up to
    the largest n."""
    wanted = set(ns)
    rows = {}
    coeffs = [1]
    for n in range(max(wanted, default=-1) + 1):
        if n:
            shift = n - 1
            coeffs = [shift * c + below for c, below in zip(coeffs + [0], [0] + coeffs)]
        if n in wanted:
            rows[n] = tuple(coeffs)
    return rows


@lru_cache(maxsize=None)
def bell_numbers(upto: int) -> tuple:
    """Bell(0), ..., Bell(upto) from Aitken's array; Bell(n) is the sum of
    row n of the second-kind triangle, a checksum for a whole row."""
    bells = [1]
    row = [1]
    for _ in range(upto):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[0])
    return tuple(bells)
