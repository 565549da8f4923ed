"""Brute-force ground truth by direct enumeration.

Counts permutations by cycle count and set partitions by block count, one
object at a time. Nothing here shares code, recurrences, or triangles with
the engine; that independence is the whole point of an oracle, so do not
"optimize" these by delegating to it, by a recurrence in n, or by a statistic
that merely has the same distribution. Every permutation is visited; its
cycle count comes from its predecessor's count, one transposition and one
walk along its own array. A finished census is memoized so repeated point
queries do not re-enumerate.

Costs grow factorially (10! = 3 628 800 permutations, Bell(10) = 115 975
partitions), hence the budget rail.
"""

from functools import lru_cache

from .exact import ResourceLimitError, check_int, check_limit

DEFAULT_ENUMERATION_BUDGET = 10


class BudgetExceededError(ResourceLimitError):
    """Enumeration request beyond the configured budget."""

    def __init__(self, n: int, budget: int):
        super().__init__(
            f"n={n} exceeds the enumeration budget of {budget} "
            "(enumeration cost grows factorially)"
        )
        self.n = n
        self.budget = budget


def _check_args(n: int, m: int, budget: int):
    check_int(n, "n")
    check_limit(m, "m")
    check_limit(budget, "oracle budget")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > budget:
        raise BudgetExceededError(n, budget)


def count_permutations_by_cycles(n: int, m: int,
                                 budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Number of permutations of an n-set with exactly m cycles, found by
    enumerating all n! permutations and counting the cycles of each one."""
    _check_args(n, m, budget)
    if m > n:
        return 0
    return _permutation_cycle_census(n)[m]


def count_set_partitions(n: int, m: int,
                         budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Number of partitions of an n-set into exactly m nonempty blocks, found
    by enumerating every restricted growth string of length n."""
    _check_args(n, m, budget)
    if m > n:
        return 0
    return _set_partition_census(n)[m]


@lru_cache(maxsize=None)
def _permutation_cycle_census(n: int) -> tuple:
    """counts[m] = permutations of range(n) with exactly m cycles.

    Heap's algorithm (iterative; c[i] counts the swaps made at level i)
    visits all n! permutations of one array, starting from the identity with
    n cycles. Each step swaps positions a and i, which composes the
    permutation with the transposition (a i). That splits the cycle through
    a and i if both lie on it (+1 cycle) and merges their two cycles
    otherwise (-1), so walking from perm[a] until the walk meets a or i
    tells which.
    """
    counts = [0] * (n + 1)
    counts[n] = 1
    perm = list(range(n))
    cycles = n
    c = [0] * n
    i = 1
    while i < n:
        k = c[i]
        if k < i:
            a = k if i & 1 else 0
            j = perm[a]
            while j != a and j != i:
                j = perm[j]
            cycles += 1 if j == i else -1
            perm[a], perm[i] = perm[i], perm[a]
            counts[cycles] += 1
            c[i] = k + 1
            i = 1
        else:
            c[i] = 0
            i += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def _set_partition_census(n: int) -> tuple:
    """counts[m] = partitions of an n-set with exactly m blocks.

    Enumerates restricted growth strings: position i may reuse any of the
    block labels seen so far or open the next one, so every leaf of the
    recursion is one distinct partition, with no duplicates to filter.
    """
    counts = [0] * (n + 1)

    def extend(i, used):
        if i == n:
            counts[used] += 1
            return
        for _reused_label in range(used):
            extend(i + 1, used)
        extend(i + 1, used + 1)

    extend(0, 0)
    return tuple(counts)
