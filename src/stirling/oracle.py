"""Brute-force ground truth by direct enumeration.

Counts permutations by cycle count and set partitions by block count, one
object at a time. Nothing here shares code, recurrences, or triangles with
the engine; that independence is the whole point of an oracle, so do not
"optimize" these by delegating to it, by a recurrence in n, or by a statistic
that merely has the same distribution. Every permutation is visited; its
cycle count comes from its predecessor's count, one transposition and one
walk. Heap's algorithm makes the same swaps inside its first five positions
between any two swaps further out, so the census replays those swaps as one
block. Positions from five up keep their values inside a block, so each of
its swaps is walked on the block's contracted map, which sends a position
below five to the first position below five that the permutation reaches
from it; two positions share a cycle of the permutation exactly when they
share one of the map. A block's counts are never copied from another
block's: each permutation in it is walked and counted on its own. A finished
census is memoized so repeated point queries do not re-enumerate.

Costs still grow factorially: the n = 10 census (3 628 800 permutations)
takes about 1 s on a 2-vCPU Xeon VM under CPython 3.11, and Bell(10) =
115 975 partitions about 0.03 s. Hence the budget rail.
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


# Heap's algorithm runs the same swaps below this position between any two
# swaps at a higher level; the census replays them as one block. Blocks of
# 4, 6 and 7 positions timed no faster.
_BLOCK = 5


def _heap_swaps(size: int) -> tuple:
    """The size! - 1 swaps (a, i) Heap's algorithm makes on range(size), in
    order: c[i] counts the swaps made at level i."""
    swaps = []
    c = [0] * size
    i = 1
    while i < size:
        k = c[i]
        if k < i:
            swaps.append((k if i & 1 else 0, i))
            c[i] = k + 1
            i = 1
        else:
            c[i] = 0
            i += 1
    return tuple(swaps)


@lru_cache(maxsize=None)
def _permutation_cycle_census(n: int) -> tuple:
    """counts[m] = permutations of range(n) with exactly m cycles.

    Heap's algorithm visits all n! permutations of one array, starting from
    the identity with n cycles. Each step swaps positions a and i, which
    composes the permutation with the transposition (a i). That splits the
    cycle through a and i if both lie on it (+1 cycle) and merges their two
    cycles otherwise (-1), so a walk from perm[a] until it meets a or i
    tells which.

    From the identity and after each swap at level L = min(n, 5) or above,
    Heap's algorithm makes the same L! - 1 swaps inside positions below L,
    listed once by `_heap_swaps`. A block walks them on the contracted map
    rho: rho[p] is the first position below L that following perm from p
    reaches. Positions from L up keep their values inside a block, so a and i
    lie on one cycle of perm exactly when they lie on one cycle of rho, and
    swapping positions a and i of perm swaps rho[a] and rho[i]. Each block
    builds rho in O(n), walks and swaps on its L entries, and applies the
    block's fixed net rearrangement to perm[:L] once at the end. Swaps at
    level L and above walk perm itself.
    """
    size = min(n, _BLOCK)
    swaps = _heap_swaps(size)
    # net[p]: the position whose value a block moves to p
    net = list(range(size))
    for a, i in swaps:
        net[a], net[i] = net[i], net[a]
    counts = [0] * (n + 1)
    counts[n] = 1
    perm = list(range(n))
    cycles = n
    c = [0] * n
    while True:
        rho = []
        for p in range(size):
            q = perm[p]
            while q >= size:
                q = perm[q]
            rho.append(q)
        for a, i in swaps:
            j = rho[a]
            while j != a and j != i:
                j = rho[j]
            cycles += 1 if j == i else -1
            rho[a], rho[i] = rho[i], rho[a]
            counts[cycles] += 1
        perm[:size] = [perm[p] for p in net]
        i = size
        while i < n and c[i] == i:
            c[i] = 0
            i += 1
        if i == n:
            return tuple(counts)
        k = c[i]
        a = k if i & 1 else 0
        j = perm[a]
        while j != a and j != i:
            j = perm[j]
        cycles += 1 if j == i else -1
        perm[a], perm[i] = perm[i], perm[a]
        counts[cycles] += 1
        c[i] = k + 1


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
