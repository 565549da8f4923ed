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
block's: each permutation in it is walked and counted on its own.

One run serves every smaller size: before Heap's algorithm first swaps at
level k it has visited exactly the k! permutations of the first k positions,
so the counts it holds then, shifted by the n - k fixed points, are the census
of k; and each node at depth k of the restricted-growth walk is one partition
of a k-set. A census is recorded from the visits of the run that passes it,
never derived from another census, and memoized so repeated point queries do
not re-enumerate.

Costs still grow factorially: the n = 10 run (3 628 800 permutations)
takes 0.5-0.9 s on a 2-vCPU Xeon VM under CPython 3.11, and the walk to
Bell(10) = 115 975 partitions about 0.03 s. Hence the budget rail.
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


@lru_cache(maxsize=None)
def _heap_swaps(size: int) -> tuple:
    """The size! - 1 swaps (a, i) Heap's algorithm makes on range(size), in
    order: c[i] counts the swaps made at level i. Cached, since every run
    with the same block replays the same list."""
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


# Finished censuses by size. One run of size N records the census of every
# size it passes on its way, so a request for N first serves each smaller one.
_PERMUTATION_CENSUSES = {}
_PARTITION_CENSUSES = {}


def _permutation_cycle_census(n: int) -> tuple:
    """counts[m] = permutations of range(n) with exactly m cycles.

    A run of size n records sizes min(n, 5)..n; a size below the block of 5
    positions meets its k! boundary inside a block, so it gets a run of its
    own (33 permutations for sizes 1..4 together).
    """
    if n not in _PERMUTATION_CENSUSES:
        _run_permutations(n)
    return _PERMUTATION_CENSUSES[n]


def _set_partition_census(n: int) -> tuple:
    """counts[m] = partitions of an n-set with exactly m blocks."""
    if n not in _PARTITION_CENSUSES:
        _walk_partitions(n)
    return _PARTITION_CENSUSES[n]


def _run_permutations(n: int) -> None:
    """Enumerate all n! permutations of range(n) once, recording the cycle
    census of range(k) for every k from min(n, 5) to n.

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

    Before its first swap at level k, the run has visited exactly the k!
    permutations of positions 0..k-1, each with positions k..n-1 fixed: a
    permutation of range(k) plus n - k fixed points. So when a block end
    first reaches level k, the counts shifted down by n - k are the census
    of k, read off this run's own visits.
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
    # the lowest level no block end has reached yet
    fresh = size
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
        if i == fresh:
            _PERMUTATION_CENSUSES[i] = tuple(counts[n - i:])
            if i == n:
                return
            fresh += 1
        k = c[i]
        a = k if i & 1 else 0
        j = perm[a]
        while j != a and j != i:
            j = perm[j]
        cycles += 1 if j == i else -1
        perm[a], perm[i] = perm[i], perm[a]
        counts[cycles] += 1
        c[i] = k + 1


def _walk_partitions(n: int) -> None:
    """Enumerate the restricted growth strings of length n once, recording
    the block census of every size from 1 to n.

    Position i may reuse any of the block labels seen so far or open the
    next one, so every node of the recursion at depth k is one distinct
    partition of a k-set, with no duplicates to filter; each node is counted
    at its own depth.
    """
    # counts[k * stride + m]: partitions of a k-set with m blocks, so a
    # child node sits one stride on, and one more if it opens a block
    stride = n + 1
    leaves = n * stride
    counts = [0] * (leaves + stride)

    def extend(at, used):
        counts[at] += 1
        if at >= leaves:
            return
        at += stride
        for _reused_label in range(used):
            extend(at, used)
        extend(at + 1, used + 1)

    extend(0, 0)
    for k in range(1, n + 1):
        _PARTITION_CENSUSES[k] = tuple(counts[k * stride:k * stride + k + 1])
