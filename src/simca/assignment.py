"""Exact capacity-constrained linear assignment.

Each item j absorbs at most caps[j] users; the solver maximizes the total
score of a hard user->item matching. This is a transportation problem with
n unit-supply users and m items, solved as a min-cost flow over the items:
every user starts on its best item, and successive shortest paths with m
item prices move the excess of over-full items to items with free capacity.

When the row argmax leaves exactly one item over capacity and every other
item strictly below it, each shortest path is a single move out of that
item, so one sort of its users replaces those rounds until a destination
fills; the rounds drain what excess is left. Memory is O(n*m) and time
O(n*m + n*log n) in that regime, and O(n*m*log n + excess*m^2*log n)
beyond it, where the excess is the number of users the row argmax puts over
capacity. Ties are broken deterministically; on fully tied inputs the result
is the lexicographically smallest assignment vector, as for the brute-force
oracle.

``solve_lap`` is the checked entry: it checks the scores and capacities,
calls the kernel and scores its matching. ``round_coupling`` is the kernel,
which training and evaluation call on every plan they round; it checks
nothing and requires a finite float64 (n, m) matrix and an int64 vector of
m nonnegative capacities that hold the n users. NaN scores would keep its
excess drain from ending.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .model import as_matrix, check_capacities

# enumeration guard for the brute-force oracle
MAX_BRUTE_FORCE_MATCHINGS = 10**7


@dataclass(frozen=True)
class LapSolution:
    """Optimal hard matching and its total score."""

    matching: np.ndarray
    objective: float


def solve_lap(scores, caps) -> LapSolution:
    """Maximize sum_i scores[i, sigma(i)] over matchings with per-item counts <= caps.

    When total capacity equals the number of users every capacity is used
    exactly; otherwise the surplus capacity stays empty. Optimality is exact.
    This is the checked entry: the scores must be a finite 2-D matrix and
    ``caps`` pass ``check_capacities``; the matching comes from
    ``round_coupling``, which checks nothing.
    """
    M = as_matrix(scores, "scores")
    caps = check_capacities(caps, *M.shape)
    assign = round_coupling(M, caps)
    return LapSolution(matching=assign, objective=float(M[np.arange(len(M)), assign].sum()))


def round_coupling(coupling, caps) -> np.ndarray:
    """Optimal hard matching of a transport plan's entries: the LAP kernel.

    Trusts its inputs, neither checks nor scores them and builds no
    ``LapSolution``: ``coupling`` must be a finite float64 (n, m) array and
    ``caps`` an int64 vector of m nonnegative capacities that hold the n
    users, as ``check_capacities`` returns it. NaN entries would keep the
    excess drain from ending. The callers guarantee this: ``solve_lap``
    checks both; ``evaluate`` passes its plan through ``as_matrix``; a
    training epoch rounds only after its loss came out finite, which needs a
    finite plan, and its capacities come from a checked ``Dataset``.
    """
    assign = np.argmax(coupling, axis=1)
    counts = np.bincount(assign, minlength=len(caps))
    if np.any(counts > caps):
        prices = _sort_single_excess(coupling, caps, assign, counts)
        if np.any(counts > caps):
            assign = _drain_excess(coupling, caps.tolist(), assign, counts.tolist(), prices)
    return assign


def _sort_single_excess(M, caps, assign, counts) -> list:
    """The rounds of ``_drain_excess`` while one item j alone is over
    capacity and every other item is strictly below it, as one sort.

    Each such round settles j, then the lowest-index item k with the
    smallest key M[u, j] - M[u, k] over the users u on j; it moves the top
    of heap (j, k) to k and raises only j's price, by that key minus the
    price. So the users leave j in lexicographic order of their cheapest key,
    their first cheapest destination and the heap tie rule, and the phase
    ends when the excess is gone or after the move that fills a destination.
    The sort compares the keys themselves; the rounds compare them less j's
    price, where two keys near 2**53 can round to one value, so there the
    sort keeps the exact order and the rounds may not.
    Moves users in ``assign`` and ``counts`` in place and returns the item
    prices the rounds would hold, all zero outside the regime.
    """
    m = len(caps)
    prices = [0.0] * m
    over = np.flatnonzero(counts > caps)
    if len(over) != 1 or np.count_nonzero(counts < caps) != m - 1:
        return prices
    j = int(over[0])
    users = np.flatnonzero(assign == j)
    others = np.flatnonzero(np.arange(m) != j)
    keys = M[users, j][:, None] - M[users][:, others]
    best = np.argmin(keys, axis=1)
    cost = keys[np.arange(len(users)), best]
    dest = others[best]
    ties = np.where(dest > j, -users, users)
    order = np.lexsort((ties, dest, cost))[: counts[j] - caps[j]]
    dest = dest[order]
    seen = np.cumsum(dest[:, None] == np.arange(m), axis=0)[np.arange(len(dest)), dest]
    filled = np.flatnonzero(seen == (caps - counts)[dest])
    moves = filled[0] + 1 if len(filled) else len(dest)
    assign[users[order[:moves]]] = dest[:moves]
    counts[:] = np.bincount(assign, minlength=m)
    price = 0.0
    for c in cost[order[:moves]].tolist():
        price += c - price  # the rounds' own arithmetic, so the prices carry on exactly
    prices[j] = price
    return prices


def _drain_excess(M, caps, assign, counts, prices) -> np.ndarray:
    """Successive shortest paths over the items, from the row-argmax start
    or from where ``_sort_single_excess`` stopped, with its prices.

    Every user sits on an item maximizing M[u, j] - prices[j]. Moving user u
    from j to k then has nonnegative reduced cost
    (M[u, j] - M[u, k]) - prices[j] + prices[k], and heap (j, k) keeps the
    users of j ordered by the price-free part. Each round runs Dijkstra from
    all over-full items at once, moves one user along every edge of the path
    to the nearest item with free capacity, and raises the prices of the
    items settled before it. Items with free capacity keep price 0, so
    complementary slackness holds and the final matching is optimal.

    Ties keep the lexicographic rule of the brute-force oracle on fully tied
    scores: a heap moves its highest user up to a larger item and its lowest
    user down to a smaller one, Dijkstra settles the lowest item first, and
    an equal-length path through a later-settled item wins, so excess
    cascades through consecutive items.

    An item's heaps are built when a round first reads one of them, from
    the users the item holds then; a user arriving on an item is pushed only
    into heaps already built. A round reads only the heaps of the items it
    settles before its target, so items that only receive users never sort.

    While one item alone is over capacity and every other item strictly
    below it, the rounds are one sort, which ``_sort_single_excess`` runs
    first in O(n*m + n*log n). Each round left costs O(m^2 * log n).
    """
    m = len(caps)
    where = assign.tolist()
    heaps = [None] * m

    def cheapest(j, k):
        if heaps[j] is None:  # j's heaps, built on the first read from the users j holds then
            users = np.flatnonzero(assign == j)
            keys = M[users, j][:, None] - M[users]
            ties = np.where(np.arange(m) > j, -users[:, None], users[:, None])
            order = np.lexsort((ties, keys), axis=0)
            # a sorted list is already a heap
            heaps[j] = [[] if i == j else list(zip(keys[o, i].tolist(), ties[o, i].tolist(),
                                                   users[o].tolist())) for i, o in enumerate(order.T)]
        heap = heaps[j][k]
        while where[heap[0][2]] != j:
            heapq.heappop(heap)  # stale: the user has moved on
        return heap[0][0]

    while True:
        dist = [0.0 if counts[j] > caps[j] else math.inf for j in range(m)]
        if min(dist) > 0.0:
            break  # no item over capacity
        pred = [-1] * m
        unsettled = list(range(m))
        settled = []
        while True:
            j = min(unsettled, key=dist.__getitem__)
            unsettled.remove(j)
            settled.append(j)
            if counts[j] < caps[j]:
                break
            if counts[j] == 0:
                continue  # a zero-capacity item has no users to pass on
            for k in unsettled:
                if counts[k] > caps[k]:
                    continue
                d = dist[j] + cheapest(j, k) - prices[j] + prices[k]
                if d <= dist[k]:
                    dist[k] = d
                    pred[k] = j
        target = j
        for k in settled:
            prices[k] += dist[target] - dist[k]
        moves = []
        k = target
        while pred[k] >= 0:
            j = pred[k]
            moves.append((heapq.heappop(heaps[j][k])[2], k))
            k = j
        counts[k] -= 1
        counts[target] += 1
        for u, dest in moves:
            where[u] = assign[u] = dest
            if heaps[dest] is None:
                continue  # built from dest's users when first read
            row = M[u].tolist()
            for k in range(m):
                if k != dest:
                    heapq.heappush(heaps[dest][k], (row[dest] - row[k], -u if k > dest else u, u))
    return assign


def count_feasible_matchings(n: int, caps) -> int:
    """Number of assignment vectors of n users respecting the capacities."""
    caps = np.asarray(caps, dtype=np.int64)
    # ways[t] = matchings of t users onto items processed so far
    ways = [0] * (n + 1)
    ways[0] = 1
    for c in caps:
        nxt = [0] * (n + 1)
        for t in range(n + 1):
            if ways[t] == 0:
                continue
            for k in range(0, min(int(c), n - t) + 1):
                nxt[t + k] += ways[t] * math.comb(n - t, k)
        ways = nxt
    return ways[n]


def brute_force_lap(scores, caps) -> LapSolution:
    """Exhaustive-enumeration optimum; ties go to the lexicographically
    smallest assignment vector. Guarded against instances with more than
    ``MAX_BRUTE_FORCE_MATCHINGS`` feasible matchings."""
    M = as_matrix(scores, "scores")
    caps = check_capacities(caps, *M.shape)
    n, m = M.shape
    total = count_feasible_matchings(n, caps)
    if total > MAX_BRUTE_FORCE_MATCHINGS:
        raise ValueError(
            f"instance too large for brute force: {total} feasible matchings"
        )

    best_obj = -math.inf
    best = None
    assign = np.zeros(n, dtype=np.int64)
    remaining = caps.copy()

    def recurse(i: int, acc: float):
        nonlocal best_obj, best
        if i == n:
            # strict improvement keeps the first (lexicographically smallest) optimum
            if acc > best_obj:
                best_obj = acc
                best = assign.copy()
            return
        for j in range(m):
            if remaining[j] == 0:
                continue
            assign[i] = j
            remaining[j] -= 1
            recurse(i + 1, acc + M[i, j])
            remaining[j] += 1

    recurse(0, 0.0)
    assert best is not None
    return LapSolution(matching=best, objective=float(best_obj))
