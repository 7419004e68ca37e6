"""Exact capacity-constrained linear assignment.

Each item j absorbs at most caps[j] users; the solver maximizes the total
score of a hard user->item matching. This is a transportation problem with
n unit-supply users and m items, solved as a min-cost flow over the items:
every user starts on its best item, and successive shortest paths with m
item prices move the excess of over-full items to items with free capacity.

While every item is either over capacity or strictly below it, however
many items are over, each shortest path is a single move out of an
over-full item, so one sort of their users replaces those rounds until an
over-full item reaches its capacity, a destination fills or two users share
a key; the rounds drain what excess is left and alone break ties. Memory is
O(n*m) and time O(n*m + n*log n) in that regime, and
O(n*m*log n + excess*m^2*log n) beyond it, where the excess is the number
of users the row argmax puts over capacity. Ties are broken
deterministically; on fully tied inputs the result is the lexicographically
smallest assignment vector, as for the brute-force oracle.

``solve_lap`` is the checked entry: it checks the scores and capacities,
calls the kernel and scores its matching. ``round_coupling`` is the kernel,
which training and evaluation call on every plan they round; it checks
nothing and requires a finite float64 (n, m) matrix and an int64 vector of
m nonnegative capacities that hold the n users. NaN scores would keep its
excess drain from ending. ``sorted_prices`` takes the same inputs and runs
only the row argmax and the sort: the item prices of the exact assignment
when the sort settles every excess, from which ``evaluate`` starts its
transport solve at small epsilon.
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
    checks both; ``evaluate`` and a training epoch round the plan of a
    transport solve, which the instance's range guard leaves finite, with
    the capacities of a checked ``Dataset``. The row argmax and the sorted
    phase run in ``_sorted_phase``, which ``sorted_prices`` shares; the
    rounds of ``_drain_excess`` move what excess that phase leaves.
    """
    assign, counts, prices = _sorted_phase(coupling, caps)
    if np.any(counts > caps):
        assign = _drain_excess(coupling, caps.tolist(), assign, counts.tolist(), prices)
    return assign


def sorted_prices(M, caps) -> np.ndarray | None:
    """Item prices of the exact assignment of ``M``'s rows when the sorted
    phase alone settles the row argmax, else None.

    Takes the inputs ``round_coupling`` takes and never runs the rounds of
    ``_drain_excess``: O(n*m + n*log n). When the row argmax fits the
    capacities every price is zero. Otherwise the phase settles only by
    emptying the excess of its one source s, every other item keeping price
    0. Then every price of s from the last key the sort moved up to the
    least key of the users s keeps is a dual optimum: each user sits on an
    item maximizing M[u, j] - prices[j], and only the full item s has a
    positive price. This one lies midway, up to rounding: there
    ``epsilon * -log_b[s]`` of the entropic plan tends as epsilon -> 0 when
    one moved and one kept user share the margin, each leaking as much mass
    across it as the other. ``evaluate`` starts its transport solve from it
    at small epsilon; from the moved key itself, which leaves that user
    split in half, small instances took more Newton steps than from zero.
    """
    assign, counts, prices = _sorted_phase(M, caps)
    if np.any(counts > caps):
        return None
    s = np.argmax(prices)
    kept = M[assign == s]
    if prices[s] > 0 and len(kept):  # a source of capacity 0 keeps no one: no upper end
        prices[s] = (prices[s] + np.min(kept[:, s] - np.delete(kept, s, axis=1).max(axis=1))) / 2
    return np.array(prices)


def _sorted_phase(M, caps) -> tuple[np.ndarray, np.ndarray, list]:
    """The row argmax, its item counts and its item prices after
    ``_sort_excess`` moved what excess it can; zero prices when the argmax
    fits the capacities."""
    assign = np.argmax(M, axis=1)
    counts = np.bincount(assign, minlength=len(caps))
    prices = _sort_excess(M, caps, assign, counts) if np.any(counts > caps) else [0.0] * len(caps)
    return assign, counts, prices


def _sort_excess(M, caps, assign, counts) -> list:
    """The rounds of ``_drain_excess`` while every item is either over
    capacity (a source) or strictly below it, as one sort.

    Each such round settles every source at distance 0, so all sources share
    one price, which rises by the round's distance, and every shortest path
    is one move from a source s to an item k with room, at the key
    M[u, s] - M[u, k] less that price. So each user u on a source leaves by
    its cheapest key c_u, to its lowest-index cheapest item, and while the
    keys are distinct and above the price each round has one choice: the
    least key left, which raises the price to it. The sort moves the users in
    that order, up to the first key two users share, and stops after the
    move that empties a source's excess or fills an item with room, or before
    a key at or below the price (p + (c - p) can land above c): ties, and
    keys at the price, where an item with room settles among the sources, are
    the rounds'. The sort compares the keys themselves; the rounds compare
    them less the price, where two keys near 2**53 can round to one value, so
    there the sort keeps the exact order and the rounds may not.
    Moves users in ``assign`` and ``counts`` in place and returns the item
    prices the rounds would hold, all zero outside the regime.
    """
    m = len(caps)
    gap = counts - caps
    if not gap.all():
        return [0.0] * m
    over = gap > 0
    room = np.flatnonzero(~over)
    users = np.flatnonzero(over[assign])
    home = assign[users]
    rows = M[users]
    line = np.arange(len(users))
    keys = rows[line, home][:, None] - rows[:, room]
    best = np.argmin(keys, axis=1)
    cost = keys[line, best]
    dest = room[best]
    order = np.argsort(cost, kind="stable")
    shared = np.flatnonzero(np.diff(cost[order]) == 0)  # the rounds break ties: stop before them
    order = order[: min(gap[over].sum(), shared[0] if len(shared) else len(order))]
    left = np.abs(gap).tolist()  # excess of each source, room of each destination
    price = 0.0
    moves = 0
    for c, j, k in zip(cost[order].tolist(), home[order].tolist(), dest[order].tolist()):
        if c <= price:
            break  # at the price, the destination would settle among the sources
        price += c - price  # the rounds' own arithmetic, so the prices carry on exactly
        moves += 1
        left[j] -= 1
        left[k] -= 1
        if not (left[j] and left[k]):
            break
    assign[users[order[:moves]]] = dest[order[:moves]]
    counts[:] = np.bincount(assign, minlength=m)
    return np.where(over, price, 0.0).tolist()


def _drain_excess(M, caps, assign, counts, prices) -> np.ndarray:
    """Successive shortest paths over the items, from the row-argmax start
    or from where ``_sort_excess`` stopped, with its prices.

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

    While every item is either over capacity or strictly below it, however
    many are over, the rounds up to the first shared key are one sort, which
    ``_sort_excess`` runs first in O(n*m + n*log n); its tie order is this
    function's. Each round left costs O(m^2 * log n).
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
