"""Exact capacity-constrained linear assignment.

Each item j absorbs at most caps[j] users; the solver maximizes the total
score of a hard user->item matching. This is a transportation problem with
n unit-supply users and m items, solved as a min-cost flow over the items:
every user starts on its best item, and successive shortest paths with m
item prices move the excess of over-full items to items with free capacity.

The excess of the row argmax goes first to a clearing phase, which treats
the users of one item as "similar persons" (Bertsekas & Castanon 1989):
each step raises the price of the most over-full item until only its
capacity keeps it and moves every user below that price to its best other
item, in one numpy pass over the item's users. The rounds finish exactly
from its state. Its result stands only when a check shows it to be the
unique optimum: every cycle of moves between the items, and every path of
moves into an item with room, loses more than rounding, by Floyd-Warshall
over the m x m array of each item pair's cheapest move. Then the rounds
from the row argmax at zero prices would return the same bytes; on ties,
degenerate optima or keys near 2**53 the check fails and those rounds run
instead. So the rounds alone break ties: on fully tied inputs the result
is the lexicographically smallest assignment vector, as for the
brute-force oracle. The clearing takes O(n*m) per step for at most 8*m
steps and the check O(n*m + m^3); each round takes O(m^2 * log n), after
heaps of O(n*m*log n).

While every item is either over capacity or strictly below it, the
over-full items at one price and the others at 0, however many items are
over, each shortest path is a single move out of an over-full item. Such a
round compares the moves by their keys M[u, j] - M[u, k] themselves: near
2**53, two keys less a price can round to one float.

``solve_lap`` is the checked entry: it checks the scores and capacities,
calls the kernel and scores its matching. ``round_coupling`` is the kernel,
which training and evaluation call on every plan they round; it checks
nothing and requires a finite float64 (n, m) matrix and an int64 vector of
m nonnegative capacities that hold the n users. NaN scores would keep its
excess drain from ending. ``sorted_prices`` takes the same inputs and runs
only the row argmax and one clearing step on its most over-full item: the
item prices of the exact assignment when that step settles every excess,
from which ``evaluate`` starts its transport solve at small epsilon.
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
    the capacities of a checked ``Dataset``.

    Each phase keeps every user on an item maximizing M[u, j] - prices[j]
    and a positive price only on an item at or over capacity. When the row
    argmax leaves excess, ``_clear_excess`` raises the prices of over-full
    items in bulk from zero, and the rounds of ``_drain_excess`` move what
    excess it leaves, from its prices. ``_certify`` then checks, from the
    matching alone, that no cycle or path of moves between the items loses
    at most rounding, which makes the matching the unique optimum. When the
    check fails, or the clearing settles nothing, the rounds run from the
    row argmax at zero prices instead. A clearing step costs O(n*m) for at
    most 8*m steps, the check O(n*m + m^3) and each round O(m^2 * log n).
    """
    assign = coupling.argmax(axis=1)
    counts = np.bincount(assign, minlength=len(caps))
    if not (counts > caps).any():
        return assign
    scores = np.ascontiguousarray(coupling.T)  # items-major: one row per item
    cleared = _clear_excess(scores, caps, assign, counts)
    if cleared is not None:
        matching, left, prices = cleared
        if np.any(left > caps):
            matching = _drain_excess(coupling, caps.tolist(), matching, left.tolist(), prices)
        if _certify(scores, caps, matching):
            return matching
    return _drain_excess(coupling, caps.tolist(), assign, counts.tolist(), [0.0] * len(caps))


def sorted_prices(M, caps) -> np.ndarray | None:
    """Item prices of the exact assignment of ``M``'s rows when one
    ``_clear_step`` on the row argmax's most over-full item settles every
    excess, else None.

    Takes the inputs ``round_coupling`` takes and runs no round: O(n*m).
    When the row argmax fits the capacities every price is zero. Otherwise
    the step settles only when s is the one item over capacity and the users
    it moves fit in the room of the others, every other item keeping price
    0. Then every price of s from the largest
    margin M[u, s] - max_{k != s} M[u, k] of the users who leave s up to
    the least margin of those it keeps is a dual optimum: each user sits on
    an item maximizing M[u, j] - prices[j], and only the full item s has a
    positive price. The step prices s midway between the two, the margins'
    order statistics at s's capacity: there ``epsilon * -log_b[s]`` of the
    entropic plan tends as epsilon -> 0 when one moved and one kept user
    share the margin, each leaking as much mass across it as the other.
    When s has no capacity, or the two ends are one float or adjacent
    floats, the step moves no one and the result is None. ``evaluate``
    starts its transport solve from these prices at small epsilon; from the
    largest moved margin itself, which leaves that user split in half,
    small instances took more Newton steps than from zero.
    """
    assign = M.argmax(axis=1)
    counts = np.bincount(assign, minlength=len(caps))
    prices = np.zeros(len(caps))
    s = np.argmax(counts - caps)
    if counts[s] > caps[s]:
        _clear_step(np.ascontiguousarray(M.T), caps, assign, counts, prices, s)
    return None if (counts > caps).any() else prices


def _clear_excess(scores, caps, assign, counts) -> tuple[np.ndarray, np.ndarray, list] | None:
    """Copies of ``assign`` and ``counts``, and the item prices, after
    ``_clear_step``s on the most over-full item from zero prices, or None
    when they settle no excess.

    It stops at a tie, after 8*m steps, or after m steps in a row that settle
    no excess: their users only pass between full items, as when two items
    trade the same users back and forth. ``scores`` is the (m, n) transpose
    of M.
    """
    m = len(caps)
    assign, counts, prices = assign.copy(), counts.copy(), np.zeros(m)
    start = excess = np.maximum(counts - caps, 0).sum()
    steps = idle = 0
    while excess and steps < 8 * m and idle < m:
        if not _clear_step(scores, caps, assign, counts, prices, np.argmax(counts - caps)):
            break
        left = np.maximum(counts - caps, 0).sum()
        idle = idle + 1 if left == excess else 0
        excess = left
        steps += 1
    return (assign, counts, prices.tolist()) if excess < start else None


def _clear_step(scores, caps, assign, counts, prices, j) -> bool:
    """Raise the price of item j, over capacity, until only caps[j] of its
    users keep it: one numpy pass over j's users.

    A user u of j keeps j while j's price stays below its margin
    M[u, j] - max_{k != j} (M[u, k] - prices[k]), so the new price lies
    midway between the largest margin of the users who leave and the least
    margin of those who keep j; every user below it moves to its best other
    item, the lowest-index one on ties.
    Every user then still sits on an item maximizing M - prices; j is
    exactly full and the other items only gain users, so a positive price
    still sits only on an item at or over capacity. ``scores`` is the (m, n)
    transpose of M, whose rows gather j's users fast. Moves users in
    ``assign`` and ``counts`` and raises ``prices[j]`` in place; returns
    False, changing nothing, when the two bounds are one float or j has no
    capacity to price against.
    """
    if caps[j] == 0:
        return False
    users = np.flatnonzero(assign == j)
    value = scores.take(users, axis=1)
    margin = value[j].copy()
    value -= prices[:, None]
    value[j] = -np.inf
    margin -= value.max(axis=0)
    leave = len(users) - caps[j]
    part = np.partition(margin, (leave - 1, leave))
    low, high = part[leave - 1], part[leave]
    price = low / 2 + high / 2
    if not low < price < high:
        return False  # a tie at the boundary: the rounds break it
    out = margin < price
    best = value[:, out].argmax(axis=0)
    assign[users[out]] = best
    counts += np.bincount(best, minlength=len(caps))
    counts[j] = caps[j]
    prices[j] = price
    return True


def _certify(scores, caps, assign) -> bool:
    """Whether ``assign`` is the unique optimum: every cycle of moves, and
    every path of moves into an item with room, loses more than rounding.

    A move takes one user u from its item i to item k and loses
    M[u, i] - M[u, k]; cheapest[i, k] is the least such loss over the users
    on i, +inf when i holds no one or k == i. Every other feasible matching
    differs from ``assign`` by simple cycles of moves, which keep the
    counts, and simple paths that end on an item with room, each with at
    most one user per item; the matching is the unique optimum exactly when
    each of them loses (Ahuja, Magnanti & Orlin 1993, ch. 9). Floyd-Warshall
    turns cheapest into the least loss of every path, its diagonal into the
    least loss of every cycle. A path of up to m moves sums m rounded
    subtractions, each off by at most 2**-53 of a result below 2*max|M|,
    with up to m - 1 rounded additions, each off by at most 2**-53 of a
    partial sum below 2*m*max|M|: m**2 * 2**-52 * max|M| in all. So a loss
    up to the floor m**2 * 2**-50 * max|M| may be a tie and fails the
    check, as does a negative one. ``scores`` is the (m, n) transpose of M.
    O(n*m + m**3).
    """
    m, n = scores.shape
    counts = np.bincount(assign, minlength=m)
    held = np.flatnonzero(counts)
    loss = scores.ravel().take(assign * n + np.arange(n)) - scores  # loss[k, u]: u's move to k
    # each item's users side by side: a radix sort on the smallest key type
    grouped = loss.take(np.argsort(assign.astype(np.min_scalar_type(m)), kind="stable"), axis=1)
    cheapest = np.full((m, m), np.inf)
    cheapest[held] = np.minimum.reduceat(grouped, (np.cumsum(counts) - counts)[held], axis=1).T
    np.fill_diagonal(cheapest, np.inf)
    for k in range(m):
        np.minimum(cheapest, cheapest[:, k, None] + cheapest[k], out=cheapest)
    floor = m * m * 2.0**-50 * np.abs(scores).max()
    return bool(cheapest.diagonal().min() > floor and (cheapest[:, counts < caps] > floor).all())


def _drain_excess(M, caps, assign, counts, prices) -> np.ndarray:
    """Successive shortest paths over the items, from the row argmax at
    zero prices or from where ``_clear_excess`` stopped, with its prices.

    Every user sits on an item maximizing M[u, j] - prices[j]. Moving user u
    from j to k then has nonnegative reduced cost
    (M[u, j] - M[u, k]) - prices[j] + prices[k], and heap (j, k) keeps the
    users of j ordered by the price-free part, the key. Each round runs
    Dijkstra from all over-full items at once, moves one user along every
    edge of the path to the nearest item with free capacity, and raises the
    prices of the items settled before it. Items with free capacity keep
    price 0, so complementary slackness holds and the final matching is
    optimal.

    A round that starts with every item over capacity or strictly below it,
    every over-full item at one price P and every other item at 0, is keyed:
    its every path is one move out of an over-full item, at the reduced cost
    key - P. It starts the over-full items at distance P and a move at its
    key, so it compares the keys themselves: near 2**53 two keys less P can
    round to one float. Its order is otherwise that of the reduced costs,
    and the prices rise by the same float differences.

    Ties keep the lexicographic rule of the brute-force oracle on fully tied
    scores: a heap moves its highest user up to a larger item and its lowest
    user down to a smaller one, Dijkstra settles the lowest item first, and
    an equal-length path through a later-settled item wins, so excess
    cascades through consecutive items.

    An item's heaps are built when a round first reads one of them, from
    the users the item holds then; a user arriving on an item is pushed only
    into heaps already built. A round reads only the heaps of the items it
    settles before its target, so items that only receive users never sort.
    Each round costs O(m^2 * log n). Moves users in ``assign`` and raises
    ``prices`` in place.
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
        over = [c > k for c, k in zip(counts, caps)]
        if not any(over):
            break
        price = prices[over.index(True)]
        keyed = all(c != k and p == (price if o else 0.0)
                    for c, k, p, o in zip(counts, caps, prices, over))
        dist = [(price if keyed else 0.0) if o else math.inf for o in over]
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
                d = cheapest(j, k) if keyed else dist[j] + cheapest(j, k) - prices[j] + prices[k]
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
