import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import slot_expanded_lap
from simca.assignment import (
    _drain_excess,
    _sort_excess,
    brute_force_lap,
    count_feasible_matchings,
    round_coupling,
    solve_lap,
    sorted_prices,
)
from simca.datagen import GenConfig, generate_dataset
from simca.model import compute_affinity
from simca.sinkhorn import extend_with_slack, solve_ot


def test_single_item_takes_everyone():
    M = np.array([[3.0], [1.0], [-2.0]])
    sol = solve_lap(M, np.array([3]))
    assert np.array_equal(sol.matching, [0, 0, 0])
    assert sol.objective == pytest.approx(2.0)


def test_two_by_two_enumerated():
    M = np.array([[10.0, 0.0], [9.0, 8.0]])
    sol = solve_lap(M, np.array([1, 1]))
    # (0->0, 1->1) gives 18, beating (0->1, 1->0) = 9
    assert np.array_equal(sol.matching, [0, 1])
    assert sol.objective == pytest.approx(18.0)


def test_matches_brute_force_on_six_users():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 3))
    caps = np.array([2, 2, 2])
    assert count_feasible_matchings(6, caps) == 90
    fast = solve_lap(M, caps)
    slow = brute_force_lap(M, caps)
    assert fast.objective == pytest.approx(slow.objective, abs=1e-12)


def test_infeasible_capacity_raises():
    with pytest.raises(ValueError, match="infeasible"):
        solve_lap(np.zeros((3, 2)), np.array([1, 1]))


def test_capacities_whose_total_passes_2_to_the_63_match_brute_force():
    scores = [[1, 0], [0, 1], [1, 1]]
    caps = [2**62, 2**62]
    fast, slow = solve_lap(scores, caps), brute_force_lap(scores, caps)
    assert np.array_equal(fast.matching, slow.matching)
    assert fast.objective == slow.objective


def test_nonfinite_scores_rejected():
    M = np.zeros((2, 2))
    M[0, 0] = np.inf
    with pytest.raises(ValueError):
        solve_lap(M, np.array([1, 1]))


def test_brute_force_trivial_cases():
    sol = brute_force_lap(np.array([[3.0, 5.0]]), np.array([1, 1]))
    assert np.array_equal(sol.matching, [1])
    assert sol.objective == pytest.approx(5.0)

    sol = brute_force_lap(np.array([[1.0], [2.0]]), np.array([2]))
    assert np.array_equal(sol.matching, [0, 0])


def test_brute_force_tie_break_is_lexicographic():
    M = np.full((4, 2), 0.5)
    sol = brute_force_lap(M, np.array([2, 2]))
    assert np.array_equal(sol.matching, [0, 0, 1, 1])
    assert sol.objective == pytest.approx(4 * 0.5)


def test_brute_force_guard():
    with pytest.raises(ValueError, match="too large"):
        brute_force_lap(np.zeros((30, 3)), np.array([10, 10, 10]))


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        caps = rng.integers(1, 4, size=m)
        while caps.sum() < n:
            caps[rng.integers(0, m)] += 1
        if trial % 2 == 0:
            caps[int(rng.integers(0, m))] += int(rng.integers(1, 3))  # slack
        M = rng.normal(size=(n, m))
        fast = solve_lap(M, caps)
        slow = brute_force_lap(M, caps)
        assert fast.objective == pytest.approx(slow.objective, abs=1e-12)
        counts = np.bincount(fast.matching, minlength=m)
        assert np.all(counts <= caps)
        if caps.sum() == n:
            assert np.array_equal(counts, caps)


def test_objective_matches_recomputed_sum():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(10, 3))
    caps = np.array([4, 4, 4])
    sol = solve_lap(M, caps)
    assert sol.objective == pytest.approx(M[np.arange(10), sol.matching].sum(), abs=1e-9)


def test_row_shift_invariance():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(6, 3))
    caps = np.array([2, 2, 2])
    base = solve_lap(M, caps)
    shifted = M.copy()
    shifted[2] += 5.0
    sol = solve_lap(shifted, caps)
    assert sol.objective == pytest.approx(base.objective + 5.0, abs=1e-9)
    assert np.array_equal(sol.matching, base.matching)


def test_round_coupling_on_hard_limit():
    pi = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(round_coupling(pi, np.array([1, 1])), [1, 0])


def test_round_coupling_two_by_two():
    pi = np.array([[0.9, 0.1], [0.6, 0.4]])
    # 0.9 + 0.4 beats 0.1 + 0.6
    assert np.array_equal(round_coupling(pi, np.array([1, 1])), [0, 1])


def test_round_coupling_constant_ties_break_lexicographically():
    pi = np.full((4, 2), 0.5)
    assert np.array_equal(round_coupling(pi, np.array([2, 2])), [0, 0, 1, 1])


def test_small_epsilon_rounding_recovers_exact_optimum():
    # on instances with a clear margin, rounding the regularized coupling at
    # epsilon = 0.01 reproduces the exact assignment
    rng = np.random.default_rng(11)
    done = 0
    while done < 10:
        M = rng.normal(size=(10, 3))
        caps = np.array([4, 3, 3])
        best = brute_force_lap(M, caps)
        # margin check against every competing matching
        objs = []

        def enumerate_objs(i, acc, remaining):
            if i == 10:
                objs.append(acc)
                return
            for j in range(3):
                if remaining[j] > 0:
                    remaining[j] -= 1
                    enumerate_objs(i + 1, acc + M[i, j], remaining)
                    remaining[j] += 1

        enumerate_objs(0, 0.0, caps.copy())
        objs.sort()
        if objs[-1] - objs[-2] < 0.1:
            continue
        done += 1
        inst = extend_with_slack(M, caps, 0.01)
        result = solve_ot(inst, tol=1e-10)
        assert np.array_equal(
            round_coupling(result.user_coupling, caps), best.matching
        )


def _sinkhorn_coupling(ds, seed, epsilon=0.1, iterations=10):
    # the coupling an early training epoch rounds: random items, 10 iterations
    items = np.random.default_rng(seed).normal(size=ds.items_truth.shape)
    affinity = compute_affinity(ds.users, items, ds.distances, ds.alpha)
    inst = extend_with_slack(affinity, ds.capacities, epsilon)
    return solve_ot(inst, iterations=iterations).user_coupling


@pytest.mark.parametrize("n", [300, 1000])
def test_matches_slot_expanded_oracle_on_generated_data(n):
    ds = generate_dataset(GenConfig(n=n, seed=n))
    affinity = compute_affinity(ds.users, ds.items_truth, ds.distances, ds.alpha)
    expected = slot_expanded_lap(affinity, ds.capacities)
    assert solve_lap(affinity, ds.capacities).matching.tobytes() == expected.tobytes()
    assert ds.matching.tobytes() == expected.tobytes()
    for seed in range(3):
        pi = _sinkhorn_coupling(ds, seed)
        expected = slot_expanded_lap(pi, ds.capacities)
        assert round_coupling(pi, ds.capacities).tobytes() == expected.tobytes()
    # diffuse couplings put one item far over capacity: the sorted drain's regime
    for epsilon in (0.5, 1.0, 2.0):
        pi = _sinkhorn_coupling(ds, 0, epsilon)
        over = np.bincount(pi.argmax(axis=1), minlength=ds.n_items) - ds.capacities
        assert np.sum(over > 0) == 1 and over.max() >= 30 and np.sum(over < 0) == ds.n_items - 1
        expected = slot_expanded_lap(pi, ds.capacities)
        assert round_coupling(pi, ds.capacities).tobytes() == expected.tobytes()


def test_sorted_drain_stops_at_a_full_item_and_the_rounds_finish():
    # item 0 holds all four users and has room for one; the sort first moves
    # user 2 to item 1, which fills it, so the rounds place users 0 and 1
    M = np.array([[5.0, 4.0, 0.0], [5.0, 3.5, 4.0], [5.0, 4.5, 1.0], [6.0, 0.0, 0.0]])
    caps = np.array([1, 1, 3])
    assign = np.argmax(M, axis=1)
    counts = np.bincount(assign, minlength=3)
    prices = _sort_excess(M, caps, assign, counts)
    assert np.array_equal(assign, [0, 0, 1, 0]) and np.array_equal(counts, [3, 1, 0])
    assert prices == [0.5, 0.0, 0.0]
    expected = brute_force_lap(M, caps)
    sol = solve_lap(M, caps)
    assert np.array_equal(sol.matching, expected.matching)
    assert sol.objective == expected.objective


def test_sorted_drain_orders_keys_that_round_together_after_the_price():
    # after user 0 moves, j's price is 1; the keys 2**53 + 4 and 2**53 + 6 less
    # that price round to one value, but the sort still sends user 1 to item 2
    big = 2.0**53
    M = np.array([[1.0, 0.0, -1e17], [0.0, -(big + 6), -(big + 4)]])
    caps = np.array([0, 2, 2])
    sol = solve_lap(M, caps)
    assert np.array_equal(sol.matching, brute_force_lap(M, caps).matching)
    assert np.array_equal(sol.matching, [1, 2])


def test_rounds_pass_on_a_user_that_arrived_before_its_item_heaps_were_built():
    # item 3 holds no user and has no room, so it is neither over capacity nor
    # below it, the sort does not apply and the rounds start. Round 1 moves
    # user 0 from item 0 to item 1, its target, which fills it; round 2
    # settles item 1 for the first time and builds its heaps from the users it
    # holds then, so user 0 passes on along 0 -> 1 -> 2 while user 1 takes its
    # place.
    M = np.array([[5.0, 4.9, 4.85, -100.0],
                  [5.0, 4.8, 0.0, -100.0],
                  [5.0, 0.0, 0.0, -100.0]])
    caps = np.array([1, 1, 5, 0])
    assign = np.argmax(M, axis=1)
    counts = np.bincount(assign, minlength=4)
    assert _sort_excess(M, caps, assign, counts) == [0.0] * 4
    assert np.array_equal(counts, [3, 0, 0, 0])
    expected = brute_force_lap(M, caps)
    assert np.array_equal(expected.matching, [2, 1, 0])
    assert np.array_equal(slot_expanded_lap(M, caps), expected.matching)
    sol = solve_lap(M, caps)
    assert np.array_equal(sol.matching, expected.matching)
    assert sol.objective == expected.objective


@st.composite
def round_instances(draw):
    """Scores whose row argmax leaves the sort out: a last item with no room
    and no user, so the rounds drain every excess and build each heap late;
    continuous or integer-tied scores."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(2, 4))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if tied:
        M = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
    else:
        M = rng.normal(size=(n, m))
    M = np.column_stack([M, np.full(n, -100.0)])
    caps = np.append(rng.multinomial(n, np.full(m, 1.0 / m)), 0)
    caps[int(rng.integers(m))] += draw(st.integers(0, 2))  # slack
    return M, caps, tied


@settings(max_examples=200, deadline=None)
@given(round_instances())
def test_rounds_alone_match_brute_force_and_slot_expanded_oracle(instance):
    M, caps, tied = instance
    matching = solve_lap(M, caps).matching
    expected = brute_force_lap(M, caps)
    assert M[np.arange(len(M)), matching].sum() == pytest.approx(expected.objective, abs=1e-12)
    assert np.all(np.bincount(matching, minlength=len(caps)) <= caps)
    if not tied:  # the oracles break ties their own ways
        assert matching.tobytes() == expected.matching.tobytes()
        assert matching.tobytes() == slot_expanded_lap(M, caps).tobytes()


def test_rounds_order_keys_that_round_together_with_two_items_over():
    # the row argmax puts users 0 and 1 on item 0 and user 2 on item 1, which
    # have no room, while items 2 and 3 have room: the sort drains both
    # over-full items and compares the keys 2**53 + 4 and 2**53 + 6 exactly,
    # where the rounds would compare them less item 0's price of 1, as one
    # value, and send user 1 to item 2, an objective lower by exactly 2
    big = 2.0**53
    M = np.array([[1.0, -1e17, 0.0, -1e17],
                  [0.0, -1e17, -(big + 6), -(big + 4)],
                  [-1e17, 0.0, -3e16, -3e16]])
    caps = np.array([0, 0, 3, 3])
    expected = brute_force_lap(M, caps)
    assert np.array_equal(expected.matching, [2, 3, 2])
    assert np.array_equal(solve_lap(M, caps).matching, expected.matching)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3(b): the Dijkstra rounds compare "
                   "float reduced costs, so keys near 2**53 round together")
def test_rounds_order_keys_that_round_together_after_a_full_item():
    # item 3 holds user 2 and is full, so the sort does not apply and the rounds
    # drain item 0. Round 1 sends user 0 to item 1 and raises item 0's price to
    # 1; round 2 compares user 1's keys 2**53 + 6 and 2**53 + 4 less that
    # price, which round to one value, so user 1 goes to the lower item 1 at an
    # objective lower by exactly 2
    big = 2.0**53
    M = np.array([[1.0, 0.0, -1e17, -1e17],
                  [0.0, -(big + 6), -(big + 4), -1e17],
                  [-1e17, -1e17, -1e17, 0.0]])
    caps = np.array([0, 2, 2, 1])
    assign = np.argmax(M, axis=1)
    assert _sort_excess(M, caps, assign, np.bincount(assign, minlength=4)) == [0.0] * 4
    expected = brute_force_lap(M, caps)
    assert np.array_equal(expected.matching, [1, 2, 3])
    assert np.array_equal(solve_lap(M, caps).matching, expected.matching)


def test_sorted_drain_over_two_items_moves_equal_keys_in_settle_order():
    # items 0 and 3 are over capacity, items 1 and 2 have room, and every move
    # costs 1, so the sort stops before the shared key and the rounds move all
    # three users. Round 1 reaches item 1 from both sources at distance 1 and
    # takes the last one settled: user 0 leaves item 3. The price is 1 now, so
    # item 0 reaches item 1 at distance 0 and item 1 settles before item 3:
    # user 1 leaves item 0, which ends its excess. Two users from item 3 first
    # would be the wrong order.
    M = np.array([[0.0, 0.0, 0.0, 1.0], [2.0, 1.0, 1.0, 2.0], [0.0, 0.0, 0.0, 1.0]])
    caps = np.array([0, 2, 2, 0])
    assign = np.argmax(M, axis=1)
    counts = np.bincount(assign, minlength=4)
    assert np.array_equal(assign, [3, 0, 3])
    rounds = _drain_excess(M, caps.tolist(), assign.copy(), counts.tolist(), [0.0] * 4)
    assert _sort_excess(M, caps, assign, counts) == [0.0] * 4
    assert np.array_equal(assign, [3, 0, 3]) and np.array_equal(counts, [1, 0, 0, 2])
    sol = solve_lap(M, caps)
    assert np.array_equal(sol.matching, rounds) and np.array_equal(rounds, [1, 2, 1])
    assert sol.objective == brute_force_lap(M, caps).objective


def test_sorted_drain_over_two_items_moves_a_key_above_the_price_through_the_last_source():
    # items 2 and 3 are over capacity and both users on them cost 1 to move to
    # item 0, which has room for one, so the sort stops before the shared key.
    # Above the price, Dijkstra takes the last source that reached item 0, so
    # user 1 leaves item 3, although item 2 ranks first among the sources;
    # item 0 is full then, and the next round moves user 0.
    M = np.array([[1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 0.0, 1.0], [2.0, 1.0, 2.0, 0.0]])
    caps = np.array([2, 1, 0, 0])
    assign = np.argmax(M, axis=1)
    counts = np.bincount(assign, minlength=4)
    assert np.array_equal(assign, [2, 3, 0])
    rounds = _drain_excess(M, caps.tolist(), assign.copy(), counts.tolist(), [0.0] * 4)
    assert _sort_excess(M, caps, assign, counts) == [0.0] * 4
    assert np.array_equal(assign, [2, 3, 0]) and np.array_equal(counts, [1, 0, 1, 1])
    sol = solve_lap(M, caps)
    assert np.array_equal(sol.matching, rounds) and np.array_equal(rounds, [0, 1, 0])
    assert sol.objective == brute_force_lap(M, caps).objective


def test_sorted_drain_leaves_equal_keys_to_the_rounds_when_the_price_misses_them():
    # user 3 leaves item 3 first, at the key 0.4 - 0.1 = 0.30000000000000004,
    # which the sort moves alone. Users 0, 1 and 2 share the key 2.4, so the
    # sort stops before them. The rounds move user 0 at that key, which raises
    # the price to 0.30000000000000004 + (2.4 - 0.30000000000000004) =
    # 2.3999999999999995; they then see users 1 and 2 at a small distance
    # above 0, not at 0, and move user 2 from item 3 next.
    M = np.array([[0.0, 0.0, 0.0, 2.4], [4.8, 2.4, 2.4, 4.8],
                  [0.0, 0.0, 0.0, 2.4], [0.0, -9.0, 0.1, 0.4]])
    caps = np.array([0, 2, 2, 0])
    assign = np.argmax(M, axis=1)
    counts = np.bincount(assign, minlength=4)
    rounds = _drain_excess(M, caps.tolist(), assign.copy(), counts.tolist(), [0.0] * 4)
    price = 0.4 - 0.1
    assert _sort_excess(M, caps, assign, counts) == [price, 0.0, 0.0, price]
    assert np.array_equal(assign, [3, 0, 3, 2]) and np.array_equal(counts, [1, 0, 1, 2])
    assert price + (2.4 - price) < 2.4
    sol = solve_lap(M, caps)
    assert np.array_equal(sol.matching, rounds) and np.array_equal(rounds, [1, 1, 2, 2])
    assert sol.objective == brute_force_lap(M, caps).objective


def test_large_generated_instance_sorts_two_over_full_items():
    # the n=3000 generation: the row argmax puts items 1 and 2 over capacity
    # and leaves item 0 with room; the sort takes 829 of the rounds' moves
    ds = generate_dataset(GenConfig(n=3000, seed=7))
    affinity = compute_affinity(ds.users, ds.items_truth, ds.distances, ds.alpha)
    assign = np.argmax(affinity, axis=1)
    counts = np.bincount(assign, minlength=ds.n_items)
    assert np.array_equal(counts > ds.capacities, [False, True, True])
    rounds = _drain_excess(affinity, ds.capacities.tolist(), assign.copy(), counts.tolist(),
                           [0.0] * ds.n_items)
    start = assign.copy()
    _sort_excess(affinity, ds.capacities, assign, counts)
    assert np.count_nonzero(assign != start) == 829
    assert ds.matching.tobytes() == rounds.tobytes()
    assert solve_lap(affinity, ds.capacities).matching.tobytes() == rounds.tobytes()


@st.composite
def favoured_instances(draw, several=False):
    """Scores with one favoured item, or with two or more when ``several``,
    so the row argmax puts each of them over capacity while every other item
    keeps room; continuous or integer-tied scores, tight total capacity or
    slack."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(3, 6) if several else st.integers(2, 5))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    over = rng.choice(m, size=int(rng.integers(2, m)) if several else 1, replace=False)
    if tied:
        M = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
        M[:, over] += rng.integers(1, 3, size=len(over))
    else:
        M = rng.normal(size=(n, m))
        M[:, over] += rng.uniform(0.5, 3.0, size=len(over))
    counts = np.bincount(M.argmax(axis=1), minlength=m)
    assume(np.all(counts[over] > 0))
    caps = counts.copy()
    caps[over] -= rng.integers(1, counts[over] + 1)
    others = np.setdiff1d(np.arange(m), over)
    # one spot more on every other item, and the rest of the excess spread
    # over them; an excess below len(others) leaves slack
    spare = max(int(np.sum(counts[over] - caps[over])) - len(others), 0)
    caps[others] += 1 + rng.multinomial(spare, np.full(len(others), 1.0 / len(others)))
    if draw(st.booleans()):
        caps[rng.choice(others)] += int(rng.integers(1, 4))  # slack
    return M, caps, tied


def _sorted_drain_matches_the_rounds(M, caps, tied, several):
    m = len(caps)
    assign = np.argmax(M, axis=1)
    counts = np.bincount(assign, minlength=m)
    assert (np.sum(counts > caps) > 1) == several
    assert np.sum(counts > caps) + np.sum(counts < caps) == m
    # no user the sort moves shares its cheapest key with another user of an
    # over-full item: the rounds alone break ties
    over = counts > caps
    users = np.flatnonzero(over[assign])
    keys = (M[users, assign[users]][:, None] - M[users][:, ~over]).min(axis=1)
    moved = assign.copy()
    _sort_excess(M, caps, moved, counts.copy())
    for key in keys[moved[users] != assign[users]]:
        assert np.count_nonzero(keys == key) == 1
    rounds = _drain_excess(M, caps.tolist(), assign, counts.tolist(), [0.0] * m)
    matching = solve_lap(M, caps).matching
    assert matching.tobytes() == rounds.tobytes()
    if not tied:  # the oracle breaks ties its own way
        assert matching.tobytes() == slot_expanded_lap(M, caps).tobytes()


@settings(max_examples=300, deadline=None)
@given(favoured_instances())
def test_sorted_drain_matches_the_rounds_and_slot_expanded_oracle(instance):
    _sorted_drain_matches_the_rounds(*instance, several=False)


@settings(max_examples=300, deadline=None)
@given(favoured_instances(several=True))
def test_sorted_drain_over_several_items_matches_the_rounds_and_slot_expanded_oracle(instance):
    _sorted_drain_matches_the_rounds(*instance, several=True)


@st.composite
def random_instances(draw):
    """Random scores and capacities that hold the users, with or without
    slack: an argmax that fits, or one or more items over capacity."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    caps = rng.multinomial(n + draw(st.integers(0, 3)), np.full(m, 1.0 / m))
    return rng.normal(size=(n, m)), caps, False


@settings(max_examples=300, deadline=None)
@given(st.one_of(favoured_instances(), favoured_instances(several=True),
                 random_instances()))
def test_sorted_prices_are_none_or_a_dual_optimum_of_the_exact_matching(instance):
    # a price set is a dual optimum for every optimal matching: each user sits
    # on an item maximizing M - prices, up to the rounding of the price's
    # running sum, and a positive price sits only on a full item
    M, caps, _ = instance
    prices = sorted_prices(M, caps)
    if prices is None:
        return
    matching = solve_lap(M, caps).matching
    value = M - prices
    users = np.arange(len(M))
    assert np.all(value.max(axis=1) - value[users, matching] <= 1e-12 * (1 + np.abs(M).max()))
    assert np.all(prices >= 0)
    full = np.bincount(matching, minlength=len(caps)) == caps
    assert np.all(full[prices > 0])


@st.composite
def tied_instances(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 3))
    caps = np.array(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)))
    while caps.sum() < n:
        caps[draw(st.integers(0, m - 1))] += 1
    if draw(st.booleans()):
        caps[draw(st.integers(0, m - 1))] += draw(st.integers(1, 2))  # slack
    values = draw(st.lists(st.integers(-2, 2), min_size=n * m, max_size=n * m))
    return np.array(values, dtype=np.float64).reshape(n, m), caps


@settings(max_examples=300, deadline=None)
@given(tied_instances())
def test_integer_tied_scores_match_brute_force(instance):
    M, caps = instance
    n, m = M.shape
    fast = solve_lap(M, caps)
    slow = brute_force_lap(M, caps)
    assert fast.objective == slow.objective
    counts = np.bincount(fast.matching, minlength=m)
    assert np.all(counts <= caps)
    if caps.sum() == n:
        assert np.array_equal(counts, caps)


def test_fully_tied_unequal_caps_give_lexicographic_smallest():
    for caps in itertools.product(range(4), repeat=3):
        caps = np.array(caps)
        for n in range(1, int(caps.sum()) + 1):
            M = np.full((n, 3), 0.25)
            expected = brute_force_lap(M, caps).matching
            assert np.array_equal(solve_lap(M, caps).matching, expected), (caps, n)
    # the cascade through every item, spelled out
    assert np.array_equal(solve_lap(np.zeros((6, 3)), [1, 2, 3]).matching, [0, 1, 1, 2, 2, 2])
    assert np.array_equal(solve_lap(np.zeros((4, 3)), [3, 1, 2]).matching, [0, 0, 0, 1])


def test_ten_thousand_users_round_in_memory_and_time():
    # slot expansion needs a dense 10^4 x 10^4 matrix here; the transport
    # solver stays O(n * m)
    start = time.perf_counter()
    ds = generate_dataset(GenConfig(n=10_000, m=3, seed=0))
    predicted = round_coupling(_sinkhorn_coupling(ds, 0), ds.capacities)
    elapsed = time.perf_counter() - start
    assert predicted.shape == (10_000,)
    assert np.all(np.bincount(predicted, minlength=3) <= ds.capacities)
    assert np.all(np.bincount(ds.matching, minlength=3) <= ds.capacities)
    assert elapsed < 10.0
