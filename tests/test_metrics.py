import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simca.metrics
from simca.assignment import sorted_prices
from simca.datagen import GenConfig, generate_dataset
from simca.metrics import PRICE_START_BELOW, evaluate, f1_scores, mean_embedding_distance
from simca.model import AffinityParams, Dataset, compute_affinity
from simca.sinkhorn import solve_ot
from simca.training import TrainConfig, train


def test_perfect_prediction():
    truth = np.array([0, 1, 2, 1])
    micro, macro, per_item = f1_scores(truth, truth, 3)
    assert micro == 1.0
    assert macro == 1.0
    assert np.array_equal(per_item, np.ones(3))


def test_total_disagreement():
    micro, macro, _ = f1_scores(np.array([0, 1]), np.array([1, 0]), 2)
    assert micro == 0.0
    assert macro == 0.0


def test_hand_computed_confusion():
    truth = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    micro, macro, per_item = f1_scores(truth, pred, 2)
    assert micro == pytest.approx(3 / 4)
    assert per_item[0] == pytest.approx(2 / 3)
    assert per_item[1] == pytest.approx(4 / 5)
    assert macro == pytest.approx(11 / 15)


def test_empty_class_scores_one():
    # item 2 has no true and no predicted users
    truth = np.array([0, 1])
    pred = np.array([0, 1])
    _, macro, per_item = f1_scores(truth, pred, 3)
    assert per_item[2] == 1.0
    assert macro == 1.0


def test_micro_is_one_minus_hamming():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 3, size=50)
    pred = rng.integers(0, 3, size=50)
    micro, _, _ = f1_scores(truth, pred, 3)
    assert micro == pytest.approx(1.0 - np.mean(truth != pred))


def test_mean_embedding_distance():
    V = np.array([[3.0, 4.0]])
    assert mean_embedding_distance(V, V) == 0.0
    assert mean_embedding_distance(np.array([[0.0, 0.0]]), V) == pytest.approx(5.0)
    a = np.zeros((2, 2))
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert mean_embedding_distance(a, b) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mean_embedding_distance(np.zeros((2, 2)), np.zeros((3, 2)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 60), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_scorers_give_the_bits_of_numpys_mean_and_norm(m, n, d, seed):
    # the scorers call numpy's ufuncs directly; they return Python floats with
    # the bits of the np.mean and np.linalg.norm forms, an empty matching included
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, m, size=n)
    pred = np.where(rng.random(n) < 0.5, truth, rng.integers(0, m, size=n))
    micro, macro, per_item = f1_scores(truth, pred, m)
    assert type(micro) is float and type(macro) is float
    assert micro.hex() == (float(np.mean(truth == pred)) if n else 1.0).hex()
    assert macro.hex() == float(per_item.mean()).hex()
    learned, items = rng.normal(size=(m, d)), rng.normal(size=(m, d)) * rng.choice([1e-3, 1.0, 1e3])
    dist = mean_embedding_distance(learned, items)
    assert type(dist) is float
    assert dist.hex() == float(np.mean(np.linalg.norm(learned - items, axis=1))).hex()


@pytest.mark.parametrize("cap, converged", [(2, False), (None, True)],
                         ids=["hits-the-cap", "converges"])
def test_evaluate_reports_its_solve(monkeypatch, cap, converged):
    # a solve stopped by its cap is reported, and the capped coupling still
    # scored; under the default cap it converges in a few Newton steps and
    # rounds to the generating matching
    if cap is not None:
        monkeypatch.setattr(simca.sinkhorn, "MAX_NEWTON_STEPS", cap)
    ds = generate_dataset(GenConfig(n=30, m=3, k=2, seed=1, extra_spots_per_item=1))
    report = evaluate(ds, ds.items_truth, AffinityParams(alpha=ds.alpha, epsilon=0.002))
    assert report.converged is converged
    if converged:
        assert report.sinkhorn_iterations < 100 and report.f1_micro == 1.0
    else:
        assert report.sinkhorn_iterations == 2 and 0.0 <= report.f1_micro <= 1.0


def test_evaluating_the_generating_model_is_perfect():
    # rounding the regularized coupling reproduces the exact matching once
    # epsilon is small against the instance's optimality margins
    ds = generate_dataset(GenConfig(n=50, m=3, d=2, k=3, seed=2))
    report = evaluate(ds, ds.items_truth, AffinityParams(alpha=ds.alpha, epsilon=0.005))
    assert report.f1_micro == 1.0
    assert report.f1_macro == 1.0
    assert report.mean_embed_dist == 0.0
    assert report.cross_entropy >= 0.0


def test_alpha_one_ignores_embeddings():
    rng = np.random.default_rng(3)
    users = rng.normal(size=(20, 2))
    users /= np.linalg.norm(users, axis=1, keepdims=True)
    distances = np.abs(rng.normal(size=(20, 2))) + 0.1
    from simca.assignment import solve_lap

    matching = solve_lap(-distances, np.array([10, 10])).matching
    ds = Dataset(users=users, distances=distances, capacities=np.array([10, 10]),
                 matching=matching, alpha=1.0)
    params = AffinityParams(alpha=1.0, epsilon=0.1)
    r1 = evaluate(ds, rng.normal(size=(2, 2)), params)
    r2 = evaluate(ds, rng.normal(size=(2, 2)), params)
    assert r1.f1_micro == r2.f1_micro
    assert r1.cross_entropy == pytest.approx(r2.cross_entropy, abs=1e-9)
    assert r1.mean_embed_dist is None


def test_evaluate_with_substitute_users():
    ds = generate_dataset(GenConfig(n=40, m=2, d=2, k=2, seed=4))
    params = AffinityParams(alpha=ds.alpha, epsilon=0.1)
    base = evaluate(ds, ds.items_truth, params)
    other = evaluate(replace(ds, users=np.flipud(ds.users)), ds.items_truth, params)
    assert base.f1_micro >= other.f1_micro  # scrambled users can only hurt


@pytest.mark.parametrize("rows, cols", [(slice(1, None), slice(None)), (slice(None), slice(1, None))],
                         ids=["one-user-short", "one-dimension-short"])
def test_replaced_users_of_the_wrong_shape_are_named(rows, cols):
    # replacing the users is how a caller scores another cohort, so a mismatch
    # with the distances or the true items names the users, not the other array
    ds = generate_dataset(GenConfig(n=40, m=3, d=2, k=3, seed=4))
    users = ds.users[rows, cols]
    with pytest.raises(ValueError, match=rf"^users shape \({users.shape[0]}, {users.shape[1]}\)"):
        replace(ds, users=users)


def test_evaluate_rejects_malformed_learned_arrays():
    ds = generate_dataset(GenConfig(n=30, m=3, d=2, k=3, seed=5))
    params = AffinityParams(alpha=ds.alpha, epsilon=0.2)
    with pytest.raises(ValueError, match="items_hat shape"):
        evaluate(ds, ds.items_truth[:2], params)
    bad = ds.items_truth.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        evaluate(ds, bad, params)


def test_evaluate_rejects_items_whose_affinity_overflows():
    # finite items at 1.5e308 overflow the affinity to inf and NaN; the LAP
    # kernel checks nothing, and its excess drain would spin on NaN scores. The
    # transport instance's range guard rejects such an affinity at any epsilon
    # before a plan is built, naming the affinity, not a fine epsilon
    ds = generate_dataset(GenConfig(n=30, m=3, d=2, k=3, seed=5))
    items = np.full((3, 2), 1.5e308)
    for epsilon in (0.2, 2.0):
        params = AffinityParams(alpha=ds.alpha, epsilon=epsilon)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^affinity is not finite$"):
            evaluate(ds, items, params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("epsilon", [5e-324, 1e-308, 1e-307, 1e-305, 1e-300])
def test_evaluate_at_too_small_an_epsilon_names_it(epsilon):
    # each passes its kind, but max |M| / epsilon reaches 2**53: M / epsilon
    # overflows at the smallest, and past the others the Newton solve overflows
    # or stalls
    ds = generate_dataset(GenConfig(n=30, m=3, d=2, k=3, seed=5))
    params = AffinityParams(alpha=ds.alpha, epsilon=epsilon)
    with pytest.raises(ValueError, match=rf"^affinity / epsilon overflows at epsilon={epsilon!r}$"):
        evaluate(ds, ds.items_truth, params)


def test_evaluate_at_a_small_epsilon_starts_from_the_sorted_prices(monkeypatch):
    # the reference instance with the items of a 400-epoch train: at epsilon
    # = 0.002 the solve took 16 Newton steps from zero, and 10 from the price
    # of the last user the sorted phase moved; from midway to the next user's
    # key it takes 5, and rounds to the same matching
    ds = generate_dataset(GenConfig(n=300, m=3, d=2, k=3, alpha=0.3, seed=7))
    items = train(ds, TrainConfig(seed=0, epochs=400)).items
    params = AffinityParams(alpha=ds.alpha, epsilon=0.002)
    start = evaluate(ds, items, params)
    monkeypatch.setattr(simca.metrics, "PRICE_START_BELOW", 0.0)
    cold = evaluate(ds, items, params)
    assert start.converged and cold.converged
    assert start.sinkhorn_iterations <= 8 < cold.sinkhorn_iterations
    assert start.f1_micro == cold.f1_micro and start.per_item_f1 == cold.per_item_f1


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**16), st.sampled_from([0.03, 0.3]),
       st.sampled_from([1e-4, 1e-3, 0.002, 0.004, PRICE_START_BELOW, 0.01]))
def test_evaluate_starts_from_sorted_prices_only_below_the_threshold(m, seed, noise, epsilon):
    # below PRICE_START_BELOW, where the sorted phase of the learned items'
    # affinity settles, the report is that of a solve started from
    # -prices / epsilon, bit for bit; otherwise it is the zero start's. Without
    # spare capacity the row argmax overfills an item: at m = 2 one clearing
    # step settles it with a positive price, at m >= 3 it leaves excess here
    ds = generate_dataset(GenConfig(n=40, m=m, k=2, extra_spots_per_item=0, seed=seed))
    items = ds.items_truth + noise * np.random.default_rng(seed).normal(size=ds.items_truth.shape)
    params = AffinityParams(alpha=ds.alpha, epsilon=epsilon)
    prices = sorted_prices(compute_affinity(ds.users, items, ds.distances, ds.alpha),
                           ds.capacities)
    start = -prices / epsilon if epsilon < PRICE_START_BELOW and prices is not None else np.zeros(m)
    with pytest.MonkeyPatch.context() as forced:
        forced.setattr(simca.metrics, "solve_ot",
                       lambda inst, tol, log_b_init: solve_ot(inst, tol=tol, log_b_init=start))
        expected = evaluate(ds, items, params)
    report = evaluate(ds, items, params)
    assert report == expected and report.cross_entropy.hex() == expected.cross_entropy.hex()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e12])
def test_price_start_at_the_range_guard(scale, monkeypatch):
    # evaluate starts at -prices / epsilon: up to about 2**54 with epsilon just
    # above max |M| / 2**53, where the solve stays finite; at or below that
    # bound the instance's guard raises first, before a division that could
    # overflow. With alpha = 0 and scaled unit items, the affinity is scale * M
    rng = np.random.default_rng(3)
    M = rng.normal(size=(30, 3))
    M[:, 0] += 2.0
    caps = np.array([10, 20, 20])  # room for item 0's excess on either other item
    ds = Dataset(users=M, distances=np.zeros((30, 3)), capacities=caps,
                 matching=np.arange(30) % 3, alpha=0.0)
    items = scale * np.eye(3)
    affinity = compute_affinity(ds.users, items, ds.distances, ds.alpha)
    bound = float(np.abs(affinity).max() / 2**53)
    epsilon = float(np.nextafter(bound, np.inf))
    assert epsilon < PRICE_START_BELOW and sorted_prices(affinity, caps).max() > 0
    solves = []
    monkeypatch.setattr(simca.metrics, "solve_ot",
                        lambda *args, **kwargs: solves.append(solve_ot(*args, **kwargs)) or solves[-1])
    evaluate(ds, items, AffinityParams(alpha=0.0, epsilon=epsilon))
    for potential in (solves[0].coupling, solves[0].log_a, solves[0].log_b):
        assert np.isfinite(potential).all()
    for epsilon in (bound, 5e-324):
        message = f"^affinity / epsilon overflows at epsilon={re.escape(repr(epsilon))}$"
        with pytest.raises(ValueError, match=message):
            evaluate(ds, items, AffinityParams(alpha=0.0, epsilon=epsilon))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_names_a_non_finite_affinity_before_seeking_prices(monkeypatch):
    # items at 1.5e308 overflow the affinity to inf and NaN; at epsilon = 0.002
    # evaluate would start from the sorted prices, but the instance's guard
    # names the affinity first, before the prices are sought or divided
    ds = generate_dataset(GenConfig(n=30, m=3, d=2, k=3, seed=5))
    items = np.full((3, 2), 1.5e308)
    with np.errstate(all="ignore"):
        affinity = compute_affinity(ds.users, items, ds.distances, ds.alpha)
    assert not np.isfinite(affinity).all()
    monkeypatch.setattr(simca.metrics, "compute_affinity", lambda *_: affinity)
    sought = []
    monkeypatch.setattr(simca.metrics, "sorted_prices", lambda *args: sought.append(args))
    with pytest.raises(ValueError, match="^affinity is not finite$"):
        evaluate(ds, items, AffinityParams(alpha=ds.alpha, epsilon=0.002))
    assert not sought


def test_evaluate_is_deterministic():
    ds = generate_dataset(GenConfig(n=30, m=2, d=2, k=2, seed=5))
    params = AffinityParams(alpha=ds.alpha, epsilon=0.2)
    V = np.random.default_rng(6).normal(size=(2, 2))
    a = evaluate(ds, V, params)
    b = evaluate(ds, V, params)
    assert a == b
