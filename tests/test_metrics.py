from dataclasses import replace

import numpy as np
import pytest

import simca.sinkhorn
from simca.datagen import GenConfig, generate_dataset
from simca.metrics import evaluate, f1_scores, mean_embedding_distance
from simca.model import AffinityParams, Dataset


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
    # transport kernel's range guard rejects such an affinity at any epsilon,
    # naming it, before a plan is built
    ds = generate_dataset(GenConfig(n=30, m=3, d=2, k=3, seed=5))
    items = np.full((3, 2), 1.5e308)
    for epsilon, error in ((0.2, "overflows at epsilon=0.2"), (2.0, "overflows at epsilon=2.0")):
        params = AffinityParams(alpha=ds.alpha, epsilon=epsilon)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=error):
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


def test_evaluate_is_deterministic():
    ds = generate_dataset(GenConfig(n=30, m=2, d=2, k=2, seed=5))
    params = AffinityParams(alpha=ds.alpha, epsilon=0.2)
    V = np.random.default_rng(6).normal(size=(2, 2))
    a = evaluate(ds, V, params)
    b = evaluate(ds, V, params)
    assert a == b
