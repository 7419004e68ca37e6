import numpy as np
import pytest

import simca.metrics
import simca.training
from helpers import converged_coupling, random_instance, reference_solve_ot, slack_extended_loss
from simca.metrics import evaluate
from simca.model import AffinityParams, compute_affinity, matching_matrix
from simca.sinkhorn import extend_with_slack, matched_cross_entropy, ot_value, solve_ot
from simca.training import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    loss_gradient_items,
    loss_gradient_users,
    matching_with_slack,
    train,
)
from simca.datagen import GenConfig, generate_dataset


def test_loss_vanishes_on_hard_coupling():
    sigma = np.array([1, 0, 1])
    assert cross_entropy_loss(sigma, matching_matrix(sigma, 2)) == 0.0


def test_loss_on_product_coupling():
    # pi[i, j] = caps[j] / n with caps [2, 2]: every matched entry is 1/2
    sigma = np.array([0, 0, 1, 1])
    pi = np.outer(np.ones(4), np.array([2.0, 2.0]) / 4.0)
    assert cross_entropy_loss(sigma, pi) == pytest.approx(4 * np.log(2.0))


def test_loss_rejects_vanished_matched_entry():
    pi = np.array([[0.0, 1.0]])
    with pytest.raises(ValueError):
        cross_entropy_loss(np.array([0]), pi)


def test_loss_identity_with_converged_transport():
    # the cross entropy (slack-extended when needed) equals
    # -s(C) + (V_eps(M) - Tr(sigma^T M)) / eps at the transport optimum
    rng = np.random.default_rng(0)
    for trial in range(8):
        n, m = 5, 3
        users, distances, caps, sigma = random_instance(
            rng, n, m, 2, slack=(2 if trial % 2 else 0)
        )
        items = rng.normal(size=(m, 2))
        eps = 0.4
        M = compute_affinity(users, items, distances, 0.3)
        result = converged_coupling(M, caps, eps)
        sigma_ext = matching_with_slack(sigma, caps)
        inst_affinity = (
            np.vstack([M, np.zeros((1, m))]) if sigma_ext.shape[0] == n + 1 else M
        )
        lhs = float(-np.sum(sigma_ext * np.log(result.coupling)))
        rhs = -caps.sum() + (
            ot_value(inst_affinity, result.coupling, eps)
            - float(np.sum(sigma_ext * inst_affinity))
        ) / eps
        assert abs(lhs - rhs) <= 1e-6


def test_gradient_zero_when_coupling_matches_assignment():
    sigma = np.array([0, 1, 1])
    U = np.random.default_rng(1).normal(size=(3, 2))
    grad = loss_gradient_items(U, sigma, matching_matrix(sigma, 2), 0.3, 0.5)
    assert np.allclose(grad, 0.0)


def test_gradient_zero_at_alpha_one():
    rng = np.random.default_rng(2)
    sigma = np.array([0, 1, 0])
    pi = rng.uniform(0.1, 1.0, size=(3, 2))
    assert np.allclose(loss_gradient_items(rng.normal(size=(3, 2)), sigma, pi, 1.0, 0.5), 0.0)
    assert np.allclose(loss_gradient_users(rng.normal(size=(2, 2)), sigma, pi, 1.0, 0.5), 0.0)


def test_item_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    n, m, d = 6, 2, 2
    users, distances, caps, sigma = random_instance(rng, n, m, d)
    items = rng.normal(size=(m, d))
    alpha, eps, h = 0.3, 0.5, 1e-5
    pi = converged_coupling(compute_affinity(users, items, distances, alpha), caps, eps)
    grad = loss_gradient_items(users, sigma, pi.user_coupling, alpha, eps)
    for j in range(m):
        for k in range(d):
            up, down = items.copy(), items.copy()
            up[j, k] += h
            down[j, k] -= h
            fd = (
                slack_extended_loss(users, up, distances, caps, sigma, alpha, eps)
                - slack_extended_loss(users, down, distances, caps, sigma, alpha, eps)
            ) / (2 * h)
            assert abs(fd - grad[j, k]) / max(abs(fd), 1e-10) <= 1e-4


def test_user_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    n, m, d = 5, 2, 2
    _, distances, caps, sigma = random_instance(rng, n, m, d)
    users = rng.normal(size=(n, d))
    items = rng.normal(size=(m, d))
    alpha, eps, h = 0.4, 0.5, 1e-5
    pi = converged_coupling(compute_affinity(users, items, distances, alpha), caps, eps)
    grad = loss_gradient_users(items, sigma, pi.user_coupling, alpha, eps)
    for i in range(n):
        for k in range(d):
            up, down = users.copy(), users.copy()
            up[i, k] += h
            down[i, k] -= h
            fd = (
                slack_extended_loss(up, items, distances, caps, sigma, alpha, eps)
                - slack_extended_loss(down, items, distances, caps, sigma, alpha, eps)
            ) / (2 * h)
            assert abs(fd - grad[i, k]) / max(abs(fd), 1e-10) <= 1e-4


def test_matching_with_slack():
    sigma = np.array([0, 0, 1])
    no_slack = matching_with_slack(sigma, np.array([2, 1]))
    assert no_slack.shape == (3, 2)
    extended = matching_with_slack(sigma, np.array([3, 2]))
    assert extended.shape == (4, 2)
    assert np.array_equal(extended[-1], [1.0, 1.0])
    assert np.allclose(extended.sum(0), [3.0, 2.0])


def test_adam_zero_gradient_is_identity():
    params = np.array([[1.0, -2.0]])
    state = AdamState.zeros(params.shape)
    new, state = adam_step(params, np.zeros_like(params), state, lr=0.1)
    assert np.array_equal(new, params)
    assert state.step == 1


def test_adam_first_step_magnitude():
    params = np.array([0.0])
    new, _ = adam_step(params, np.array([1.0]), AdamState.zeros((1,)), lr=0.1)
    # bias correction gives m_hat = v_hat = 1, so the step is lr up to adam_eps
    assert new[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_moves_against_gradient_sign():
    params = np.array([0.5])
    state = AdamState.zeros((1,))
    grad = np.array([2.0])
    p1, state = adam_step(params, grad, state, lr=0.05)
    p2, _ = adam_step(p1, grad, state, lr=0.05)
    assert p2[0] < p1[0] < params[0]


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros((2, 2)), np.zeros((2, 3)), AdamState.zeros((2, 2)), lr=0.1)


def _toy_dataset(seed=0, n=60):
    return generate_dataset(GenConfig(n=n, m=3, d=2, k=3, alpha=0.3, seed=seed,
                                      extra_spots_per_item=2))


def test_train_zero_epochs_returns_initialization():
    ds = _toy_dataset()
    result = train(ds, TrainConfig(seed=5, epochs=0))
    assert result.history == []
    assert result.items.shape == (3, 2)
    assert np.allclose(np.linalg.norm(result.items, axis=1), 1.0)
    assert result.users is None


def test_train_is_deterministic():
    ds = _toy_dataset()
    cfg = TrainConfig(seed=9, epochs=12)
    a = train(ds, cfg)
    b = train(ds, cfg)
    assert np.array_equal(a.items, b.items)
    assert a.history == b.history


def test_train_reduces_loss_and_recovers_allocation():
    ds = _toy_dataset()
    result = train(ds, TrainConfig(seed=1, epochs=150))
    assert len(result.history) == 150
    assert result.history[-1].loss < result.history[0].loss
    assert result.history[-1].f1_micro > result.history[0].f1_micro
    assert result.history[-1].loss >= 0.0


def test_train_joint_mode_returns_users():
    ds = _toy_dataset()
    result = train(ds, TrainConfig(seed=2, epochs=30, joint_users=True))
    assert result.users is not None
    assert result.users.shape == ds.users.shape
    # learned users are the model's own, not the dataset's
    assert not np.allclose(result.users, ds.users)


def test_diverging_run_fails_loudly():
    # an absurd step size overflows the embeddings; the run must stop with an
    # error instead of logging NaN epochs
    ds = _toy_dataset(n=30)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="diverged at epoch"):
        train(ds, TrainConfig(seed=0, epochs=5, learning_rate=1.7e308))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        TrainConfig(alpha=1.2)
    with pytest.raises(ValueError):
        TrainConfig(sinkhorn_iters=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            TrainConfig(epsilon=bad)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=bad)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)


def test_desk_scale_loss_decreases():
    ds = generate_dataset(GenConfig(n=300, m=3, d=2, k=3, alpha=0.3, seed=7))
    result = train(ds, TrainConfig(seed=0, epochs=400))
    assert result.history[-1].loss < result.history[0].loss
    assert all(r.loss >= 0.0 for r in result.history)


def test_loss_is_convex_along_segments():
    rng = np.random.default_rng(6)
    n, m, d = 8, 2, 2
    users, distances, caps, sigma = random_instance(rng, n, m, d)
    eps = 0.5

    def loss(items):
        return slack_extended_loss(users, items, distances, caps, sigma, 0.3, eps)

    for _ in range(10):
        va = rng.normal(size=(m, d))
        vb = rng.normal(size=(m, d))
        lam = float(rng.choice([0.25, 0.5, 0.75]))
        mid = loss(lam * va + (1 - lam) * vb)
        assert mid <= lam * loss(va) + (1 - lam) * loss(vb) + 1e-8


def test_train_and_evaluate_match_the_reference_solver(monkeypatch):
    # training keeps the reference loop's bits (m=10 reaches numpy's pairwise
    # row sums inside every Sinkhorn reduction); evaluate's Newton solve agrees
    # with the loop run to the same tolerance: both converge and round to the
    # same matching
    ds = generate_dataset(GenConfig(n=200, m=10, d=2, k=3, alpha=0.3, seed=4))
    configs = [TrainConfig(seed=3, epochs=30), TrainConfig(seed=3, epochs=30, joint_users=True)]
    runs = [train(ds, cfg) for cfg in configs]
    reports = [evaluate(ds, runs[0].items, AffinityParams(0.3, eps)) for eps in (0.1, 0.01)]
    monkeypatch.setattr(simca.training, "solve_ot", reference_solve_ot)
    monkeypatch.setattr(simca.metrics, "solve_ot", reference_solve_ot)
    for cfg, fast in zip(configs, runs):
        slow = train(ds, cfg)
        assert fast.history == slow.history
        assert np.array_equal(fast.items, slow.items)
        assert (fast.users is None and slow.users is None) or np.array_equal(fast.users, slow.users)
    for eps, fast in zip((0.1, 0.01), reports):
        slow = evaluate(ds, runs[0].items, AffinityParams(0.3, eps))
        assert fast.converged and slow.converged
        assert fast.sinkhorn_iterations < slow.sinkhorn_iterations
        assert (fast.f1_micro, fast.f1_macro, fast.per_item_f1, fast.mean_embed_dist) == \
            (slow.f1_micro, slow.f1_macro, slow.per_item_f1, slow.mean_embed_dist)
        assert fast.cross_entropy == pytest.approx(slow.cross_entropy, rel=1e-9)


def test_small_epsilon_trains_with_a_finite_loss():
    # at epsilon=0.001 matched entries of the coupling underflow to 0; the loss
    # comes from the potentials, so training and evaluate still score them
    ds = generate_dataset(GenConfig(n=300, m=3, d=2, k=3, alpha=0.3, seed=7))
    result = train(ds, TrainConfig(epsilon=0.001, epochs=2))
    assert all(np.isfinite(r.loss) for r in result.history)
    report = evaluate(ds, result.items, AffinityParams(0.3, 0.001))
    assert report.converged and np.isfinite(report.cross_entropy)


def test_loss_from_potentials_matches_the_coupling():
    rng = np.random.default_rng(12)
    users, distances, caps, sigma = random_instance(rng, 9, 3, 2, slack=1)
    inst = extend_with_slack(compute_affinity(users, rng.normal(size=(3, 2)), distances, 0.3),
                             caps, 0.2)
    for result in (solve_ot(inst, iterations=4), solve_ot(inst, tol=1e-10)):
        assert matched_cross_entropy(inst, result, sigma) == \
            pytest.approx(cross_entropy_loss(sigma, result.coupling), rel=1e-14)


@pytest.mark.parametrize("key", ["sinkhorn_iters", "epochs", "learning_rate"])
@pytest.mark.parametrize("value", [True, "3"], ids=["bool", "string"])
def test_config_rejects_non_numbers(key, value):
    with pytest.raises(ValueError, match=f"{key} must be"):
        TrainConfig(**{key: value})
