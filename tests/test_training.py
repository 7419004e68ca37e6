import collections
import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simca.metrics
import simca.training
from helpers import converged_coupling, random_instance, reference_solve_ot, slack_extended_loss
from simca.metrics import evaluate
from simca.assignment import round_coupling
from simca.cli import main
from simca.metrics import f1_scores, mean_embedding_distance
from simca.model import AffinityParams, Dataset, compute_affinity, matching_matrix
from simca.sinkhorn import extend_with_slack, matched_cross_entropy, ot_value, solve_ot
from simca.training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    init_embeddings,
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


@pytest.mark.parametrize("value", [0, -1, 1.5, True], ids=["zero", "negative", "fraction", "bool"])
def test_eval_every_must_be_a_positive_integer(tmp_path, capsys, value):
    with pytest.raises(ValueError, match="eval_every must be"):
        TrainConfig(eval_every=value)
    # the CLI key is the field's: a bad value exits 1 naming it, before the bundle is read
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 2, "eval_every": value}))
    code = main(["train", "--bundle", str(tmp_path / "absent"), "--config", str(config),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    assert "eval_every" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SCORE_COLUMNS = ("f1_micro", "f1_macro", "mean_embed_dist")


@pytest.mark.parametrize("joint", [False, True], ids=["items", "joint"])
@pytest.mark.parametrize("eval_every", [1, 3, 7])
def test_eval_every_changes_only_the_unscored_rows(joint, eval_every):
    # scoring never feeds the update: the learned embeddings, the loss and the
    # gradient norm keep every bit, and an unscored row is NaN in its scores only
    ds = _toy_dataset()
    epochs = 10
    every = train(ds, TrainConfig(seed=6, epochs=epochs, joint_users=joint))
    thinned = train(ds, TrainConfig(seed=6, epochs=epochs, joint_users=joint,
                                    eval_every=eval_every))
    assert np.array_equal(thinned.items, every.items)
    assert (thinned.users is None) == (not joint)
    if joint:
        assert np.array_equal(thinned.users, every.users)
    assert len(thinned.history) == epochs
    scored = {e for e in range(epochs) if e % eval_every == 0} | {epochs - 1}
    for row, full in zip(thinned.history, every.history):
        assert (row.epoch, row.loss, row.grad_norm) == (full.epoch, full.loss, full.grad_norm)
        if row.epoch in scored:
            assert row == full
        else:
            assert all(math.isnan(getattr(row, name)) for name in _SCORE_COLUMNS)
            assert all(not math.isnan(getattr(full, name)) for name in _SCORE_COLUMNS)
            assert dataclasses.replace(row, **{n: getattr(full, n) for n in _SCORE_COLUMNS}) == full


@pytest.mark.parametrize("epochs", [0, 1, 2, 5])
def test_the_final_epoch_is_always_scored(epochs):
    # an eval_every beyond the run scores epoch 0 and the last one
    result = train(_toy_dataset(), TrainConfig(seed=1, epochs=epochs, eval_every=100))
    assert len(result.history) == epochs
    assert result.items.shape == (3, 2) and np.isfinite(result.items).all()
    unscored = [r.epoch for r in result.history if math.isnan(r.f1_micro)]
    assert unscored == list(range(1, epochs - 1))


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


@pytest.mark.parametrize("epochs", [1, 2, 3])
def test_a_blow_up_fails_the_run_whichever_update_is_the_last(epochs):
    # the update of epoch 0 leaves non-finite items: epoch 1's solve rejects
    # their affinity, not epsilon, and when no epoch 1 follows, the run still
    # fails, naming epoch 1 and the embeddings
    reason = "non-finite embeddings" if epochs == 1 else "affinity is not finite"
    ds = generate_dataset(GenConfig(n=40, m=3, d=2, k=3, seed=4))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=f"^training diverged at epoch 1: {reason}$"):
        train(ds, TrainConfig(seed=0, epochs=epochs, learning_rate=1.7e308))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("epsilon", [5e-324, 1e-308, 1e-307, 1e-305, 1e-300])
def test_too_small_an_epsilon_fails_at_epoch_0_naming_it(epsilon):
    # each passes its kind, but max |M| / epsilon reaches 2**53: M / epsilon
    # overflows at the smallest, and past the others the loss or its gradient
    # overflows
    with pytest.raises(ValueError, match=rf"^training diverged at epoch 0: affinity / epsilon "
                                         rf"overflows at epsilon={epsilon!r}$"):
        train(_toy_dataset(n=30), TrainConfig(seed=0, epochs=2, epsilon=epsilon))


@pytest.mark.parametrize("extra_spots", [0, 2], ids=["tight", "slack"])
@pytest.mark.parametrize("joint", [False, True], ids=["items", "joint"])
@pytest.mark.parametrize("epsilon", [0.001, 0.1, 2.0])
def test_every_rounded_plan_is_finite_or_the_run_diverged(monkeypatch, epsilon, joint,
                                                          extra_spots):
    # the LAP kernel checks nothing, and NaN scores would spin its excess drain:
    # an epoch rounds only a plan that passed its instance's range guard
    finite = []

    def recording_round(pi, caps):
        finite.append(bool(np.isfinite(pi).all()))
        return round_coupling(pi, caps)

    monkeypatch.setattr(simca.training, "round_coupling", recording_round)
    ds = generate_dataset(GenConfig(n=30, m=3, d=2, k=3, seed=4,
                                    extra_spots_per_item=extra_spots))
    diverged = 0
    for learning_rate in (0.01, 10.0, 1e10, 1e100, 1e300, 1.7e308):
        config = TrainConfig(seed=0, epochs=4, epsilon=epsilon, learning_rate=learning_rate,
                             joint_users=joint)
        try:
            with np.errstate(all="ignore"):
                train(ds, config)
        except ValueError as exc:
            assert "diverged at epoch" in str(exc)
            diverged += 1
    assert finite and all(finite)
    assert diverged >= 1


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 8), st.integers(0, 3),
       st.floats(0.0, 0.9), st.floats(0.3, 2.0),
       st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_a_common_shift_of_the_items_leaves_the_loss_unchanged(seed, m, extra_users, slack,
                                                               alpha, eps, shift):
    # shifting every item by w adds (1 - alpha) * U_i . w to all of user i's
    # affinities; the user's potential absorbs it, so J stays and the item
    # gradient sums to zero over the items. At least m users give every item
    # a capacity, so the plan is soft and J and the gradient are not zero.
    rng = np.random.default_rng(seed)
    users, distances, caps, sigma = random_instance(rng, m + extra_users, m, 2, slack=slack)
    items = rng.normal(size=(m, 2))
    shifted = items + np.array(shift)
    loss = slack_extended_loss(users, items, distances, caps, sigma, alpha, eps)
    moved = slack_extended_loss(users, shifted, distances, caps, sigma, alpha, eps)
    assert abs(moved - loss) <= 1e-10 * abs(loss)
    pi = converged_coupling(compute_affinity(users, items, distances, alpha), caps, eps)
    grad = loss_gradient_items(users, sigma, pi.user_coupling, alpha, eps)
    assert np.linalg.norm(grad.sum(axis=0)) <= 1e-10 * np.linalg.norm(grad)


@pytest.mark.parametrize("m", [3, 10])
@pytest.mark.parametrize("seed", range(7, 12))
def test_a_common_shift_of_the_items_leaves_the_evaluation_unchanged(seed, m):
    # fixed seeds, not hypothesis: the shift moves the plan by rounding error,
    # which could flip the LAP on a near-tied plan
    ds = generate_dataset(GenConfig(n=300, m=m, seed=seed))
    params = AffinityParams(alpha=ds.alpha, epsilon=0.1)
    base = evaluate(ds, ds.items_truth, params)
    for shift in ((0.5, -0.3), (3.0, 2.0)):
        moved = evaluate(ds, ds.items_truth + np.array(shift), params)
        assert (moved.f1_micro, moved.f1_macro, moved.per_item_f1) == \
            (base.f1_micro, base.f1_macro, base.per_item_f1)
        assert abs(moved.cross_entropy - base.cross_entropy) <= 1e-12 * abs(base.cross_entropy)


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


def test_capacities_whose_total_passes_2_to_the_63_train_with_a_finite_loss():
    # the slack row's mass is the capacity total less n, summed without int64 wrap
    ds = Dataset(users=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                 distances=[[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                 capacities=[2**62, 2**62], matching=[0, 1, 0], alpha=0.3)
    result = train(ds, TrainConfig(epochs=3))
    assert len(result.history) == 3
    assert all(np.isfinite(r.loss) for r in result.history)


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


@pytest.mark.parametrize("joint", [False, True], ids=["items", "joint"])
def test_epoch_record_and_update_from_the_kernels(joint):
    # epoch 0 recomputed by hand: the record holds the state before the update,
    # and each parameter takes one Adam step from zero state
    ds = _toy_dataset()
    cfg = TrainConfig(seed=4, epochs=1, joint_users=joint)
    result = train(ds, cfg)
    rng = np.random.default_rng(cfg.seed)
    items = init_embeddings(rng, ds.n_items, ds.dim)
    users = init_embeddings(rng, ds.n_users, ds.dim) if joint else ds.users
    affinity = compute_affinity(users, items, ds.distances, cfg.alpha)
    inst = extend_with_slack(affinity, ds.capacities, cfg.epsilon)
    solved = solve_ot(inst, iterations=cfg.sinkhorn_iters)
    pi = solved.user_coupling
    grad_items = loss_gradient_items(users, ds.matching, pi, cfg.alpha, cfg.epsilon)
    grad_users = loss_gradient_users(items, ds.matching, pi, cfg.alpha, cfg.epsilon)
    grad_sq = float(np.sum(grad_items**2))
    if joint:
        grad_sq += float(np.sum(grad_users**2))
    micro, macro, _ = f1_scores(ds.matching, round_coupling(pi, ds.capacities), ds.n_items)
    expected = EpochRecord(
        epoch=0,
        loss=matched_cross_entropy(inst, solved, ds.matching),
        f1_micro=micro,
        f1_macro=macro,
        mean_embed_dist=mean_embedding_distance(items, ds.items_truth),
        grad_norm=float(np.sqrt(grad_sq)),
    )
    assert result.history == [expected]
    lr = cfg.learning_rate
    stepped_items, _ = adam_step(items, grad_items, AdamState.zeros(items.shape), lr)
    assert np.array_equal(result.items, stepped_items)
    if joint:
        stepped_users, _ = adam_step(users, grad_users, AdamState.zeros(users.shape), lr)
        assert np.array_equal(result.users, stepped_users)
    else:
        assert result.users is None


def _layer_functions():
    """The benchmark tracer's (module, name, span) bindings, read from perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


# train computes its loss with matched_cross_entropy, from the solve's
# potentials, so the benchmark's binding of the coupling-based loss never runs
# (ROADMAP item 6 moves it to matched_cross_entropy)
_STALE_BINDINGS = {(simca.training, "cross_entropy_loss")}


@pytest.mark.parametrize("joint, eval_every", [
    pytest.param(False, 1, id="items"),
    pytest.param(True, 1, id="joint"),
    pytest.param(False, 3, id="items-eval-every-3"),
    pytest.param(True, 3, id="joint-eval-every-3"),
])
def test_the_traced_bindings_are_the_ones_that_run(monkeypatch, joint, eval_every):
    layers = _layer_functions()
    for module, attr, _ in layers:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
    counts = collections.Counter()

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    watched = [(module, attr) for module, attr, _ in layers
               if module in (simca.training, simca.metrics)
               and (module, attr) not in _STALE_BINDINGS]
    for module, attr in watched:
        monkeypatch.setattr(module, attr, counted((module, attr), getattr(module, attr)))
    epochs = 5
    ds = _toy_dataset(n=30)
    result = train(ds, TrainConfig(seed=0, epochs=epochs, joint_users=joint,
                                   eval_every=eval_every))
    expected = {(module, attr): epochs for module, attr in watched if module is simca.training}
    expected[(simca.training, "adam_step")] = epochs * (2 if joint else 1)
    # the scoring runs on epochs 0 and 3 and on the final epoch 4 at eval_every=3
    scored = epochs if eval_every == 1 else 3
    for attr in ("round_coupling", "f1_scores", "mean_embedding_distance"):
        expected[(simca.training, attr)] = scored
    assert counts == expected
    counts.clear()
    scored = ds if result.users is None else dataclasses.replace(ds, users=result.users)
    evaluate(scored, result.items, AffinityParams(0.3, 0.1))
    assert counts == {(module, attr): 1 for module, attr in watched if module is simca.metrics}
