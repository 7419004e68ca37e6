import math

import numpy as np
import pytest

from simca.assignment import solve_lap
from simca.datagen import (
    GenConfig,
    apply_gaussian_noise,
    apply_swap_noise,
    generate_dataset,
    round_capacities,
)
from simca.model import compute_affinity


def test_capacities_single_item():
    assert np.array_equal(round_capacities([1.0], 100, 5), [105])


def test_capacities_forced_equal_proportions():
    caps = round_capacities([1 / 3, 1 / 3, 1 / 3], 999, 0)
    assert np.array_equal(caps, [333, 333, 333])


def test_capacities_match_reported_totals():
    caps = round_capacities(np.random.default_rng(4).dirichlet(np.ones(3)), 1000, 10)
    assert caps.sum() == 1030
    assert np.all(caps >= 1)


def test_capacities_sum_and_determinism():
    proportions = np.random.default_rng(11).dirichlet(0.8 * np.ones(4))
    a = round_capacities(proportions, 250, 3)
    b = round_capacities(proportions, 250, 3)
    assert np.array_equal(a, b)
    assert a.sum() == 250 + 4 * 3
    assert np.all(a >= 1)
    # largest remainder: each item gets the floor or the ceiling of its share
    assert np.all(np.abs(a - 3 - proportions * 250) < 1)


def test_capacities_every_item_usable_without_extras():
    # skewed proportions would round an item to zero; the floor keeps it at 1
    caps = round_capacities([0.995, 0.004, 0.001], 50, 0)
    assert caps.sum() == 50
    assert np.all(caps >= 1)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n=10, m=3, d=2, k=4)
    with pytest.raises(ValueError):
        GenConfig(n=2, m=3, d=2, k=1)
    with pytest.raises(ValueError):
        GenConfig(n=10, m=3, d=0, k=2)


def test_gen_config_rejects_a_zero_cluster_spread():
    with pytest.raises(ValueError, match="cluster_spread must be positive"):
        GenConfig(cluster_spread=0.0)


def test_generated_dataset_shapes_and_normalizations():
    cfg = GenConfig(n=80, m=4, d=3, k=2, alpha=0.3, seed=3, extra_spots_per_item=2)
    ds = generate_dataset(cfg)
    assert ds.users.shape == (80, 3)
    assert ds.items_truth.shape == (4, 3)
    assert ds.distances.shape == (80, 4)
    assert ds.capacities.sum() == 80 + 4 * 2
    assert abs(ds.distances.mean() - 1.0) <= 1e-9
    assert np.all(ds.distances >= 0)
    assert np.max(np.abs(np.linalg.norm(ds.users, axis=1) - 1.0)) <= 1e-9
    assert np.max(np.abs(np.linalg.norm(ds.items_truth, axis=1) - 1.0)) <= 1e-9


def test_generated_matching_is_optimal():
    ds = generate_dataset(GenConfig(n=60, m=3, d=2, k=3, seed=5))
    M = compute_affinity(ds.users, ds.items_truth, ds.distances, ds.alpha)
    resolved = solve_lap(M, ds.capacities)
    assert np.array_equal(resolved.matching, ds.matching)
    stored_objective = float(M[np.arange(60), ds.matching].sum())
    assert resolved.objective == stored_objective


def test_generation_is_deterministic():
    cfg = GenConfig(n=50, m=3, d=2, k=2, seed=12)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert np.array_equal(a.users, b.users)
    assert np.array_equal(a.distances, b.distances)
    assert np.array_equal(a.capacities, b.capacities)
    assert np.array_equal(a.matching, b.matching)


def test_single_cluster_single_item():
    ds = generate_dataset(GenConfig(n=20, m=1, d=2, k=1, seed=1))
    assert np.array_equal(ds.matching, np.zeros(20, dtype=np.int64))


def test_paper_scale_generation():
    ds = generate_dataset(GenConfig(n=1000, m=3, d=2, k=3, alpha=0.3, seed=0))
    assert ds.n_users == 1000
    assert ds.capacities.sum() == 1030


def test_swap_noise_zero_is_identity():
    sigma = np.array([0, 1, 0, 1, 2, 2])
    assert np.array_equal(apply_swap_noise(sigma, 0.0, seed=0), sigma)


def test_swap_noise_full_perturbation_two_items():
    n = 40
    sigma = np.array([0] * (n // 2) + [1] * (n // 2))
    noised = apply_swap_noise(sigma, 1.0, seed=2)
    assert np.all(noised != sigma)
    assert np.array_equal(np.bincount(noised), np.bincount(sigma))


def test_swap_noise_preserves_counts_and_hits_requested_fraction():
    rng = np.random.default_rng(3)
    n = 120
    sigma = rng.integers(0, 3, size=n)
    for rho in (0.1, 0.25, 0.5, 0.9):
        noised = apply_swap_noise(sigma, rho, seed=7)
        assert np.array_equal(
            np.bincount(noised, minlength=3), np.bincount(sigma, minlength=3)
        )
        changed = float(np.mean(noised != sigma))
        assert abs(changed - rho) <= 1.0 / n + 1e-12


def test_swap_noise_warns_when_stuck():
    sigma = np.zeros(10, dtype=np.int64)
    with pytest.warns(UserWarning, match="no partner"):
        out = apply_swap_noise(sigma, 0.5, seed=0)
    assert np.array_equal(out, sigma)


@pytest.mark.parametrize("rho, message", [
    (True, "rho must be a number"),
    ("0.5", "rho must be a number"),
    (math.nan, "rho must be finite"),
    (10**400, "rho must be finite"),
], ids=["bool", "string", "nan", "int-beyond-float"])
def test_noise_levels_follow_the_setting_rule(rho, message):
    # a bool is not a level: True used to swap every user
    sigma = np.array([0, 1, 0, 1, 2, 2])
    with pytest.raises(ValueError, match=message):
        apply_swap_noise(sigma, rho, seed=0)
    with pytest.raises(ValueError, match=message):
        apply_gaussian_noise(np.ones((6, 2)), rho, seed=0)


def test_gaussian_noise_edge_ratios():
    rng = np.random.default_rng(4)
    U = rng.normal(size=(6, 2))
    assert np.array_equal(apply_gaussian_noise(U, 0.0, seed=5), U)
    # at full noise the output ignores the input entirely
    a = apply_gaussian_noise(U, 1.0, seed=6)
    b = apply_gaussian_noise(np.zeros_like(U), 1.0, seed=6)
    assert np.allclose(a, b)


def test_gaussian_noise_second_moment():
    # unit rows keep E|row|^2 = (1 - rho^2) + rho^2 d
    rng = np.random.default_rng(8)
    n, d, rho = 10_000, 3, 0.6
    U = rng.normal(size=(n, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    noised = apply_gaussian_noise(U, rho, seed=9)
    sq = np.sum(noised**2, axis=1)
    expected = (1 - rho**2) + rho**2 * d
    stderr = sq.std(ddof=1) / np.sqrt(n)
    assert abs(sq.mean() - expected) <= 3 * stderr


def test_noise_ratio_bounds():
    with pytest.raises(ValueError):
        apply_swap_noise(np.zeros(4, dtype=np.int64), 1.5, seed=0)
    with pytest.raises(ValueError):
        apply_gaussian_noise(np.zeros((2, 2)), -0.2, seed=0)
