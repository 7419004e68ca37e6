import math

import numpy as np
import pytest

from simca.assignment import solve_lap
from simca.datagen import GenConfig
from simca.model import (
    AffinityParams,
    Dataset,
    compute_affinity,
    matching_matrix,
)
from simca.training import TrainConfig


def test_alpha_one_affinity_is_negated_distance():
    rng = np.random.default_rng(0)
    U = rng.normal(size=(4, 3))
    V = rng.normal(size=(2, 3))
    D = np.abs(rng.normal(size=(4, 2)))
    assert np.array_equal(compute_affinity(U, V, D, 1.0), -D)


def test_alpha_zero_unit_vectors_give_one():
    U = np.array([[1.0, 0.0], [0.0, 1.0]])
    D = np.zeros((2, 2))
    M = compute_affinity(U, U, D, 0.0)
    assert M[0, 0] == 1.0
    assert M[1, 1] == 1.0


def test_affinity_formula_arithmetic():
    # inner product 0.5, distance 2, alpha 0.3 -> 0.7*0.5 - 0.3*2 = -0.25
    U = np.array([[1.0, 0.0]])
    V = np.array([[0.5, 0.0]])
    D = np.array([[2.0]])
    M = compute_affinity(U, V, D, 0.3)
    assert M[0, 0] == pytest.approx(-0.25, abs=1e-15)


def test_affinity_shape_errors():
    U = np.zeros((3, 2))
    V = np.zeros((2, 2))
    with pytest.raises(ValueError):
        compute_affinity(U, V, np.zeros((3, 3)), 0.5)
    with pytest.raises(ValueError):
        compute_affinity(U, np.zeros((2, 4)), np.zeros((3, 2)), 0.5)


def test_affinity_is_affine_in_items():
    # M(aV1 + bV2) - (-alpha D) = a(M(V1) + alpha D) + b(M(V2) + alpha D)
    rng = np.random.default_rng(1)
    alpha = 0.4
    U = rng.normal(size=(5, 3))
    D = np.abs(rng.normal(size=(5, 2)))
    V1 = rng.normal(size=(2, 3))
    V2 = rng.normal(size=(2, 3))
    a, b = 0.7, -1.3
    lhs = compute_affinity(U, a * V1 + b * V2, D, alpha) + alpha * D
    rhs = a * (compute_affinity(U, V1, D, alpha) + alpha * D) + b * (
        compute_affinity(U, V2, D, alpha) + alpha * D
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_single_row_perturbation_is_linear():
    rng = np.random.default_rng(2)
    alpha = 0.25
    U = rng.normal(size=(6, 3))
    V = rng.normal(size=(2, 3))
    D = np.abs(rng.normal(size=(6, 2)))
    delta = rng.normal(size=3)
    V_shift = V.copy()
    V_shift[1] += delta
    change = compute_affinity(U, V_shift, D, alpha) - compute_affinity(U, V, D, alpha)
    assert np.allclose(change[:, 0], 0.0)
    assert np.allclose(change[:, 1], (1 - alpha) * U @ delta, atol=1e-12)


def test_range_bound_for_unit_rows():
    rng = np.random.default_rng(3)
    for alpha in (0.0, 0.3, 1.0):
        U = rng.normal(size=(8, 4))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        V = rng.normal(size=(3, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        D = np.abs(rng.normal(size=(8, 3)))
        M = compute_affinity(U, V, D, alpha)
        assert np.all(np.abs(M + alpha * D) <= (1 - alpha) + 1e-12)


def test_matching_matrix():
    out = matching_matrix([1, 0, 1], 3)
    expected = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert np.array_equal(out, expected)


def test_affinity_params_validation():
    AffinityParams(alpha=0.5, epsilon=0.1)
    with pytest.raises(ValueError):
        AffinityParams(alpha=-0.1, epsilon=0.1)
    with pytest.raises(ValueError):
        AffinityParams(alpha=0.5, epsilon=0.0)


def _dataset_with(alpha=0.3):
    users, distances = _small_dataset()
    return Dataset(users=users, distances=distances, capacities=np.array([2, 1]),
                   matching=np.array([0, 1, 0]), alpha=alpha, seed=0)


# every class that takes alpha, and the two that take epsilon, apply one rule each
_ALPHA_CLASSES = {
    "GenConfig": lambda alpha: GenConfig(alpha=alpha),
    "AffinityParams": lambda alpha: AffinityParams(alpha=alpha, epsilon=0.1),
    "TrainConfig": lambda alpha: TrainConfig(alpha=alpha),
    "Dataset": _dataset_with,
}
_EPSILON_CLASSES = {
    "AffinityParams": lambda epsilon: AffinityParams(alpha=0.3, epsilon=epsilon),
    "TrainConfig": lambda epsilon: TrainConfig(epsilon=epsilon),
}


@pytest.mark.parametrize("build, value, message", [
    *[pytest.param(build, value, message, id=f"{name}-alpha-{label}")
      for name, build in _ALPHA_CLASSES.items()
      for label, value, message in (("bool", True, "alpha must be a number"),
                                    ("string", "0.3", "alpha must be a number"),
                                    ("1.5", 1.5, r"alpha must lie in \[0, 1\]"))],
    *[pytest.param(build, value, message, id=f"{name}-epsilon-{label}")
      for name, build in _EPSILON_CLASSES.items()
      for label, value, message in (("bool", True, "epsilon must be a number"),
                                    ("string", "0.1", "epsilon must be a number"),
                                    ("inf", math.inf, "epsilon must be finite"),
                                    ("nan", math.nan, "epsilon must be finite"),
                                    ("0", 0.0, "epsilon must be positive"))],
])
def test_one_alpha_rule_and_one_epsilon_rule(build, value, message):
    with pytest.raises(ValueError, match=message):
        build(value)


def _small_dataset():
    users = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    distances = np.abs(np.arange(6, dtype=float).reshape(3, 2))
    return users, distances


def test_dataset_validation():
    users, distances = _small_dataset()
    ds = Dataset(
        users=users,
        distances=distances,
        capacities=np.array([2, 1]),
        matching=np.array([0, 1, 0]),
        alpha=0.3,
        seed=0,
    )
    assert ds.n_users == 3 and ds.n_items == 2 and ds.dim == 2

    with pytest.raises(ValueError):
        Dataset(users=users, distances=distances, capacities=np.array([1, 1]),
                matching=np.array([0, 1, 0]), alpha=0.3, seed=0)
    with pytest.raises(ValueError):
        Dataset(users=users, distances=distances, capacities=np.array([2, 1]),
                matching=np.array([0, 0, 0]), alpha=0.3, seed=0)
    with pytest.raises(ValueError):
        Dataset(users=users[:2], distances=distances, capacities=np.array([2, 1]),
                matching=np.array([0, 1, 0]), alpha=0.3, seed=0)
    with pytest.raises(ValueError):
        Dataset(users=users, distances=distances, capacities=np.array([2, 1]),
                matching=np.array([0, 1, 0]), alpha=0.3, seed=0,
                items_truth=np.zeros((3, 2)))


def test_dataset_rejects_non_finite_inputs():
    # the kernels trust Dataset's arrays, so NaN and inf stop here
    users, distances = _small_dataset()
    for name in ("users", "distances"):
        arrays = {"users": users.copy(), "distances": distances.copy()}
        arrays[name][0, 0] = np.nan if name == "users" else np.inf
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            Dataset(**arrays, capacities=np.array([2, 1]),
                    matching=np.array([0, 1, 0]), alpha=0.3, seed=0)


@pytest.mark.parametrize("caps, message", [
    ([1.5, 1.5], "capacities must be integers"),
    ([1e20, 1.0], "capacities must be integers"),
    (["a", "b"], "capacities must be integers"),
    ([3], "capacities shape"),
    ([[2, 1]], "capacities shape"),
    ([4, -1], "nonnegative"),
    ([1, 1], "infeasible"),
], ids=["fractional", "beyond-int64", "non-numeric", "wrong-length", "2-d", "negative",
        "infeasible"])
def test_dataset_and_lap_share_one_capacity_check(caps, message):
    users, distances = _small_dataset()
    with pytest.raises(ValueError, match=message):
        Dataset(users=users, distances=distances, capacities=caps,
                matching=np.array([0, 1, 0]), alpha=0.3, seed=0)
    with pytest.raises(ValueError, match=message):
        solve_lap(np.zeros((3, 2)), caps)


@pytest.mark.parametrize("field, value, message", [
    ("seed", 7.9, "seed must be integers"),
    ("seed", "7", "seed must be integers"),
    ("seed", True, "seed must be integers"),
    ("alpha", "0.3", "alpha must be a number"),
    ("alpha", True, "alpha must be a number"),
    ("alpha", None, "alpha must be a number"),
], ids=["fractional-seed", "string-seed", "bool-seed", "string-alpha", "bool-alpha",
        "missing-alpha"])
def test_dataset_rejects_malformed_seed_and_alpha(field, value, message):
    users, distances = _small_dataset()
    fields = {"alpha": 0.3, "seed": 0, field: value}
    with pytest.raises(ValueError, match=message):
        Dataset(users=users, distances=distances, capacities=np.array([2, 1]),
                matching=np.array([0, 1, 0]), **fields)
    # integer-valued numbers pass, as Python int and float
    ds = Dataset(users=users, distances=distances, capacities=np.array([2, 1]),
                 matching=np.array([0, 1, 0]), alpha=1, seed=7.0)
    assert type(ds.seed) is int and ds.seed == 7
    assert type(ds.alpha) is float and ds.alpha == 1.0


def test_zero_capacity_passes_the_lap_but_not_a_dataset():
    assert np.array_equal(solve_lap(np.zeros((3, 2)), [3, 0]).matching, [0, 0, 0])
    users, distances = _small_dataset()
    with pytest.raises(ValueError, match="at least 1"):
        Dataset(users=users, distances=distances, capacities=[3, 0],
                matching=np.array([0, 0, 0]), alpha=0.3, seed=0)


def test_dataset_rejects_fractional_matching():
    users, distances = _small_dataset()
    with pytest.raises(ValueError, match="matching must be integers"):
        Dataset(users=users, distances=distances, capacities=np.array([2, 1]),
                matching=[0.9, 1.5, 0.2], alpha=0.3, seed=0)
    # integer-valued floats are integers
    ds = Dataset(users=users, distances=distances, capacities=[2.0, 1.0],
                 matching=[0.0, 1.0, 0.0], alpha=0.3, seed=0)
    assert np.array_equal(ds.matching, [0, 1, 0]) and ds.matching.dtype == np.int64
    assert np.array_equal(ds.capacities, [2, 1]) and ds.capacities.dtype == np.int64
