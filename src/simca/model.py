"""Domain types and the affinity model.

Users and items live in a shared latent space; their pairwise score combines
the inner product of their embeddings with an exogenous distance penalty:

    M[i, j] = (1 - alpha) * <U_i, V_j> - alpha * D[i, j]

``alpha`` in [0, 1] trades latent affinity against geographic proximity.
Matrices are plain float64 numpy arrays throughout; embedding matrices are
row-major (one row per user or item). ``Dataset`` and ``AffinityParams``
validate on construction, so ``compute_affinity`` and the other per-epoch
kernels take their inputs as given. ``check_setting`` is the one rule for a
scalar setting: every field of the config dataclasses, every CLI config key
and every noise level goes through it by its type hint.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing
from dataclasses import dataclass

import numpy as np


def as_matrix(values, name: str, shape=None) -> np.ndarray:
    """Coerce to a finite 2-D float64 array of ``shape``; a None shape, or a
    None entry in it, matches any size."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if shape is not None and any(w is not None and w != g for w, g in zip(shape, arr.shape)):
        raise ValueError(f"{name} shape {arr.shape} does not match {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _integer_vector(values, name: str, length: int) -> np.ndarray:
    """Int64 copy of a numeric vector of ``length`` integers; integer-valued floats in the
    int64 range pass."""
    arr = np.asarray(values)
    if arr.shape != (length,):
        raise ValueError(f"{name} shape {arr.shape} does not match ({length},)")
    kind = arr.dtype.kind
    whole_floats = kind == "f" and np.all((abs(arr) < 2.0**63) & (arr == np.round(arr)))
    if kind not in "iu" and not whole_floats:
        raise ValueError(f"{name} must be integers")
    return arr.astype(np.int64)


@functools.cache
def field_types(cls) -> dict[str, type]:
    """Each field of dataclass ``cls``, in order, mapped to its type hint, resolved once."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


# per setting kind, the type a value must have and its name in messages
_SETTING_KINDS = {bool: (bool, "a boolean"), int: (numbers.Integral, "an integer"),
                  float: (numbers.Real, "a number"), list: (list, "a list of numbers")}


def check_setting(value, name: str, kind: type):
    """The rule of every setting, returning ``value`` as ``kind``: a bool; an
    integer, not a bool; a finite real number, not a bool, as a float (an
    integer beyond the float range is not finite); or a list of such floats."""
    accepted, noun = _SETTING_KINDS[kind]
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    if kind is list:
        return [check_setting(v, f"each entry of {name}", float) for v in value]
    if kind is not float:
        return kind(value)
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{name} must be finite, got {value!r}")


def check_fields(obj) -> None:
    """Replace every field of frozen dataclass ``obj`` by its ``check_setting`` value."""
    for name, kind in field_types(type(obj)).items():
        object.__setattr__(obj, name, check_setting(getattr(obj, name), name, kind))


def check_alpha(alpha) -> float:
    """The alpha check of every entry point: a setting float in [0, 1]."""
    alpha = check_setting(alpha, "alpha", float)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return alpha


def check_capacities(caps, n: int, m: int) -> np.ndarray:
    """The capacity check of every entry point: m nonnegative integers that
    hold the n users. Zero capacities pass; ``Dataset`` alone requires >= 1."""
    arr = _integer_vector(caps, "capacities", m)
    if (arr < 0).any():
        raise ValueError("capacities must be nonnegative")
    total = int(arr.sum())
    if total < n:
        raise ValueError(f"infeasible: total capacity {total} < {n} users")
    return arr


def check_matching(assign, caps, n: int) -> np.ndarray:
    """Validate a hard assignment of n users against checked item capacities."""
    arr = _integer_vector(assign, "matching", n)
    m = len(caps)
    if np.any(arr < 0) or np.any(arr >= m):
        raise ValueError("matching contains an out-of-range item index")
    counts = np.bincount(arr, minlength=m)
    if np.any(counts > caps):
        bad = int(np.argmax(counts > caps))
        raise ValueError(f"item {bad} receives {counts[bad]} users, capacity is {caps[bad]}")
    return arr


def matching_matrix(assign, m: int) -> np.ndarray:
    """0/1 matrix representation of a hard assignment (n x m)."""
    assign = np.asarray(assign, dtype=np.int64)
    out = np.zeros((len(assign), m))
    out[np.arange(len(assign)), assign] = 1.0
    return out


@dataclass(frozen=True)
class AffinityParams:
    """Trade-off and regularization knobs shared by scoring and transport."""

    alpha: float
    epsilon: float

    def __post_init__(self):
        check_fields(self)
        check_alpha(self.alpha)
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class Dataset:
    """An observed allocation problem: inputs plus the optimal hard matching.

    ``items_truth`` holds the generating item embeddings when known (synthetic
    data); real observations carry None.
    """

    users: np.ndarray
    distances: np.ndarray
    capacities: np.ndarray
    matching: np.ndarray
    alpha: float
    seed: int
    items_truth: np.ndarray | None = None

    def __post_init__(self):
        users = as_matrix(self.users, "users")
        n, d = users.shape
        distances = as_matrix(self.distances, "distances", (n, None))
        m = distances.shape[1]
        if np.any(distances < 0):
            raise ValueError("distances must be nonnegative")
        caps = check_capacities(self.capacities, n, m)
        if np.any(caps < 1):
            raise ValueError("every capacity must be at least 1")
        matching = check_matching(self.matching, caps, n)
        alpha = check_alpha(self.alpha)
        seed = int(_integer_vector([self.seed], "seed", 1)[0])
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "matching", matching)
        if self.items_truth is not None:
            truth = as_matrix(self.items_truth, "items_truth", (m, d))
            object.__setattr__(self, "items_truth", truth)

    @property
    def n_users(self) -> int:
        return self.users.shape[0]

    @property
    def n_items(self) -> int:
        return self.distances.shape[1]

    @property
    def dim(self) -> int:
        return self.users.shape[1]


def compute_affinity(users, items, distances, alpha: float) -> np.ndarray:
    """Affinity matrix (1 - alpha) * U V^T - alpha * D, shape (n, m)."""
    return (1.0 - alpha) * (users @ items.T) - alpha * distances
