"""Domain types and the affinity model.

Users and items live in a shared latent space; their pairwise score combines
the inner product of their embeddings with an exogenous distance penalty:

    M[i, j] = (1 - alpha) * <U_i, V_j> - alpha * D[i, j]

``alpha`` in [0, 1] trades latent affinity against geographic proximity.
Matrices are plain float64 numpy arrays throughout; embedding matrices are
row-major (one row per user or item). ``Dataset`` and ``AffinityParams``
validate on construction, so ``compute_affinity`` and the other per-epoch
kernels take their inputs as given. ``check_setting`` is the one rule for a
scalar setting: every field of the config dataclasses, every CLI config key,
every swept value and every noise level goes through it by the kind its type
hint names. A kind is the setting's whole rule, its type and, for the four
bounded kinds (``PositiveFloat``, ``UnitFloat``, ``NonnegInt``,
``PositiveInt``), its range.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import reprlib
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
    """Int64 copy of a numeric vector of ``length`` integers in the int64 range;
    integer-valued floats pass, and an unsigned value from 2**63 up fails
    rather than wrap to a negative."""
    arr = np.asarray(values)
    if arr.shape != (length,):
        raise ValueError(f"{name} shape {arr.shape} does not match ({length},)")
    kind = arr.dtype.kind
    whole_ints = kind == "i" or kind == "u" and np.all(arr < 2**63)
    whole_floats = kind == "f" and np.all((abs(arr) < 2.0**63) & (arr == np.round(arr)))
    if not (whole_ints or whole_floats):
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
# the bounded kinds: a type hint that names one checks the range after the type
PositiveFloat = typing.NewType("PositiveFloat", float)
UnitFloat = typing.NewType("UnitFloat", float)
NonnegInt = typing.NewType("NonnegInt", int)
PositiveInt = typing.NewType("PositiveInt", int)
# per bounded kind, the test of its range and the phrase of a value outside it
_RANGES = {PositiveFloat: (lambda v: v > 0, "must be positive"),
           UnitFloat: (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
           NonnegInt: (lambda v: v >= 0, "must be nonnegative"),
           PositiveInt: (lambda v: v >= 1, "must be at least 1")}


def base_kind(kind) -> type:
    """The type a setting of ``kind`` must have: a bounded kind's base, else ``kind``."""
    return getattr(kind, "__supertype__", kind)


def check_setting(value, name: str, kind):
    """The rule of every setting, returning ``value`` as ``kind``'s base type: a
    bool; an integer, not a bool; a finite real number, not a bool, as a float
    (an integer beyond the float range is not finite); or a list, whose entries
    its user checks. A bounded kind then checks the value's range."""
    base = base_kind(kind)
    accepted, noun = _SETTING_KINDS[base]
    if not isinstance(value, accepted) or (base is not bool and isinstance(value, bool)):
        raise ValueError(f"{name} must be {noun}, got {reprlib.repr(value)}")
    try:
        finite = base is not float or math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {reprlib.repr(value)}")
    value = base(value)
    in_range, phrase = _RANGES.get(kind, (None, ""))
    if in_range and not in_range(value):
        raise ValueError(f"{name} {phrase}")
    return value


def check_fields(obj) -> None:
    """Replace every field of frozen dataclass ``obj`` by its ``check_setting`` value."""
    for name, kind in field_types(type(obj)).items():
        object.__setattr__(obj, name, check_setting(getattr(obj, name), name, kind))


def check_capacities(caps, n: int, m: int) -> np.ndarray:
    """The capacity check of every entry point: m nonnegative integers that
    hold the n users. Zero capacities pass; ``Dataset`` alone requires >= 1."""
    arr = _integer_vector(caps, "capacities", m)
    if (arr < 0).any():
        raise ValueError("capacities must be nonnegative")
    # Python ints: an int64 sum wraps from 2**63 on
    total = sum(arr.tolist())
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

    alpha: UnitFloat
    epsilon: PositiveFloat

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Dataset:
    """An observed allocation problem: inputs plus the optimal hard matching.

    ``items_truth`` holds the generating item embeddings when known (synthetic
    data); real observations carry None. The users are checked against the
    other arrays, so ``dataclasses.replace(dataset, users=U)`` with a ``U``
    of the wrong shape names the users.
    """

    users: np.ndarray
    distances: np.ndarray
    capacities: np.ndarray
    matching: np.ndarray
    alpha: float
    items_truth: np.ndarray | None = None

    def __post_init__(self):
        distances = as_matrix(self.distances, "distances")
        n, m = distances.shape
        truth = self.items_truth
        if truth is not None:
            truth = as_matrix(truth, "items_truth", (m, None))
        users = as_matrix(self.users, "users", (n, None if truth is None else truth.shape[1]))
        if np.any(distances < 0):
            raise ValueError("distances must be nonnegative")
        caps = check_capacities(self.capacities, n, m)
        if np.any(caps < 1):
            raise ValueError("every capacity must be at least 1")
        matching = check_matching(self.matching, caps, n)
        object.__setattr__(self, "alpha", check_setting(self.alpha, "alpha", UnitFloat))
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "matching", matching)
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
