"""Synthetic benchmark generation.

Latent features come from a Gaussian mixture projected onto the unit sphere,
with every cluster owning at least one item. Geographic positions are drawn
uniformly on a circle; the user-item distance matrix is the arc length
between positions, normalized by its grand mean. Capacities are Dirichlet
proportions of the user count, rounded by largest remainder, plus a fixed
number of extra spots per item. The ground-truth matching is the exact
capacity-constrained optimum of the resulting affinity matrix, from the
n x m transportation solver in ``simca.assignment``; it needs O(n*m) memory,
so generation scales to n = 10^4 users and beyond.

All draws come from one seeded generator per operation in a fixed order, so
a seed pins the dataset bytes exactly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assignment import solve_lap
from .model import (Dataset, NonnegInt, PositiveFloat, PositiveInt, UnitFloat, check_fields,
                    check_setting, compute_affinity)


@dataclass(frozen=True)
class GenConfig:
    n: int = 1000
    m: int = 3
    d: PositiveInt = 2
    k: int = 3
    alpha: UnitFloat = 0.3
    cluster_spread: PositiveFloat = 0.3
    dirichlet_conc: PositiveFloat = 1.0
    extra_spots_per_item: NonnegInt = 10
    seed: NonnegInt = 0

    def __post_init__(self):
        check_fields(self)
        if not 1 <= self.k <= self.m:
            raise ValueError("need m >= k >= 1")
        if self.m > self.n:
            raise ValueError("need m <= n")


def round_capacities(proportions, n: int, extra: int) -> np.ndarray:
    """Capacities from item proportions: ``proportions * n`` rounded by largest
    remainder to sum n, plus ``extra`` spots per item. Without extra spots,
    every item keeps at least one spot; that needs n >= len(proportions)."""
    targets = np.asarray(proportions, dtype=np.float64) * n
    base = np.floor(targets).astype(np.int64)
    remainders = targets - base
    deficit = n - int(base.sum())
    order = np.argsort(-remainders, kind="stable")
    base[order[:deficit]] += 1
    if extra == 0:
        # keep every item usable: a zero capacity would break the transport step
        while np.any(base == 0):
            base[int(np.argmax(base == 0))] += 1
            base[int(np.argmax(base))] -= 1
    return base + extra


def generate_dataset(cfg: GenConfig) -> Dataset:
    """Draw a full synthetic instance and its exact optimal matching."""
    rng = np.random.default_rng(cfg.seed)
    n, m, d, k = cfg.n, cfg.m, cfg.d, cfg.k

    centers = rng.normal(size=(k, d))
    user_clusters = rng.integers(0, k, size=n)
    with np.errstate(over="ignore"):  # a spread that overflows the norms fails below
        users = centers[user_clusters] + cfg.cluster_spread * rng.normal(size=(n, d))
        # first k items anchor the clusters, the rest spread uniformly
        item_clusters = np.concatenate([np.arange(k), rng.integers(0, k, size=m - k)])
        items = centers[item_clusters] + cfg.cluster_spread * rng.normal(size=(m, d))
        norms = [np.linalg.norm(x, axis=1, keepdims=True) for x in (users, items)]
    if not all(np.isfinite(norm).all() for norm in norms):
        raise ValueError(f"cluster_spread={cfg.cluster_spread:g} overflows the norms of the "
                         "drawn users and items")
    users /= norms[0]
    items /= norms[1]

    angles = rng.uniform(0.0, 2.0 * np.pi, size=n + m)
    gap = np.abs(angles[:n, None] - angles[None, n:])
    distances = np.minimum(gap, 2.0 * np.pi - gap)
    distances /= distances.mean()

    proportions = rng.dirichlet(cfg.dirichlet_conc * np.ones(m))
    caps = round_capacities(proportions, n, cfg.extra_spots_per_item)

    affinity = compute_affinity(users, items, distances, cfg.alpha)
    matching = solve_lap(affinity, caps).matching
    return Dataset(
        users=users,
        items_truth=items,
        distances=distances,
        capacities=caps,
        matching=matching,
        alpha=cfg.alpha,
    )


def apply_swap_noise(assign, rho: float, seed: int) -> np.ndarray:
    """Corrupt a matching by swapping pairs of users holding different items.

    Swapping preserves per-item counts exactly. Each swap marks both users as
    modified, so the modified fraction lands on the even count nearest
    rho * n, at most n. Partners are drawn among the not-yet-modified users;
    if none with a different item remains (all users on one item, say), the
    procedure stops early with a warning.
    """
    rho = check_setting(rho, "rho", UnitFloat)
    assign = np.asarray(assign, dtype=np.int64).copy()
    n = len(assign)
    rng = np.random.default_rng(seed)
    target = 2 * min(int(round(rho * n / 2.0)), n // 2)
    modified = np.zeros(n, dtype=bool)
    while int(modified.sum()) < target:
        unmodified = np.flatnonzero(~modified)
        u = int(rng.choice(unmodified))
        partners = unmodified[assign[unmodified] != assign[u]]
        if len(partners) == 0:
            warnings.warn(
                f"swap noise stopped at {int(modified.sum())}/{target} modified users: "
                "no partner with a different item remains"
            )
            break
        v = int(rng.choice(partners))
        assign[u], assign[v] = assign[v], assign[u]
        modified[u] = modified[v] = True
    return assign


def apply_gaussian_noise(embeddings, rho: float, seed: int) -> np.ndarray:
    """Blend embeddings with fresh standard normal noise:
    sqrt(1 - rho^2) * X + rho * Z. Rows are not re-normalized."""
    rho = check_setting(rho, "rho", UnitFloat)
    arr = np.asarray(embeddings, dtype=np.float64)
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=arr.shape)
    return np.sqrt(1.0 - rho**2) * arr + rho * noise
