#!/usr/bin/env python3
"""Print a digest of ``round_coupling``'s matching on a seeded family of LAPs.

The family holds two parts. ``RANDOM`` seeded random instances of up to 200
users on up to 14 items whose row argmax leaves excess, so the clearing and
the rounds run: continuous, integer-tied and decimal scores (multiples of
0.25) at scales from 1e-3 to 1e8, tight and slack capacities, and items of
capacity 0. Then, at each (n, m) of ``SIZES``, the generation LAP of
``generate_dataset`` for ``SEEDS`` seeds and, for each, the 10-iteration
Sinkhorn plans of random items at two epsilons, the plans an early
training epoch rounds. Each line holds the instance and the
first 16 hex digits of the sha256 of the matching's bytes: two trees whose
LAPs differ in any user's item print different lines.

    python3 scripts/lap_digests.py [SRC]

SRC is a ``src`` directory holding ``simca``, by default that of the
checkout holding this script; the script fails, printing no line, unless
the ``simca`` it imports lies under SRC. ``scripts/compare_trees.sh`` runs
it on two checkouts and compares their 10,072 lines. It uses numpy and
simca only and takes about 12 s.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

RANDOM = 10000
SIZES = ((1000, 3), (3000, 3), (300, 10), (3000, 10), (1000, 30), (3000, 30))
SEEDS = 4
EPSILONS = (0.1, 0.5)


def digest(matching) -> str:
    return hashlib.sha256(np.ascontiguousarray(matching, dtype=np.int64).tobytes()).hexdigest()[:16]


def random_instance(seed: int):
    """Scores and capacities whose row argmax puts some items over capacity."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 201))
    m = int(rng.integers(2, min(n, 14) + 1))
    kind = ("continuous", "integer", "decimal")[seed % 3]
    over = rng.choice(m, size=int(rng.integers(1, m)), replace=False)
    if kind == "continuous":
        M = rng.normal(size=(n, m))
    else:
        M = rng.integers(-8, 9, size=(n, m)) / (4.0 if kind == "decimal" else 1.0)
    M[:, over] += rng.integers(1, 3, size=len(over))
    M *= 10.0 ** rng.uniform(-3, 8)
    counts = np.bincount(M.argmax(axis=1), minlength=m)
    caps = counts - rng.integers(0, counts + 1)  # over capacity, some at 0
    caps[rng.random(m) < 0.1] = 0
    full = counts.argmax()
    caps[full] = min(caps[full], counts[full] - 1)  # at least one item over
    others = np.delete(np.arange(m), full)
    caps[rng.choice(others)] += n - caps.sum()  # tight
    if seed % 2:
        caps[rng.choice(others)] += int(rng.integers(1, 4))  # slack
    return kind, M, caps.astype(np.int64)


def digest_lines(random=RANDOM, sizes=SIZES, seeds=SEEDS, epsilons=EPSILONS) -> list[str]:
    """One line per instance, from this process's simca."""
    from simca.assignment import round_coupling
    from simca.datagen import GenConfig, generate_dataset
    from simca.model import compute_affinity
    from simca.sinkhorn import extend_with_slack, solve_ot

    lines = []
    for seed in range(random):
        kind, M, caps = random_instance(seed)
        lines.append(f"random seed={seed} {kind} n={len(M)} m={len(caps)} "
                     f"{digest(round_coupling(M, caps))}")
    for n, m in sizes:
        for seed in range(seeds):
            ds = generate_dataset(GenConfig(n=n, m=m, seed=seed))
            lines.append(f"generation n={n} m={m} seed={seed} {digest(ds.matching)}")
            items = np.random.default_rng(seed).normal(size=ds.items_truth.shape)
            affinity = compute_affinity(ds.users, items, ds.distances, ds.alpha)
            for eps in epsilons:
                plan = solve_ot(extend_with_slack(affinity, ds.capacities, eps), iterations=10)
                lines.append(f"plan n={n} m={m} seed={seed} eps={eps!r} "
                             f"{digest(round_coupling(plan.user_coupling, ds.capacities))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?", default=Path(__file__).resolve().parents[1] / "src",
                        help="a src directory holding simca (default: this checkout's)")
    src = Path(parser.parse_args(argv).src).resolve()
    sys.path.insert(0, str(src))
    import simca
    if not Path(simca.__file__).resolve().is_relative_to(src):
        sys.exit(f"no simca under {src}: imported {simca.__file__}")
    print("\n".join(digest_lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
