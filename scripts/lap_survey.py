#!/usr/bin/env python3
"""Time the LAP of generated instances on both of its paths and compare them.

For each generated instance (the exact assignment that ``generate_dataset``
computes), the script times ``round_coupling``, which clears over-full items
in bulk before the rounds, against the path without the clearing: the
row argmax and ``_sort_excess``, then the rounds of ``_drain_excess``. It
checks that both return the same bytes and prints one JSON document: each
instance's time ratio (clearing path over rounds path, the least of several
alternating calls each), and the median and worst ratio of every (n, m)
group and of all instances.

    python3 scripts/lap_survey.py [--seeds 12] [--repeats 11]

It uses the simca sources of the checkout that holds this script and takes
about two minutes on two cores.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from simca.assignment import _drain_excess, _sort_excess, round_coupling  # noqa: E402
from simca.datagen import GenConfig, generate_dataset  # noqa: E402
from simca.model import compute_affinity  # noqa: E402

SIZES = [(1000, 3), (3000, 3), (3000, 10), (1000, 30)]


def sorted_start(M, caps):
    """The row argmax, its item counts and its item prices after the sort."""
    assign = M.argmax(axis=1)
    counts = np.bincount(assign, minlength=len(caps))
    return assign, counts, _sort_excess(M, caps, assign, counts)


def rounds_path(M, caps):
    """The LAP without the clearing: the sort, then the rounds."""
    assign, counts, prices = sorted_start(M, caps)
    if np.any(counts > caps):
        assign = _drain_excess(M, caps.tolist(), assign, counts.tolist(), prices)
    return assign


def timed(solve, M, caps):
    start = time.perf_counter()
    matching = solve(M, caps)
    return time.perf_counter() - start, matching


def survey(seeds: int, repeats: int) -> dict:
    rows = []
    for n, m in SIZES:
        for seed in range(seeds):
            ds = generate_dataset(GenConfig(n=n, m=m, seed=seed))
            M = compute_affinity(ds.users, ds.items_truth, ds.distances, ds.alpha)
            caps = ds.capacities
            _, counts, _ = sorted_start(M, caps)
            times = {"clearing": [], "rounds": []}
            matchings = {}
            for r in range(repeats):
                pair = ("clearing", "rounds") if r % 2 == 0 else ("rounds", "clearing")
                for name in pair:
                    t, matchings[name] = timed(
                        round_coupling if name == "clearing" else rounds_path, M, caps)
                    times[name].append(t)
            rows.append({
                "n": n, "m": m, "seed": seed,
                "excess_after_sort": int(np.maximum(counts - caps, 0).sum()),
                "same_bytes": matchings["clearing"].tobytes() == matchings["rounds"].tobytes(),
                "rounds_ms": round(min(times["rounds"]) * 1e3, 3),
                "clearing_ms": round(min(times["clearing"]) * 1e3, 3),
                "ratio": round(min(times["clearing"]) / min(times["rounds"]), 3),
            })

    def summary(group):
        ratios = [row["ratio"] for row in group]
        return {"instances": len(group), "median_ratio": statistics.median(ratios),
                "worst_ratio": max(ratios), "all_same_bytes": all(r["same_bytes"] for r in group)}

    groups = {f"n={n},m={m}": summary([r for r in rows if (r["n"], r["m"]) == (n, m)])
              for n, m in SIZES}
    return {"instances": rows, "groups": groups, "all": summary(rows)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=12, help="generator seeds 0..N-1")
    parser.add_argument("--repeats", type=int, default=11, help="alternating calls per path")
    args = parser.parse_args(argv)
    result = survey(args.seeds, args.repeats)
    print(json.dumps(result, indent=1))
    return 0 if result["all"]["all_same_bytes"] else 1


if __name__ == "__main__":
    sys.exit(main())
