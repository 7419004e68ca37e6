#!/usr/bin/env python3
"""Print ``evaluate``'s report on a grid of 48 cells, one line per cell.

The cells cover four instances, (n, m, generator seed) in (300, 3, 7),
(300, 3, 8), (200, 10, 3) and (1000, 30, 7); the items of two trains of
each (seeds 0 and 4, 100 epochs at the default settings); and six
epsilons from 0.1 down to 1e-4, so the tolerance solve runs both from
zero and from the LAP's sorted prices (``simca.metrics.PRICE_START_BELOW``)
and takes from a few Newton steps to dozens. Each line holds the cell,
``f1_micro``, ``cross_entropy`` as ``float.hex``, the Newton steps and
``converged``: two trees whose solves differ in any bit of the potentials
that reaches the loss print different lines. The committed hashes of
``scripts/output_sha256.sh`` cover only evaluates at epsilon >= 0.05.

    python3 scripts/evaluate_grid.py [--tree LABEL=SRC ...]

``--tree`` names a ``src`` directory holding ``simca`` (by default that of
the checkout holding this script). Each tree runs in a fresh process. With
one tree the script prints its 48 lines; with several it prints each tree's
lines under a ``== LABEL`` heading and exits 1 unless all trees print the
same lines. It uses numpy and simca only and takes a few seconds per tree.
"""
from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

INSTANCES = ((300, 3, 7), (300, 3, 8), (200, 10, 3), (1000, 30, 7))
TRAIN_SEEDS, EPOCHS = (0, 4), 100
EPSILONS = (0.1, 0.01, 0.004, 0.002, 1e-3, 1e-4)


def grid_lines(instances=INSTANCES, train_seeds=TRAIN_SEEDS, epochs=EPOCHS,
               epsilons=EPSILONS) -> list[str]:
    """One line per cell, from this process's simca."""
    from simca.datagen import GenConfig, generate_dataset
    from simca.metrics import evaluate
    from simca.model import AffinityParams
    from simca.training import TrainConfig, train

    lines = []
    for n, m, gen_seed in instances:
        ds = generate_dataset(GenConfig(n=n, m=m, seed=gen_seed))
        for seed in train_seeds:
            items = train(ds, TrainConfig(seed=seed, epochs=epochs, eval_every=max(1, epochs))).items
            for eps in epsilons:
                report = evaluate(ds, items, AffinityParams(alpha=ds.alpha, epsilon=eps))
                lines.append(f"n={n} m={m} gen_seed={gen_seed} train_seed={seed} eps={eps!r} "
                             f"f1_micro={report.f1_micro!r} "
                             f"cross_entropy={report.cross_entropy.hex()} "
                             f"steps={report.sinkhorn_iterations} converged={report.converged}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a src directory holding simca, under a label (repeatable)")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path.insert(0, args.worker)
        print("\n".join(grid_lines()))
        return 0
    default = str(Path(__file__).resolve().parents[1] / "src")
    trees = dict(tree.split("=", 1) for tree in args.tree or [f"this={default}"])
    outputs = {}
    for label, src in trees.items():
        cmd = [sys.executable, __file__, "--worker", str(Path(src).resolve())]
        outputs[label] = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    if len(outputs) == 1:
        print(next(iter(outputs.values())), end="")
        return 0
    for label, out in outputs.items():
        print(f"== {label}\n{out}", end="")
    return 0 if len(set(outputs.values())) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
