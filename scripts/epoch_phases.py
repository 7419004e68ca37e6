#!/usr/bin/env python3
"""Time each phase of a scored training epoch, in microseconds per call.

The phases are the calls one epoch of ``simca.training.train`` makes with
``eval_every = 1``: the affinity, ``extend_with_slack``, the fixed-budget
``solve_ot`` (10 iterations), the loss, the item gradient, the LAP
rounding, ``f1_scores``, ``mean_embedding_distance`` and the Adam step.
``sinkhorn_iteration`` is the share of one Sinkhorn iteration: the time of
a 50-iteration solve less that of a 10-iteration one, over 40, so the
per-solve set-up and the plan cancel. ``epoch`` is a whole ``train`` with
``eval_every = 1`` divided by its epochs.

The Newton rows time ``evaluate``'s solve, ``solve_ot`` to tolerance 1e-10
from zero, at epsilon 0.1 and 0.01 on the same affinity:
``tol_solve_eps<E>`` is the whole solve, and ``newton_step_eps<E>`` the
share of one Newton step, the solve less one capped at a single step
(``simca.sinkhorn.MAX_NEWTON_STEPS = 1``), over the steps past the first,
so the set-up and the first iterate cancel. ``newton_steps_eps<E>`` is the
solve's step count, not a time.

Both sizes, n=300 and n=3000, run on the generator's reference instance
(m=3, d=2, k=3, alpha=0.3, generator seed 7) at epsilon 0.1, with the
items of a 50-epoch train (seed 0), so the plan and the potentials are
those of a training run and the solve starts warm. Every phase is called ``--calls`` times at n=300
(a tenth as often at n=3000), and the best of ``--best`` such timings
counts; ``epoch`` trains for ``--calls``/5 epochs at n=300, best of
``--best`` - 2, and the Newton rows call their solves ``--calls``/5 times
at n=300. Each tree runs in ``--processes`` fresh processes,
alternating between the trees, and a phase's figure is the least over its
processes. On a host whose speed drifts between processes, a difference of
a few percent in one row is within that drift.

    python3 scripts/epoch_phases.py [--tree LABEL=SRC ...] [--processes 3]
                                    [--calls 1000] [--best 9]

``--tree`` names a ``src`` directory holding ``simca`` (by default that of
the checkout holding this script); give it twice to compare two trees. The
script prints one JSON document, µs per call by size, tree and phase. It
uses numpy and simca only; the defaults take about a minute per tree on
two cores.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

SIZES = (300, 3000)
REFERENCE = dict(m=3, d=2, k=3, alpha=0.3, seed=7)
EPSILON, ITERATIONS, WARM_EPOCHS = 0.1, 10, 50
NEWTON_EPSILONS, NEWTON_TOL = (0.1, 0.01), 1e-10


def best_us(call, calls: int, best: int) -> float:
    """The least time of ``best`` runs of ``calls`` calls, in µs per call."""
    times = []
    for _ in range(best):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        times.append(time.perf_counter() - start)
    return round(min(times) / calls * 1e6, 2)


def phases(n: int, calls: int, best: int) -> dict[str, float]:
    """µs per call of every phase at size ``n``, in this process's simca."""
    from simca.assignment import round_coupling
    from simca.datagen import GenConfig, generate_dataset
    from simca.metrics import f1_scores, mean_embedding_distance
    from simca.model import compute_affinity
    from simca.sinkhorn import extend_with_slack, matched_cross_entropy, solve_ot
    from simca.training import AdamState, TrainConfig, adam_step, loss_gradient_items, train

    ds = generate_dataset(GenConfig(n=n, **REFERENCE))
    lr = TrainConfig().learning_rate
    warm = train(ds, TrainConfig(epsilon=EPSILON, epochs=WARM_EPOCHS, eval_every=WARM_EPOCHS))
    items, users, sigma, caps = warm.items, ds.users, ds.matching, ds.capacities
    affinity = compute_affinity(users, items, ds.distances, ds.alpha)
    inst = extend_with_slack(affinity, caps, EPSILON)
    log_b = solve_ot(inst, iterations=ITERATIONS).log_b
    result = solve_ot(inst, iterations=ITERATIONS, log_b_init=log_b)
    pi = result.user_coupling
    grad = loss_gradient_items(users, sigma, pi, ds.alpha, EPSILON)
    predicted = round_coupling(pi, caps)
    state = adam_step(items, grad, AdamState.zeros(items.shape), lr)[1]

    def solve(iterations):
        return lambda: solve_ot(inst, iterations=iterations, log_b_init=log_b)

    timed = {
        "affinity": lambda: compute_affinity(users, items, ds.distances, ds.alpha),
        "extend_with_slack": lambda: extend_with_slack(affinity, caps, EPSILON),
        "solve_ot": solve(ITERATIONS),
        "loss": lambda: matched_cross_entropy(inst, result, sigma),
        "gradient": lambda: loss_gradient_items(users, sigma, pi, ds.alpha, EPSILON),
        "lap": lambda: round_coupling(pi, caps),
        "f1_scores": lambda: f1_scores(sigma, predicted, ds.n_items),
        "embed_dist": lambda: mean_embedding_distance(items, ds.items_truth),
        "adam": lambda: adam_step(items, grad, state, lr),
    }
    out = {name: best_us(call, calls, best) for name, call in timed.items()}
    longer = best_us(solve(5 * ITERATIONS), calls, best)
    out["sinkhorn_iteration"] = round((longer - out["solve_ot"]) / (4 * ITERATIONS), 2)
    epochs = max(1, calls // 5)
    whole = TrainConfig(epsilon=EPSILON, sinkhorn_iters=ITERATIONS, epochs=epochs, eval_every=1)
    out["epoch"] = round(best_us(lambda: train(ds, whole), 1, max(1, best - 2)) / epochs, 2)
    out.update(newton_phases(affinity, caps, max(1, calls // 5), best))
    return out


def newton_phases(affinity, caps, calls: int, best: int) -> dict[str, float]:
    """µs per tolerance solve and per Newton step at each of ``NEWTON_EPSILONS``."""
    import simca.sinkhorn
    from simca.sinkhorn import extend_with_slack, solve_ot

    out = {}
    for eps in NEWTON_EPSILONS:
        inst = extend_with_slack(affinity, caps, eps)
        steps = solve_ot(inst, tol=NEWTON_TOL).iterations
        solve = best_us(lambda: solve_ot(inst, tol=NEWTON_TOL), calls, best)
        cap = simca.sinkhorn.MAX_NEWTON_STEPS
        simca.sinkhorn.MAX_NEWTON_STEPS = 1
        try:
            first = best_us(lambda: solve_ot(inst, tol=NEWTON_TOL), calls, best)
        finally:
            simca.sinkhorn.MAX_NEWTON_STEPS = cap
        out[f"tol_solve_eps{eps}"] = solve
        out[f"newton_step_eps{eps}"] = round((solve - first) / max(1, steps - 1), 2)
        out[f"newton_steps_eps{eps}"] = steps
    return out


def worker(src: str, calls: int, best: int) -> dict:
    sys.path.insert(0, src)
    return {str(n): phases(n, max(1, calls * 300 // n), best) for n in SIZES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC",
                        help="a src directory holding simca, under a label (repeatable)")
    parser.add_argument("--processes", type=int, default=3, help="fresh processes per tree")
    parser.add_argument("--calls", type=int, default=1000, help="calls per timing at n=300")
    parser.add_argument("--best", type=int, default=9, help="timings per phase, the least counts")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, args.calls, args.best)))
        return 0
    default = str(Path(__file__).resolve().parents[1] / "src")
    trees = dict(tree.split("=", 1) for tree in args.tree or [f"this={default}"])
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    for p in range(args.processes):
        # alternate which tree runs first, so a drift in host speed hits both
        order = list(trees.items()) if p % 2 == 0 else list(trees.items())[::-1]
        for label, src in order:
            cmd = [sys.executable, __file__, "--worker", str(Path(src).resolve()),
                   "--calls", str(args.calls), "--best", str(args.best)]
            runs[label].append(json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                                         text=True).stdout))
    table = {
        f"n={n}": {label: {phase: min(run[str(n)][phase] for run in runs[label])
                           for phase in runs[label][0][str(n)]}
                   for label in trees}
        for n in SIZES
    }
    print(json.dumps({"us_per_call": table, "processes": args.processes, "calls_at_300": args.calls,
                      "best": args.best}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
