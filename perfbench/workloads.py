"""One simca benchmark workload, run in a process of its own by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs on a fixed instance, the reference instance of the
acceptance tests (generator seed 7) or its n=3000 version, with fixed
training seeds. The benchmark seed draws the order of the users. The cost
of the LAP and of Sinkhorn to tolerance depends strongly on the instance,
so a seed that redrew the instance would bury any change to one layer in
the spread between seeds; relabelling the users gives every seed different
inputs while the problem, and so the work and the results, stay the same.

Set-up (generation and the training that evaluate needs) runs at least three
times, and for at least a second, and its median is ``setup_s``. Then rounds
run on the same inputs until ``--seconds`` have passed: one round is one
sweep, one train and evaluate, or one pass of evaluates. With ``--trace 1``
every other round, starting with the first, records layer spans, and at least
three rounds run, so that counts can be compared between two traced rounds.

Prints a report and, as its last line, a JSON object: the result, and the
details run.py writes to the run manifest.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

import simca.cli  # noqa: E402
from simca.bundle import save_dataset  # noqa: E402
from simca.datagen import GenConfig, generate_dataset  # noqa: E402
from simca.metrics import evaluate  # noqa: E402
from simca.model import AffinityParams  # noqa: E402
from simca.training import TrainConfig, train  # noqa: E402

from tracing import COUNTS, LAYER_EFFECTS, Tracer, count_record, layer_figures  # noqa: E402

REFERENCE_GEN = GenConfig(n=300, m=3, d=2, k=3, alpha=0.3, seed=7)
LARGE_GEN = dataclasses.replace(REFERENCE_GEN, n=3000)
DESK_TRAIN = dict(epsilon=0.1, alpha=0.3, sinkhorn_iters=10, learning_rate=0.01, epochs=400)
# Criterion 7's epsilon grid plus one point of each noise model. Training at
# epsilon <= 0.002 stays out: it raises "coupling vanishes on a matched pair"
# at epoch 0, a fast failure that a fix would turn into a slow run.
SWEEP_GRID = {"epsilon_values": [0.05, 0.1, 0.5, 1.0, 2.0], "gauss_rho_values": [0.2],
              "swap_rho_values": [0.1], "repeats": 1, "seed": 0}
LARGE_TRAIN = TrainConfig(**{**DESK_TRAIN, "epochs": 5}, seed=0)
EVAL_TRAIN_SEEDS = (0, 1, 2, 3, 4)
EVAL_EPSILONS = (0.1, 0.01, 0.002)

SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 1.0
OP_NAMES = ("cli.sweep_cell", "training.train", "metrics.evaluate")


def relabel_users(dataset, seed: int):
    """The same instance with its users in an order drawn from ``seed``."""
    order = np.random.default_rng(seed).permutation(dataset.n_users)
    return dataclasses.replace(
        dataset,
        users=dataset.users[order],
        distances=dataset.distances[order],
        matching=dataset.matching[order],
    )


# ---- output checks: each returns the operation's figures, with "error" set
# when the output is wrong, and a fingerprint for comparing rounds

def check_train(result, dataset, config) -> dict:
    items = np.asarray(result.items)
    info = {"epochs": len(result.history), "fingerprint": items.tobytes()}
    if items.shape != (dataset.n_items, dataset.dim):
        info["error"] = f"learned items have shape {items.shape}"
    elif not np.isfinite(items).all():
        info["error"] = "learned items are not finite"
    elif len(result.history) != config.epochs:
        info["error"] = f"{len(result.history)} history rows for {config.epochs} epochs"
    return info


def check_evaluate(report, dataset, items_hat, params, users_eval=None) -> dict:
    values = [report.f1_micro, report.f1_macro, report.cross_entropy, *report.per_item_f1,
              math.nan if report.mean_embed_dist is None else report.mean_embed_dist]
    info = {"f1": report.f1_micro, "dist": values[-1], "fingerprint": repr(values)}
    if not np.isfinite(values).all():
        info["error"] = f"evaluate returned non-finite numbers {values}"
    return info


def check_sweep_cell(row, *args) -> dict:
    info = {"fingerprint": repr(row)}
    if row.error:
        info["error"] = row.error
    return info


# ---- workloads: set-up builds the inputs and returns the round

def desk_sweep(seed: int, workdir: Path, tracer: Tracer):
    dataset = relabel_users(tracer.call("datagen.generate", generate_dataset, REFERENCE_GEN), seed)
    bundle = workdir / "bundle"
    tracer.call("bundle.save", save_dataset, dataset, bundle, gen_config=REFERENCE_GEN)
    config = simca.cli.validate_config({**DESK_TRAIN, **SWEEP_GRID})

    def one_round():
        tracer.call("cli.run_sweep", simca.cli.run_sweep, bundle, config, workdir / "sweep",
                    jobs=1, quiet=True)
    return one_round


def large_train(seed: int, workdir: Path, tracer: Tracer):
    dataset = relabel_users(tracer.call("datagen.generate", generate_dataset, LARGE_GEN), seed)
    params = AffinityParams(alpha=LARGE_TRAIN.alpha, epsilon=LARGE_TRAIN.epsilon)

    def one_round():
        result = tracer.attempt("training.train", train, dataset, LARGE_TRAIN,
                                label=f"train_seed={LARGE_TRAIN.seed}", check=check_train)
        if result is not None:
            tracer.attempt("metrics.evaluate", evaluate, dataset, result.items, params,
                           label=f"epsilon={params.epsilon:g}", check=check_evaluate)
    return one_round


def eval_small_eps(seed: int, workdir: Path, tracer: Tracer):
    dataset = relabel_users(tracer.call("datagen.generate", generate_dataset, REFERENCE_GEN), seed)
    item_sets = {}
    for train_seed in EVAL_TRAIN_SEEDS:
        result = tracer.attempt("training.train", train, dataset,
                                TrainConfig(**DESK_TRAIN, seed=train_seed),
                                label=f"train_seed={train_seed}", check=check_train)
        if result is not None:
            item_sets[train_seed] = result.items

    def one_round():
        for train_seed, items in item_sets.items():
            for epsilon in EVAL_EPSILONS:
                tracer.attempt("metrics.evaluate", evaluate, dataset, items,
                               AffinityParams(alpha=DESK_TRAIN["alpha"], epsilon=epsilon),
                               label=f"train_seed={train_seed} epsilon={epsilon:g}",
                               check=check_evaluate)
    return one_round


WORKLOADS = {"desk-sweep": desk_sweep, "large-train": large_train, "eval-small-eps": eval_small_eps}
SEEDS = {
    "desk-sweep": {"generator": REFERENCE_GEN.seed, "sweep_master": SWEEP_GRID["seed"]},
    "large-train": {"generator": LARGE_GEN.seed, "train": [LARGE_TRAIN.seed]},
    "eval-small-eps": {"generator": REFERENCE_GEN.seed, "train": list(EVAL_TRAIN_SEEDS)},
}


# ---- host speed calibration
#
# This host's speed drifts by up to 1.5x over seconds to minutes, with the
# load of other tenants. A fixed calibration kernel therefore runs before and
# after every set-up and round and after every operation, outside the
# operations' spans, and every end-to-end time is reported at the reference
# speed: the measured seconds, less the calibration inside them, each stretch
# between two samples times the reference kernel time over the mean of the
# two. The kernel does the kind of work the workload's time goes to:
# cache-resident numpy and LAP calls at n=300, and also memory streaming at
# n=3000, whose LAP walks a 73 MB matrix. It uses numpy and scipy, never simca.

_CAL_RNG = np.random.default_rng(12345)
CAL_LOGITS = _CAL_RNG.normal(size=(301, 3))
CAL_COST = _CAL_RNG.random((100, 110))
# 40 MB: above glibc's largest mmap threshold, so the buffer goes back to the
# system at once and never raises the peak resident memory of an operation
CAL_STREAM_DOUBLES = 5_000_000
CAL_BLOCK_S = 0.025


def compute_kernel():
    for _ in range(30):
        top = CAL_LOGITS.max(axis=1, keepdims=True)
        np.log(np.exp(CAL_LOGITS - top).sum(axis=1))
    linear_sum_assignment(CAL_COST)
    total = 0
    for i in range(10_000):
        total += i * i


def compute_and_memory_kernel():
    compute_kernel()
    stream = np.empty(CAL_STREAM_DOUBLES)
    stream.fill(1.0)
    stream.sum()


# kernel and its typical seconds on the 2-core x86-64 container the benchmark
# was defined on, per workload
CALIBRATION = {
    "desk-sweep": (compute_kernel, 0.0024),
    "large-train": (compute_and_memory_kernel, 0.0195),
    "eval-small-eps": (compute_kernel, 0.0024),
}


def calibration_sample(kernel) -> float:
    """Mean seconds of one kernel run over a block of about CAL_BLOCK_S: the
    host's speed changes within a second, so one short run samples it badly."""
    runs = 0
    start = time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= CAL_BLOCK_S:
            return elapsed / runs


def probe(tracer: Tracer, kernel):
    tracer.call("probe", calibration_sample, kernel, check=lambda kernel_s, _: {"kernel_s": kernel_s})


# ---- running and summarising

@dataclasses.dataclass
class Phase:
    """One set-up or one round: its interval and the spans it recorded."""

    start: float
    end: float
    spans: list
    traced: bool
    reference_s: float

    def __post_init__(self):
        self.probes = sorted((s for s in self.spans if s.name == "probe"), key=lambda s: s.start)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def _inside(self, start: float, end: float) -> list:
        return [p for p in self.probes if p.start >= start and p.end <= end]

    def speed(self, start: float, end: float) -> float:
        """Mean kernel time of all samples in and around [start, end], over
        the reference; above 1 when the host ran slow."""
        near = (self._inside(start, end) + [p for p in self.probes if p.end <= start][-1:]
                + [p for p in self.probes if p.start >= end][:1])
        return statistics.fmean(p.info["kernel_s"] for p in near) / self.reference_s

    def measured(self, start: float, end: float) -> float:
        """Seconds of [start, end] without the calibration samples in it."""
        return end - start - sum(p.seconds for p in self._inside(start, end))

    def calibrated(self, start: float, end: float) -> float:
        """Seconds of [start, end] without the samples in it, at the reference
        speed: each stretch between two samples is scaled by their mean."""
        total, cursor = 0.0, start
        before = [p for p in self.probes if p.end <= start][-1:]
        after = [p for p in self.probes if p.start >= end][:1]
        for p in self._inside(start, end) + after:
            bracket = before + [p]
            speed = statistics.fmean(q.info["kernel_s"] for q in bracket) / self.reference_s
            total += (min(p.start, end) - cursor) / speed
            cursor, before = p.end, [p]
        return total

    @property
    def seconds(self) -> float:
        return self.calibrated(self.start, self.end)

    def ops(self) -> list:
        """Outermost operation spans; one that failed, or holds a failed
        operation, carries ``error``."""
        for s in self.spans:
            if s.name in OP_NAMES and "error" in s.info:
                top = s
                while top.parent is not None and top.parent.name in OP_NAMES:
                    top = top.parent
                top.info.setdefault("error", s.info["error"])
        return [s for s in self.spans
                if s.name in OP_NAMES and (s.parent is None or s.parent.name not in OP_NAMES)]

    def fingerprint(self) -> list:
        return [s.info.get("fingerprint") for s in self.spans if s.name in OP_NAMES]


def run_phase(tracer: Tracer, fn, traced: bool, keep: int,
              calibration: tuple) -> tuple[Phase, object]:
    kernel, reference_s = calibration
    tracer.spans = []
    probe(tracer, kernel)
    if traced:
        tracer.wrap_layers()
    start = time.perf_counter()
    try:
        value = fn()
    except Exception:
        if not any("error" in s.info for s in tracer.spans):
            raise
        value = None
    end = time.perf_counter()
    tracer.restore(keep)
    probe(tracer, kernel)
    return Phase(start, end, tracer.spans, traced, reference_s), value


def check_f1(phases: list[Phase], reference: dict, bound: float):
    """Mark evaluates whose F1 falls below the recorded reference by more than ``bound``."""
    for phase in phases:
        for s in phase.named("metrics.evaluate"):
            ref = reference.get(s.op_label())
            if "f1" in s.info and ref is not None and s.info["f1"] < ref * (1.0 - bound):
                s.info.setdefault("error", f"F1 {s.info['f1']:.4f} below reference {ref:.4f}")


def train_rate(phase: Phase) -> float | None:
    trains = [s for s in phase.named("training.train") if "epochs" in s.info]
    seconds = sum(phase.calibrated(s.start, s.end) for s in trains)
    return sum(s.info["epochs"] for s in trains) / seconds if seconds else None


def mean_evaluate(phase: Phase) -> float | None:
    # the mean call of a round, not the median: a round mixes epsilons whose
    # calls differ 100-fold in cost, and a median would stand for one of them
    evals = phase.named("metrics.evaluate")
    return statistics.fmean(phase.calibrated(s.start, s.end) for s in evals) if evals else None


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


def end_to_end(setups: list[Phase], rounds: list[Phase]) -> dict[str, float]:
    rates = [train_rate(r) for r in rounds]
    if all(rate is None for rate in rates):  # eval-small-eps trains only in set-up
        rates = [train_rate(p) for p in setups]
    first = [s.info for s in rounds[0].named("metrics.evaluate") if "f1" in s.info]
    return {
        "setup_s": median_of(p.seconds for p in setups),
        "wall_s": median_of(r.seconds for r in rounds),
        "train_epochs_per_s": median_of(rates),
        "evaluate_s": median_of(map(mean_evaluate, rounds)),
        "f1_micro": statistics.fmean(i["f1"] for i in first) if first else math.nan,
        "embed_dist": statistics.fmean(i["dist"] for i in first) if first else math.nan,
    }


def per_layer(setups: list[Phase], rounds: list[Phase]) -> tuple[dict, list[dict]]:
    """Median figures of the traced rounds, and the count record of each."""
    traced = [layer_figures(r.spans) for r in rounds if r.traced]
    figures = {k: traced[0][k] if k in COUNTS else statistics.median(f[k] for f in traced)
               for k in traced[0]}
    lap = [sum(s.seconds for s in p.named("assignment.solve_lap")) for p in setups]
    figures["datagen.generate_s"] = statistics.median(
        sum(s.seconds for s in p.named("datagen.generate")) for p in setups)
    figures["datagen.lap_s"] = statistics.median(lap)
    figures["trace.overhead_s"] = (statistics.median(r.seconds for r in rounds if r.traced)
                                   - statistics.median(r.seconds for r in rounds if not r.traced))
    return figures, [count_record(r.spans) for r in rounds if r.traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    runs_dir = BENCH_DIR / "runs"
    runs_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
    calibration = CALIBRATION[args.workload]
    tracer = Tracer(OP_NAMES,
                    between_ops=lambda: probe(tracer, calibration[0]))
    for _ in range(3):  # warm the kernel up before any sample counts
        calibration_sample(calibration[0])
    # operations inside a sweep are reached through the names cli bound
    tracer.wrap(simca.cli, "run_sweep_point", "cli.sweep_cell",
                label=lambda dataset, cfg, param, gi, value, *rest: f"{param}={value:g}",
                check=check_sweep_cell)
    tracer.wrap(simca.cli, "train", "training.train", check=check_train)
    tracer.wrap(simca.cli, "evaluate", "metrics.evaluate", check=check_evaluate)
    keep = tracer.wrapped
    try:
        setups: list[Phase] = []
        started = time.perf_counter()
        while len(setups) < SETUP_MIN_RUNS or time.perf_counter() - started < SETUP_MIN_SECONDS:
            phase, one_round = run_phase(
                tracer, lambda: WORKLOADS[args.workload](args.seed, workdir, tracer),
                args.trace == 1, keep, calibration)
            setups.append(phase)
        rounds: list[Phase] = []
        started = time.perf_counter()
        while (time.perf_counter() - started < args.seconds
               or len(rounds) < (3 if args.trace else 1)):
            traced = args.trace == 1 and len(rounds) % 2 == 0
            rounds.append(run_phase(tracer, one_round, traced, keep, calibration)[0])
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check_f1(setups + rounds, reference["f1_micro"][args.workload], bounds["f1_micro"])
    ops = [s for p in setups + rounds for s in p.ops()]
    errors = sorted({s.info["error"] for s in ops if "error" in s.info})
    repeat_outputs = all(p.fingerprint() == setups[0].fingerprint() for p in setups) and \
        all(r.fingerprint() == rounds[0].fingerprint() for r in rounds)
    details = {
        "seeds": {"benchmark": args.seed, **SEEDS[args.workload]},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "setup_measured_s": [p.measured(p.start, p.end) for p in setups],
        "setup_speed": [p.speed(p.start, p.end) for p in setups],
        "round_measured_s": [r.measured(r.start, r.end) for r in rounds],
        "round_speed": [r.speed(r.start, r.end) for r in rounds],
        "traced_rounds": [r.traced for r in rounds],
        "outputs_repeat": repeat_outputs,
        "errors": errors,
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(setups)} set-ups, "
          f"{len(rounds)} rounds ({sum(r.traced for r in rounds)} traced); host ran at "
          f"{1 / median_of(details['round_speed']):.2f}x the calibration reference speed")
    if args.trace:
        figures, records = per_layer(setups, rounds)
        counts_repeat = all(r == records[0] for r in records)
        recorded = reference["counts"].get(args.workload, {}).get(str(args.seed))
        matches = "no record" if recorded is None else recorded == records[0]
        details.update(counts=records[0], counts_repeat=counts_repeat, counts_match_record=matches)
        specs = spec["per_layer"]
        by_layer: dict[str, list] = {}
        for m in specs:
            by_layer.setdefault(m["name"].split(".")[0], []).append(m)
        for layer, layer_specs in by_layer.items():
            print(f"  {layer}: moves {LAYER_EFFECTS[layer]}")
            for m in layer_specs:
                print(f"    {m['name']:<26} {figures[m['name']]:>14.6g} {m['unit']}")
        print(f"  tracing overhead: {figures['trace.overhead_s']:+.4f} s per round "
              f"(traced minus untraced wall_s)")
        print(f"  counts repeat between traced rounds: {counts_repeat}; "
              f"match the record for seed {args.seed}: {matches}")
        for row in records[0]["iters_to_tol"]:
            print(f"  iters_to_tol {row['op']:<28} eps {row['epsilon']:<6g} {row['iters']:>6} "
                  f"{'' if row['converged'] else 'UNCONVERGED (hit the cap)'}")
        correct = counts_repeat
    else:
        figures = end_to_end(setups, rounds)
        details["f1_by_op"] = {s.op_label(): s.info["f1"]
                               for s in rounds[0].named("metrics.evaluate") if "f1" in s.info}
        specs = spec["end_to_end"]
        for m in specs:
            if m["name"] in figures:
                print(f"  {m['name']:<20} {figures[m['name']]:>12.6g} {m['unit']}")
        correct = True
    failed = sum("error" in s.info for s in ops)
    print(f"  {'failed_frac':<20} {failed / len(ops):>12.6g} ({failed} of {len(ops)} operations)")
    for error in errors:
        print(f"  error: {error}")
    correct = correct and failed == 0 and repeat_outputs
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in specs if m["name"] in figures}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics, "details": details}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
