"""Command-line harness: generate, train, evaluate, sweep, plot.

Configs are flat JSON. Their keys are the fields of ``GenConfig`` and
``TrainConfig`` plus the noise and sweep keys below; unknown keys are rejected
so a typo in a hyperparameter never passes silently. Each key has one kind,
its field's type hint or its entry in ``_CLI_KEYS``, which is its whole rule.
``validate_config`` checks every key's type and range by its kind before any
command runs, the generator keys too, so ``train``, ``evaluate`` and ``sweep``
reject a value ``generate`` would; each entry of a grid ``<param>_values``
obeys the kind of the key ``param`` it replaces, and ``--jobs`` is a
``PositiveInt``. A sweep's error rows hold only failures at run time. The
seed's range is left out: the run it seeds checks it, so a sweep's master
seed, which only feeds ``derive_seed``, may be negative. Training and scoring
use the bundle's alpha unless the config sets one, and a run is scored with
the users it trained on. A sweep cell is a train run with one key set: the
swept value replaces that key and every other noise level is zero. Sweep runs
derive their seeds by hashing (master seed, grid point, repeat), which makes
them reproducible and safe to execute in parallel. A cell's history is never
written, so a cell overrides ``eval_every`` as it overrides ``seed``: it
scores only its first and last epoch.

A config error is the ``ValueError`` its check raises, whose message names
the key; ``main`` prints it as it stands. Exit codes: 0 success, 1 validation
error (a ``ValueError``, or a missing file), 2 runtime/IO error, 3 partial
sweep failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import reprlib
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .bundle import (
    SweepRow,
    load_dataset,
    load_history,
    load_sweep,
    read_json,
    save_dataset,
    save_eval_report,
    save_history,
    save_sweep,
    write_matrix_csv,
    read_matrix_csv,
)
from .datagen import GenConfig, apply_gaussian_noise, apply_swap_noise, generate_dataset
from .metrics import evaluate
from .model import (AffinityParams, Dataset, PositiveInt, UnitFloat, base_kind, check_setting,
                    field_types)
from .plots import render_sweep_chart, render_training_chart
from .training import TrainConfig, train


# the swept keys; each one's grid is the config key f"{param}_values"
_SWEEP_PARAMS = ("epsilon", "gauss_rho", "swap_rho")
# the keys that are not dataclass fields, always filled: each one's kind and default
_CLI_KEYS = {"swap_rho": (UnitFloat, 0.0), "gauss_rho": (UnitFloat, 0.0),
             **{f"{param}_values": (list, []) for param in _SWEEP_PARAMS},
             "repeats": (PositiveInt, 1)}
_SCHEMA = {**field_types(GenConfig), **field_types(TrainConfig),
           **{key: kind for key, (kind, _) in _CLI_KEYS.items()}}


def validate_config(raw: dict) -> dict:
    """Check a raw config mapping against the flat schema: each key's type, each
    grid entry by the kind of the key it sweeps, then each key's range by its
    kind. The seed's range is left to the run it seeds."""
    cfg = {key: default for key, (_, default) in _CLI_KEYS.items()}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ValueError(f"unknown config key {reprlib.repr(key)}")
        cfg[key] = check_setting(value, f"config key {key!r}", base_kind(_SCHEMA[key]))
    for param in _SWEEP_PARAMS:
        key = f"{param}_values"
        cfg[key] = [check_setting(v, f"each entry of {key}", _SCHEMA[param]) for v in cfg[key]]
    for cls in (GenConfig, TrainConfig):
        config_from(cls, cfg, seed=0)
    for key, (kind, _) in _CLI_KEYS.items():
        check_setting(cfg[key], key, kind)
    return cfg


def derive_seed(master: int, *parts) -> int:
    """Stable sub-seed from a master seed and arbitrary labels."""
    text = f"{master}|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "big")


def config_from(cls, cfg: dict, **overrides):
    """Build the config dataclass ``cls`` from the keys of ``cfg`` naming its fields."""
    kwargs = {f.name: cfg[f.name] for f in dataclasses.fields(cls) if f.name in cfg}
    return cls(**{**kwargs, **overrides})


def _info(quiet: bool, message: str):
    if not quiet:
        print(message)


def run_generate(cfg: dict, out_dir, quiet: bool = False) -> Path:
    gen_cfg = config_from(GenConfig, cfg)
    dataset = generate_dataset(gen_cfg)
    bundle = save_dataset(dataset, out_dir, gen_config=gen_cfg)
    _info(quiet, f"wrote dataset bundle ({dataset.n_users} users, "
                 f"{dataset.n_items} items) to {bundle}")
    return bundle


def _train_config(cfg: dict, dataset: Dataset | None = None, **overrides) -> TrainConfig:
    """The run's checked ``TrainConfig``; once the bundle is read, alpha
    defaults to the bundle's."""
    bundle = {} if dataset is None else {"alpha": dataset.alpha}
    return config_from(TrainConfig, {**bundle, **cfg}, **overrides)


def _fit(dataset: Dataset, cfg: dict, gauss_seed: int, swap_seed: int, **overrides):
    """Train one run on the bundle's data, with the users gauss-noised and the
    matching swap-noised at the levels of ``cfg``. Returns the run's checked
    ``TrainConfig``, its result, and the users it trained on if they were learned
    or gauss-noised, else None for the bundle's users."""
    train_cfg = _train_config(cfg, dataset, **overrides)
    noisy = {}
    # a zero level leaves the data as is; any other level goes through the noise range check
    if cfg["gauss_rho"] != 0:
        noisy["users"] = apply_gaussian_noise(dataset.users, cfg["gauss_rho"], gauss_seed)
    if cfg["swap_rho"] != 0:
        noisy["matching"] = apply_swap_noise(dataset.matching, cfg["swap_rho"], swap_seed)
    result = train(dataclasses.replace(dataset, **noisy) if noisy else dataset, train_cfg)
    users = noisy.get("users") if result.users is None else result.users
    return train_cfg, result, users


def run_train(bundle_dir, cfg: dict, out_dir, quiet: bool = False) -> Path:
    seed = _train_config(cfg).seed
    dataset = load_dataset(bundle_dir)
    if "alpha" in cfg and abs(cfg["alpha"] - dataset.alpha) > 1e-12:
        print(f"warning: config alpha {cfg['alpha']} differs from "
              f"bundle alpha {dataset.alpha}; using config value", file=sys.stderr)
    _, result, users = _fit(dataset, cfg, derive_seed(seed, "gauss"), derive_seed(seed, "swap"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_history(result.history, out / "history.csv")
    write_matrix_csv(out / "items_learned.csv", result.items)
    # evaluate scores with this file if present, else with the bundle's users
    write_matrix_csv(out / "users_learned.csv", users)
    if result.history:
        last = result.history[-1]
        _info(quiet, f"trained {len(result.history)} epochs: "
                     f"loss {last.loss:.4f}, F1 {last.f1_micro:.4f}")
    else:
        _info(quiet, "trained 0 epochs: wrote initialization")
    return out


def run_evaluate(bundle_dir, learned_dir, cfg: dict, out_dir, quiet: bool = False) -> Path:
    dataset = load_dataset(bundle_dir)
    learned = Path(learned_dir)
    items_hat = read_matrix_csv(learned / "items_learned.csv", (None, dataset.dim))
    users_path = learned / "users_learned.csv"
    users_eval = read_matrix_csv(users_path, (None, dataset.dim)) if users_path.exists() else None
    train_cfg = _train_config(cfg, dataset)
    params = AffinityParams(alpha=train_cfg.alpha, epsilon=train_cfg.epsilon)
    report = evaluate(dataset, items_hat, params, users_eval=users_eval)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_eval_report(report, out / "eval.json")
    if not report.converged:
        print(f"warning: the transport solve did not reach its tolerance after "
              f"{report.sinkhorn_iterations} Newton steps", file=sys.stderr)
    _info(quiet, f"evaluation: F1 micro {report.f1_micro:.4f}, "
                 f"macro {report.f1_macro:.4f}")
    return out


def run_sweep_point(dataset: Dataset, cfg: dict, param: str, grid_index: int,
                    value: float, repeat: int, master_seed: int) -> SweepRow:
    """Train and evaluate one (grid point, repeat) cell; errors become a row."""
    run_seed = derive_seed(master_seed, param, grid_index, repeat)
    cell_key = dict(grid_param=param, grid_value=value, repeat=repeat, seed=run_seed)
    try:
        noise_seed = derive_seed(master_seed, param, grid_index, repeat, "noise")
        cell = {**cfg, "gauss_rho": 0.0, "swap_rho": 0.0, param: value}
        # the history gives only the final loss, so the cell scores only its ends
        train_cfg, result, users = _fit(dataset, cell, noise_seed, noise_seed, seed=run_seed,
                                        eval_every=max(1, cell.get("epochs", TrainConfig.epochs)))
        # score against the original (uncorrupted) matching
        report = evaluate(
            dataset,
            result.items,
            AffinityParams(alpha=train_cfg.alpha, epsilon=train_cfg.epsilon),
            users_eval=users,
        )
        final_loss = result.history[-1].loss if result.history else math.nan
        dist = report.mean_embed_dist if report.mean_embed_dist is not None else math.nan
        return SweepRow(**cell_key, final_loss=final_loss, final_f1_micro=report.f1_micro,
                        final_f1_macro=report.f1_macro, final_mean_embed_dist=dist)
    except Exception as exc:
        return SweepRow(**cell_key, error=f"{type(exc).__name__}: {exc}")


def run_sweep(bundle_dir, cfg: dict, out_dir, jobs: int = 1,
              quiet: bool = False) -> tuple[list[SweepRow], int]:
    check_setting(jobs, "--jobs", PositiveInt)
    points = [(param, value) for param in _SWEEP_PARAMS for value in cfg[f"{param}_values"]]
    if not points:
        keys = ", ".join(f"{param}_values" for param in _SWEEP_PARAMS)
        raise ValueError(f"sweep needs a non-empty grid: set one of {keys}")
    dataset = load_dataset(bundle_dir)
    master_seed = cfg.get("seed", TrainConfig.seed)
    tasks = [
        (dataset, cfg, param, gi, value, rep, master_seed)
        for gi, (param, value) in enumerate(points)
        for rep in range(cfg["repeats"])
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_sweep_point, *zip(*tasks)))
    else:
        rows = [run_sweep_point(*task) for task in tasks]
    rows.sort(key=lambda r: (r.grid_param, r.grid_value, r.repeat))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_sweep(rows, out / "sweep.csv")
    failures = sum(1 for r in rows if r.error)
    _info(quiet, f"sweep: {len(rows)} runs, {failures} failed; wrote {out / 'sweep.csv'}")
    return rows, failures


def run_plot(results_dir, out_dir, quiet: bool = False) -> list[Path]:
    results = Path(results_dir)
    out = Path(out_dir)
    # built per call, so the loaders are looked up by name when the plot runs
    charts = [
        (results / "history.csv", load_history, render_training_chart, "training.svg"),
        (results / "sweep.csv", load_sweep, render_sweep_chart, "sweep.svg"),
    ]
    present = [chart for chart in charts if chart[0].exists()]
    if not present:
        raise ValueError(f"nothing to plot: no history.csv or sweep.csv in {results}")
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for path, load, render, svg_name in present:
        target = out / svg_name
        target.write_text(render(load(path)))
        written.append(target)
    _info(quiet, "wrote " + ", ".join(str(p) for p in written))
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simca",
        description="capacity-constrained matrix factorization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="flat JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("generate", help="write a synthetic dataset bundle")
    add_common(p)

    p = sub.add_parser("train", help="learn item embeddings from a bundle")
    p.add_argument("--bundle", required=True, help="dataset bundle directory")
    add_common(p)

    p = sub.add_parser("evaluate", help="score learned embeddings against a bundle")
    p.add_argument("--bundle", required=True, help="dataset bundle directory")
    p.add_argument("--learned", required=True, help="directory with items_learned.csv")
    add_common(p, config_required=False)

    p = sub.add_parser("sweep", help="train across a parameter grid")
    p.add_argument("--bundle", required=True, help="dataset bundle directory")
    p.add_argument("--jobs", type=int, default=1, help="concurrent runs")
    add_common(p)

    p = sub.add_parser("plot", help="render SVG charts from results CSVs")
    p.add_argument("--results", required=True, help="directory with history.csv or sweep.csv")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            run_plot(args.results, args.out, quiet=args.quiet)
            return 0
        cfg = validate_config({} if args.config is None else read_json(args.config))
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.command == "generate":
            run_generate(cfg, args.out, quiet=args.quiet)
        elif args.command == "train":
            run_train(args.bundle, cfg, args.out, quiet=args.quiet)
        elif args.command == "evaluate":
            run_evaluate(args.bundle, args.learned, cfg, args.out, quiet=args.quiet)
        elif args.command == "sweep":
            _, failures = run_sweep(args.bundle, cfg, args.out, jobs=args.jobs, quiet=args.quiet)
            if failures:
                print(f"error: {failures} sweep run(s) failed; see the error column",
                      file=sys.stderr)
                return 3
        return 0
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
