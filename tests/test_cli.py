import json
import math
import os
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import simca
import simca.cli
import simca.sinkhorn
import simca.training
from simca.assignment import round_coupling
from simca.bundle import load_dataset, load_history, load_sweep, read_json, read_matrix_csv
from simca.cli import (
    config_from,
    derive_seed,
    main,
    run_sweep,
    validate_config,
)
from simca.datagen import GenConfig, apply_gaussian_noise
from simca.metrics import evaluate
from simca.model import (AffinityParams, NonnegInt, PositiveFloat, PositiveInt, UnitFloat,
                         base_kind, field_types)
from simca.training import TrainConfig

SMALL_CONFIG = {
    "n": 40, "m": 3, "d": 2, "k": 2, "alpha": 0.3,
    "extra_spots_per_item": 1, "seed": 3,
    "epsilon": 0.1, "epochs": 8, "sinkhorn_iters": 10, "learning_rate": 0.01,
}


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = dict(SMALL_CONFIG)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_validate_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="learning_rte"):
        validate_config({"learning_rte": 0.1})


def test_unknown_config_key_error_is_bounded(tmp_path, capsys):
    key = "x" * 1000
    with pytest.raises(ValueError, match="^unknown config key") as info:
        validate_config({key: 1})
    assert len(str(info.value)) < 120
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: 1}))
    assert main(["train", "--bundle", str(tmp_path / "absent"), "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: unknown config key")
    assert len(err) < 120


def test_validate_config_type_errors():
    with pytest.raises(ValueError, match="epochs"):
        validate_config({"epochs": "many"})
    with pytest.raises(ValueError, match="joint_users"):
        validate_config({"joint_users": 1})
    with pytest.raises(ValueError, match="epsilon_values"):
        validate_config({"epsilon_values": [0.1, "x"]})
    # json.loads accepts NaN and Infinity; the schema does not
    with pytest.raises(ValueError, match="epsilon"):
        validate_config(json.loads('{"epsilon": NaN}'))
    with pytest.raises(ValueError, match="learning_rate"):
        validate_config(json.loads('{"learning_rate": Infinity}'))
    with pytest.raises(ValueError, match="epsilon_values"):
        validate_config(json.loads('{"epsilon_values": [NaN]}'))
    # an integer too large for a float is a config error, not an OverflowError
    with pytest.raises(ValueError, match="epsilon"):
        validate_config({"epsilon": 10**400})
    with pytest.raises(ValueError, match="epsilon_values"):
        validate_config({"epsilon_values": [0.1, 10**400]})


# per base type of a kind, values each setting of that kind must reject
_BAD_SETTINGS = {
    int: {"bool": True, "string": "3", "fraction": 2.5},
    float: {"bool": True, "string": "0.3", "nan": math.nan, "inf": math.inf,
            "int-beyond-float": 10**400},
    bool: {"int": 1, "string": "true"},
}
# per bounded kind, the error of a value out of its range, values that get it,
# and the values at its bounds, which pass
_RANGES = {
    PositiveFloat: ("must be positive", {"zero": 0.0, "negative": -1.0}, [5e-324]),
    UnitFloat: (r"must lie in \[0, 1\]", {"negative": -0.1, "above-one": 1.5}, [0, 1]),
    NonnegInt: ("must be nonnegative", {"negative": -1}, [0]),
    PositiveInt: ("must be at least 1", {"zero": 0}, [1]),
}
# the config keys that are no dataclass field, with their kinds
_CLI_KEYS = {"swap_rho": UnitFloat, "gauss_rho": UnitFloat, "repeats": PositiveInt}


def _setting_cases():
    """Per setting, a bad or boundary value with the error the setting's class
    and ``validate_config`` each raise, None where it passes; a config key that
    is no dataclass field has no class."""
    settings = [(cls, name, kind) for cls in (GenConfig, TrainConfig, AffinityParams)
                for name, kind in field_types(cls).items()]
    settings += [(None, name, kind) for name, kind in _CLI_KEYS.items()]
    for cls, name, kind in settings:
        owner = "config" if cls is None else cls.__name__
        for label, value in _BAD_SETTINGS[base_kind(kind)].items():
            yield pytest.param(cls, name, value, f"^{name} must be",
                               f"^config key '{name}' must be", id=f"{owner}-{name}-{label}")
        if kind not in _RANGES:
            continue
        phrase, outside, bounds = _RANGES[kind]
        for label, value in outside.items():
            error = f"^{name} {phrase}$"
            yield pytest.param(cls, name, value, error, error, id=f"{owner}-{name}-{label}")
        for value in bounds:
            yield pytest.param(cls, name, value, None, None, id=f"{owner}-{name}-bound-{value}")


def _raises(error):
    return nullcontext() if error is None else pytest.raises(ValueError, match=error)


@pytest.mark.parametrize("cls, name, value, field_error, config_error", _setting_cases())
def test_every_setting_field_follows_one_rule(cls, name, value, field_error, config_error):
    if cls is not None:
        required = {"alpha": 0.3, "epsilon": 0.1} if cls is AffinityParams else {}
        with _raises(field_error):
            assert getattr(cls(**{**required, name: value}), name) == value
    # AffinityParams' fields are TrainConfig's alpha and epsilon, so every name is a config key
    with _raises(config_error):
        assert validate_config({name: value})[name] == value


def test_config_dataclasses_roundtrip_through_the_schema():
    for cls in (GenConfig, TrainConfig):
        cfg = validate_config(asdict(cls()))
        assert config_from(cls, cfg) == cls()
    with pytest.raises(ValueError, match="sinkhorn_warm_start"):
        validate_config({"sinkhorn_warm_start": True})


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "must be a JSON object"),
    ("{not json", "invalid JSON"),
], ids=["not-an-object", "not-json"])
def test_config_must_be_a_json_object(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    code = main(["generate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_names_path(tmp_path, capsys):
    code = main(["generate", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "absent.json" in capsys.readouterr().err


def test_generate_train_evaluate_plot_pipeline(tmp_path):
    config = write_config(tmp_path)
    bundle = tmp_path / "bundle"
    assert main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"]) == 0
    assert (bundle / "meta.json").exists()

    run_dir = tmp_path / "run"
    assert main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(run_dir), "--quiet"]) == 0
    history = load_history(run_dir / "history.csv")
    assert len(history) == SMALL_CONFIG["epochs"]
    assert (run_dir / "items_learned.csv").exists()
    assert not (run_dir / "users_learned.csv").exists()

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--bundle", str(bundle), "--learned", str(run_dir),
                 "--config", str(config), "--out", str(eval_dir), "--quiet"]) == 0
    report = json.loads((eval_dir / "eval.json").read_text())
    assert set(report) == {"f1_micro", "f1_macro", "per_item_f1",
                           "mean_embed_dist", "cross_entropy", "converged",
                           "sinkhorn_iterations"}

    plots = tmp_path / "plots"
    assert main(["plot", "--results", str(run_dir), "--out", str(plots), "--quiet"]) == 0
    assert (plots / "training.svg").exists()


def test_joint_mode_writes_users(tmp_path):
    config = write_config(tmp_path, {"joint_users": True, "epochs": 4})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    run_dir = tmp_path / "run"
    assert main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(run_dir), "--quiet"]) == 0
    assert (run_dir / "users_learned.csv").exists()


def test_evaluate_scores_the_learned_users(tmp_path):
    config = write_config(tmp_path, {"joint_users": True, "epochs": 4})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    run_dir = tmp_path / "run"
    main(["train", "--bundle", str(bundle), "--config", str(config),
          "--out", str(run_dir), "--quiet"])
    assert main(["evaluate", "--bundle", str(bundle), "--learned", str(run_dir),
                 "--config", str(config), "--out", str(tmp_path / "eval"), "--quiet"]) == 0
    dataset = load_dataset(bundle)
    items = read_matrix_csv(run_dir / "items_learned.csv", (3, 2))
    users = read_matrix_csv(run_dir / "users_learned.csv", (40, 2))
    params = AffinityParams(alpha=dataset.alpha, epsilon=SMALL_CONFIG["epsilon"])
    report = json.loads((tmp_path / "eval" / "eval.json").read_text())
    assert report == asdict(evaluate(replace(dataset, users=users), items, params))
    assert report != asdict(evaluate(dataset, items, params))


def test_train_on_the_bundle_users_removes_stale_learned_users(tmp_path):
    # a joint run and then a plain run into one directory: evaluate must
    # score the plain run's items with the bundle's users, not the joint ones
    config = write_config(tmp_path)
    joint = write_config(tmp_path, {"joint_users": True, "epochs": 4}, name="joint.json")
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    run_dir = tmp_path / "run"
    for cfg in (joint, config):
        assert main(["train", "--bundle", str(bundle), "--config", str(cfg),
                     "--out", str(run_dir), "--quiet"]) == 0
    assert not (run_dir / "users_learned.csv").exists()
    assert main(["evaluate", "--bundle", str(bundle), "--learned", str(run_dir),
                 "--config", str(config), "--out", str(tmp_path / "eval"), "--quiet"]) == 0
    dataset = load_dataset(bundle)
    items = read_matrix_csv(run_dir / "items_learned.csv", (3, 2))
    params = AffinityParams(alpha=dataset.alpha, epsilon=SMALL_CONFIG["epsilon"])
    report = json.loads((tmp_path / "eval" / "eval.json").read_text())
    assert report == asdict(evaluate(dataset, items, params))


def test_swap_noised_run_is_scored_with_the_bundle_users(tmp_path):
    # only the matching was noised, so the run trained on the bundle's users:
    # it leaves no users file, and removes the one a joint run left
    config = write_config(tmp_path, {"swap_rho": 0.2, "epochs": 4})
    joint = write_config(tmp_path, {"joint_users": True, "epochs": 4}, name="joint.json")
    bundle, run_dir, eval_dir = tmp_path / "bundle", tmp_path / "run", tmp_path / "eval"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    for cfg in (joint, config):
        assert main(["train", "--bundle", str(bundle), "--config", str(cfg),
                     "--out", str(run_dir), "--quiet"]) == 0
    assert not (run_dir / "users_learned.csv").exists()
    assert main(["evaluate", "--bundle", str(bundle), "--learned", str(run_dir),
                 "--config", str(config), "--out", str(eval_dir), "--quiet"]) == 0
    dataset = load_dataset(bundle)
    items = read_matrix_csv(run_dir / "items_learned.csv", (3, 2))
    params = AffinityParams(alpha=dataset.alpha, epsilon=SMALL_CONFIG["epsilon"])
    report = json.loads((eval_dir / "eval.json").read_text())
    assert report == asdict(evaluate(dataset, items, params))


def test_pipeline_without_true_items(tmp_path):
    # real observations carry no generating items: distances are NaN in the
    # history and null in eval.json, and the plot still renders
    config = write_config(tmp_path)
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    (bundle / "items_truth.csv").unlink()
    run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
    assert main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(run_dir), "--quiet"]) == 0
    history = load_history(run_dir / "history.csv")
    assert len(history) == SMALL_CONFIG["epochs"]
    assert all(np.isnan(r.mean_embed_dist) for r in history)
    assert main(["evaluate", "--bundle", str(bundle), "--learned", str(run_dir),
                 "--config", str(config), "--out", str(eval_dir), "--quiet"]) == 0
    assert json.loads((eval_dir / "eval.json").read_text())["mean_embed_dist"] is None
    assert main(["plot", "--results", str(run_dir), "--out", str(tmp_path / "plots"),
                 "--quiet"]) == 0
    assert (tmp_path / "plots" / "training.svg").exists()


def _evaluate_true_items(tmp_path, capsys):
    """Run ``simca evaluate`` on a small bundle's true items at epsilon 0.002;
    returns the eval.json report and what went to stderr."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 30, "m": 3, "k": 2, "seed": 1,
                                  "extra_spots_per_item": 1, "epsilon": 0.002}))
    bundle, learned = tmp_path / "bundle", tmp_path / "learned"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    learned.mkdir()
    (learned / "items_learned.csv").write_bytes((bundle / "items_truth.csv").read_bytes())
    capsys.readouterr()
    # an unconverged solve is reported, not an error: the exit code stays 0
    assert main(["evaluate", "--bundle", str(bundle), "--learned", str(learned),
                 "--config", str(config), "--out", str(tmp_path / "eval"), "--quiet"]) == 0
    report = json.loads((tmp_path / "eval" / "eval.json").read_text())
    return report, capsys.readouterr().err


@pytest.mark.parametrize("cap, converged", [(2, False), (None, True)],
                         ids=["hits-the-cap", "converges"])
def test_evaluate_warns_when_the_solve_hits_the_cap(tmp_path, capsys, monkeypatch, cap, converged):
    if cap is not None:
        monkeypatch.setattr(simca.sinkhorn, "MAX_NEWTON_STEPS", cap)
    report, err = _evaluate_true_items(tmp_path, capsys)
    assert report["converged"] is converged
    warned = "did not reach its tolerance after 2 Newton steps" in err
    assert warned is not converged


def test_evaluate_warns_when_the_newton_system_is_singular(tmp_path, capsys, monkeypatch):
    def singular(*_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    report, err = _evaluate_true_items(tmp_path, capsys)
    assert report["converged"] is False and report["sinkhorn_iterations"] == 0
    assert "did not reach its tolerance after 0 Newton steps" in err


def test_commands_print_a_one_line_summary_unless_quiet(tmp_path, capsys):
    config = str(write_config(tmp_path, {"epochs": 2, "epsilon_values": [0.1], "repeats": 2}))
    bundle, run_dir, sweep_dir = tmp_path / "bundle", tmp_path / "run", tmp_path / "sweep"
    plots = tmp_path / "plots"
    commands = [
        (["generate", "--config", config, "--out", str(bundle)],
         f"wrote dataset bundle (40 users, 3 items) to {bundle}"),
        (["train", "--bundle", str(bundle), "--config", config, "--out", str(run_dir)],
         "trained 2 epochs: loss "),
        (["evaluate", "--bundle", str(bundle), "--learned", str(run_dir), "--config", config,
          "--out", str(tmp_path / "eval")], "evaluation: F1 micro "),
        (["sweep", "--bundle", str(bundle), "--config", config, "--out", str(sweep_dir)],
         f"sweep: 2 runs, 0 failed; wrote {sweep_dir / 'sweep.csv'}"),
        (["plot", "--results", str(run_dir), "--out", str(plots)],
         f"wrote {plots / 'training.svg'}"),
    ]
    capsys.readouterr()
    for argv, summary in commands:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(summary) and captured.out.count("\n") == 1, argv
        assert captured.err == ""
        assert main([*argv, "--quiet"]) == 0
        assert capsys.readouterr().out == ""


def test_zero_epochs_writes_initialization(tmp_path):
    config = write_config(tmp_path, {"epochs": 0})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    run_dir = tmp_path / "run"
    assert main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(run_dir), "--quiet"]) == 0
    assert load_history(run_dir / "history.csv") == []
    assert (run_dir / "items_learned.csv").exists()


def _evaluate_with_a_row_cut(tmp_path, capsys, name, extra=None) -> str:
    """Train for 0 epochs, cut the last row of the learned file ``name`` and
    evaluate, which must exit 1; returns its error."""
    config = write_config(tmp_path, {"epochs": 0, **(extra or {})})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    run_dir = tmp_path / "run"
    main(["train", "--bundle", str(bundle), "--config", str(config),
          "--out", str(run_dir), "--quiet"])
    path = run_dir / name
    # every row has the right width; one row is missing
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    code = main(["evaluate", "--bundle", str(bundle), "--learned", str(run_dir),
                 "--out", str(tmp_path / "eval"), "--quiet"])
    assert code == 1
    return capsys.readouterr().err


def test_evaluate_truncated_items_exits_1(tmp_path, capsys):
    err = _evaluate_with_a_row_cut(tmp_path, capsys, "items_learned.csv")
    assert "items_learned.csv shape (2, 2) does not match (3, 2)" in err


def test_evaluate_truncated_users_exits_1(tmp_path, capsys):
    err = _evaluate_with_a_row_cut(tmp_path, capsys, "users_learned.csv", {"joint_users": True})
    assert "users_learned.csv shape (39, 2) does not match (40, 2)" in err


def test_generation_is_byte_identical_per_seed(tmp_path):
    config = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(config), "--out", str(a), "--quiet"])
    main(["generate", "--config", str(config), "--out", str(b), "--quiet"])
    for f in ("meta.json", "users.csv", "distances.csv", "matching.csv"):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_config_seed_sets_the_bundle(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(write_config(tmp_path)), "--out", str(a), "--quiet"])
    other = write_config(tmp_path, {"seed": 99}, name="other.json")
    main(["generate", "--config", str(other), "--out", str(b), "--quiet"])
    assert (a / "users.csv").read_bytes() != (b / "users.csv").read_bytes()
    assert json.loads((b / "meta.json").read_text())["seed"] == 99


def test_no_command_takes_a_seed_flag(tmp_path, capsys):
    # the seed is a config key alone, so it is checked with the others
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["generate", "--config", str(config), "--out", str(tmp_path / "a"), "--seed", "99"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 99" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_train_history_is_reproducible(tmp_path):
    config = write_config(tmp_path)
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    main(["train", "--bundle", str(bundle), "--config", str(config), "--out", str(r1), "--quiet"])
    main(["train", "--bundle", str(bundle), "--config", str(config), "--out", str(r2), "--quiet"])
    assert (r1 / "history.csv").read_bytes() == (r2 / "history.csv").read_bytes()


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(3, "epsilon", 0, 0)
    assert a == derive_seed(3, "epsilon", 0, 0)
    seeds = {derive_seed(3, "epsilon", gi, rep) for gi in range(5) for rep in range(5)}
    assert len(seeds) == 25


def test_sweep_rows_and_ordering(tmp_path):
    config = write_config(tmp_path, {"epsilon_values": [0.1], "repeats": 3, "epochs": 3})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    out = tmp_path / "sweep"
    assert main(["sweep", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(out), "--quiet"]) == 0
    rows = load_sweep(out / "sweep.csv")
    assert len(rows) == 3
    assert [r.repeat for r in rows] == [0, 1, 2]
    assert len({r.seed for r in rows}) == 3
    assert all(r.grid_param == "epsilon" and not r.error for r in rows)
    plots = tmp_path / "plots"
    assert main(["plot", "--results", str(out), "--out", str(plots), "--quiet"]) == 0
    assert sorted(p.name for p in plots.iterdir()) == ["sweep.svg"]


def test_sweep_requires_grid(tmp_path):
    config = write_config(tmp_path)
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    code = main(["sweep", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(tmp_path / "s"), "--quiet"])
    assert code == 1


def test_sweep_rejects_nonpositive_jobs(tmp_path, capsys):
    config = write_config(tmp_path, {"epsilon_values": [0.1], "repeats": 1, "epochs": 1})
    for jobs in ("0", "-4"):
        out = tmp_path / f"sweep{jobs}"
        code = main(["sweep", "--bundle", str(tmp_path / "bundle"), "--config", str(config),
                     "--out", str(out), "--jobs", jobs, "--quiet"])
        assert code == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
    # a library call checks jobs by its kind too, before the absent bundle is read
    cfg = validate_config(read_json(config))
    for jobs, error in ((True, "an integer"), (2.5, "an integer"), (0, "at least 1")):
        out = tmp_path / f"sweep{jobs}"
        with pytest.raises(ValueError, match=f"^--jobs must be {error}"):
            run_sweep(tmp_path / "bundle", cfg, out, jobs=jobs, quiet=True)
        assert not out.exists()


def test_sweep_partial_failure_exit_code(tmp_path, capsys):
    # the smallest positive epsilon passes its kind, but M / epsilon overflows
    # at epoch 0: the cell fails at run time, naming epsilon, in the error column
    config = write_config(tmp_path, {"epsilon_values": [0.1, 5e-324], "repeats": 1, "epochs": 2})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    out = tmp_path / "sweep"
    code = main(["sweep", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 3
    rows = load_sweep(out / "sweep.csv")
    assert len(rows) == 2
    errors = [r for r in rows if r.error]
    assert len(errors) == 1
    assert errors[0].grid_value == 5e-324
    assert errors[0].error == ("ValueError: training diverged at epoch 0: "
                               "affinity / epsilon overflows at epsilon=5e-324")


def test_sweep_parallel_matches_serial(tmp_path):
    config = write_config(tmp_path, {"gauss_rho_values": [0.0, 0.3], "repeats": 2, "epochs": 3})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    cfg = validate_config(read_json(config))
    serial, _ = run_sweep(bundle, cfg, tmp_path / "serial", jobs=1, quiet=True)
    parallel, _ = run_sweep(bundle, cfg, tmp_path / "parallel", jobs=2, quiet=True)
    assert serial == parallel


@pytest.mark.parametrize("grid, jobs, pools", [([0.1, 0.2], 64, [2]), ([0.1], 4, [])],
                         ids=["64-jobs-2-cells", "4-jobs-1-cell"])
def test_sweep_pool_has_no_more_workers_than_cells(tmp_path, monkeypatch, grid, jobs, pools):
    # a fake pool records its size and runs the cells in-process: no process starts
    opened = []

    class FakePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *args):
            return map(fn, *args)

    monkeypatch.setattr(simca.cli, "ProcessPoolExecutor", FakePool)
    config = write_config(tmp_path, {"epsilon_values": grid, "epochs": 1})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    rows, failures = run_sweep(bundle, validate_config(read_json(config)), tmp_path / "s",
                               jobs=jobs, quiet=True)
    assert (len(rows), failures) == (len(grid), 0)
    assert opened == pools


def test_sweep_cells_score_only_their_first_and_last_epoch(tmp_path, monkeypatch):
    # a cell reads only its final loss from the history and scores the rest
    # with evaluate, so it rounds its coupling on epochs 0 and 7 alone
    config = write_config(tmp_path, {"epsilon_values": [0.1, 0.5], "gauss_rho_values": [0.3],
                                     "swap_rho_values": [0.2], "repeats": 2})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    cfg = validate_config(read_json(config))
    rounds = []

    def counted_round(pi, caps):
        rounds.append(pi.shape)
        return round_coupling(pi, caps)

    monkeypatch.setattr(simca.training, "round_coupling", counted_round)
    thinned, failures = run_sweep(bundle, cfg, tmp_path / "thinned", jobs=1, quiet=True)
    assert failures == 0 and len(thinned) == 8
    assert len(rounds) == 2 * len(thinned)
    # with the override taken away, every epoch is scored and the rows are the same
    fit = simca.cli._fit
    monkeypatch.setattr(simca.cli, "_fit",
                        lambda *args, **overrides: fit(*args, **{**overrides, "eval_every": 1}))
    rounds.clear()
    every, _ = run_sweep(bundle, cfg, tmp_path / "every", jobs=1, quiet=True)
    assert len(rounds) == SMALL_CONFIG["epochs"] * len(every)
    assert every == thinned
    assert (tmp_path / "every" / "sweep.csv").read_bytes() == \
        (tmp_path / "thinned" / "sweep.csv").read_bytes()


def test_alpha_defaults_to_the_bundle(tmp_path):
    # the observed matching is the optimum at the bundle's alpha, so a config
    # without alpha must train, score and sweep at that alpha, not at 0.3
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(write_config(tmp_path, {"alpha": 0.6})),
          "--out", str(bundle), "--quiet"])
    grid = {"epochs": 3, "epsilon_values": [0.2], "gauss_rho_values": [0.3],
            "swap_rho_values": [0.2]}
    outputs = []
    for label, extra in (("set", {"alpha": 0.6}), ("unset", {})):
        cfg = {key: value for key, value in SMALL_CONFIG.items() if key != "alpha"}
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({**cfg, **grid, **extra}))
        run, ev, sweep = (tmp_path / f"{label}-{step}" for step in ("run", "eval", "sweep"))
        for argv in (["train", "--bundle", str(bundle), "--out", str(run)],
                     ["evaluate", "--bundle", str(bundle), "--learned", str(run),
                      "--out", str(ev)],
                     ["sweep", "--bundle", str(bundle), "--out", str(sweep)]):
            assert main([*argv, "--config", str(path), "--quiet"]) == 0
        outputs.append([(run / "history.csv").read_bytes(), (ev / "eval.json").read_bytes(),
                        (sweep / "sweep.csv").read_bytes()])
    assert outputs[0] == outputs[1]


def test_train_rejects_fractional_bundle_capacities(tmp_path, capsys):
    # fractional bundle capacities are a validation error, not truncated
    config = write_config(tmp_path, {"epochs": 2})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    meta = json.loads((bundle / "meta.json").read_text())
    meta["capacities"] = [c + 0.7 for c in meta["capacities"]]
    (bundle / "meta.json").write_text(json.dumps(meta))
    code = main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 1
    assert "capacities must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.3"], ids=["string-alpha"])
def test_train_rejects_malformed_bundle_seed_and_alpha(tmp_path, capsys, value):
    # load_dataset reads no seed, so only alpha is checked; the name keeps the case's id
    config = write_config(tmp_path, {"epochs": 2})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    meta = json.loads((bundle / "meta.json").read_text())
    meta["alpha"] = value
    (bundle / "meta.json").write_text(json.dumps(meta))
    code = main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 1
    assert "alpha must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [2**63, 2**64])
def test_seeds_beyond_int64_run_end_to_end(tmp_path, seed):
    # numpy seeds a generator from any nonnegative int; meta.json keeps the seed exactly
    config = write_config(tmp_path, {"epochs": 2, "seed": seed})
    bundle, run = tmp_path / "bundle", tmp_path / "run"
    flags = ["--config", str(config), "--quiet"]
    assert main(["generate", "--out", str(bundle), *flags]) == 0
    assert json.loads((bundle / "meta.json").read_text())["seed"] == seed
    assert main(["train", "--bundle", str(bundle), "--out", str(run), *flags]) == 0
    assert main(["evaluate", "--bundle", str(bundle), "--learned", str(run),
                 "--out", str(tmp_path / "eval"), *flags]) == 0


@pytest.mark.parametrize("noise", [{"gauss_rho": -0.5}, {"swap_rho": -3.0}])
def test_train_rejects_negative_noise(tmp_path, capsys, noise):
    # validate_config checks each noise level's range, so a negative one fails
    # even with a bundle on disk; the bundle comes from a noise-free config
    config = write_config(tmp_path, {"epochs": 2, **noise})
    bundle = tmp_path / "bundle"
    assert main(["generate", "--config", str(write_config(tmp_path, name="clean.json")),
                 "--out", str(bundle), "--quiet"]) == 0
    code = main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 1
    assert "rho must lie in [0, 1]" in capsys.readouterr().err


def test_swap_noise_config_changes_training_signal(tmp_path):
    config = write_config(tmp_path, {"epochs": 3})
    noisy_config = write_config(tmp_path, {"epochs": 3, "swap_rho": 0.4}, name="noisy.json")
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    clean, noisy = tmp_path / "clean", tmp_path / "noisy"
    main(["train", "--bundle", str(bundle), "--config", str(config), "--out", str(clean), "--quiet"])
    main(["train", "--bundle", str(bundle), "--config", str(noisy_config), "--out", str(noisy), "--quiet"])
    h_clean = load_history(clean / "history.csv")
    h_noisy = load_history(noisy / "history.csv")
    assert h_clean[0].loss != h_noisy[0].loss


def test_plot_empty_results_dir_fails(tmp_path):
    (tmp_path / "empty").mkdir()
    code = main(["plot", "--results", str(tmp_path / "empty"),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1


def test_generate_at_benchmark_scale(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 1000, "m": 3, "d": 2, "k": 3,
                                  "alpha": 0.3, "seed": 0}))
    bundle = tmp_path / "bundle"
    assert main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"]) == 0
    users = (bundle / "users.csv").read_text().strip().splitlines()
    assert len(users) == 1000
    meta = json.loads((bundle / "meta.json").read_text())
    assert sum(meta["capacities"]) == 1030


def test_negative_seed_names_the_key_in_every_command(tmp_path, capsys):
    for cls in (GenConfig, TrainConfig):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            cls(seed=-1)
    bundle = tmp_path / "bundle"
    clean = write_config(tmp_path, {"epochs": 2}, name="clean.json")
    assert main(["generate", "--config", str(clean), "--out", str(bundle), "--quiet"]) == 0
    # a sweep's master seed obeys the kind of the seed it is, though it only feeds derive_seed
    config = write_config(tmp_path, {"epochs": 2, "epsilon_values": [0.1], "seed": -1})
    for argv in (["generate"], ["train", "--bundle", str(bundle)],
                 ["evaluate", "--bundle", str(bundle), "--learned", str(tmp_path / "run")],
                 ["sweep", "--bundle", str(bundle)]):
        out = tmp_path / f"{argv[0]}-out"
        assert main([*argv, "--config", str(config), "--out", str(out), "--quiet"]) == 1
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


def test_train_alpha_warning_goes_to_stderr_under_quiet(tmp_path, capsys):
    config = write_config(tmp_path, {"epochs": 2})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    other = write_config(tmp_path, {"epochs": 2, "alpha": 0.5}, name="other.json")
    capsys.readouterr()
    assert main(["train", "--bundle", str(bundle), "--config", str(other),
                 "--out", str(tmp_path / "run"), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config alpha 0.5 differs from bundle alpha 0.3" in captured.err


def test_setting_errors_print_a_bounded_value(tmp_path, capsys):
    for make, name in ((lambda: TrainConfig(learning_rate=10**400), "learning_rate"),
                       (lambda: TrainConfig(seed="7" * 1000), "seed")):
        with pytest.raises(ValueError, match=f"^{name} must be") as info:
            make()
        assert len(str(info.value)) < 120
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"epsilon": 10**400}))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert "'epsilon'" in err
    assert len(err) < 120


@pytest.mark.parametrize("bundle_exists", [True, False], ids=["bundle", "no-bundle"])
def test_sweep_bad_base_key_exits_1_and_writes_nothing(tmp_path, capsys, bundle_exists):
    bundle = tmp_path / "bundle"
    if bundle_exists:
        main(["generate", "--config", str(write_config(tmp_path)), "--out", str(bundle), "--quiet"])
    config = write_config(tmp_path, {"learning_rate": -1, "epsilon_values": [0.1, 0.5]},
                          name="sweep.json")
    capsys.readouterr()
    out = tmp_path / "sweep"
    code = main(["sweep", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 1
    assert "learning_rate must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bundle_exists", [True, False], ids=["bundle", "no-bundle"])
def test_sweep_zero_repeats_exits_1_and_writes_nothing(tmp_path, capsys, bundle_exists):
    bundle = tmp_path / "bundle"
    if bundle_exists:
        main(["generate", "--config", str(write_config(tmp_path)), "--out", str(bundle), "--quiet"])
    config = write_config(tmp_path, {"epsilon_values": [0.1], "repeats": 0}, name="sweep.json")
    capsys.readouterr()
    out = tmp_path / "sweep"
    code = main(["sweep", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 1
    assert "repeats must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_generate_onto_an_existing_file_is_a_runtime_error(tmp_path, capsys):
    # the configuration is valid, so the failed mkdir exits 2, not 1
    taken = tmp_path / "taken"
    taken.write_text("keep")
    code = main(["generate", "--config", str(write_config(tmp_path)), "--out", str(taken),
                 "--quiet"])
    assert code == 2
    assert "File exists" in capsys.readouterr().err
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("command, setting, message", [
    ("train", {"sinkhorn_iters": 0}, "sinkhorn_iters must be at least 1"),
    ("evaluate", {"sinkhorn_iters": 0}, "sinkhorn_iters must be at least 1"),
    ("train", {"swap_rho": 1.5}, "swap_rho must lie in [0, 1]"),
    ("train", {"gauss_rho": -0.5}, "gauss_rho must lie in [0, 1]"),
    ("sweep", {"swap_rho": 1.5, "epsilon_values": [0.1]}, "swap_rho must lie in [0, 1]"),
    ("generate", {"learning_rate": -1}, "learning_rate must be positive"),
    ("train", {"repeats": 0}, "repeats must be at least 1"),
    ("train", {"d": 0}, "d must be at least 1"),
    ("sweep", {"m": 0, "epsilon_values": [0.1]}, "need m >= k >= 1"),
    ("sweep", {"epsilon_values": [0.1, -1.0]}, "each entry of epsilon_values must be positive"),
    ("sweep", {"gauss_rho_values": [0.0, 1.5]},
     "each entry of gauss_rho_values must lie in [0, 1]"),
    ("train", {"swap_rho_values": [2.0]}, "each entry of swap_rho_values must lie in [0, 1]"),
    ("sweep", {"seed": -1, "epsilon_values": [0.1]}, "seed must be nonnegative"),
    ("evaluate", {"seed": -1}, "seed must be nonnegative"),
], ids=["train-sinkhorn-iters", "evaluate-sinkhorn-iters", "train-swap-rho", "train-gauss-rho",
        "sweep-swap-rho", "generate-learning-rate", "train-repeats", "train-d", "sweep-m",
        "sweep-epsilon-values", "sweep-gauss-rho-values", "train-swap-rho-values", "sweep-seed",
        "evaluate-seed"])
def test_config_is_checked_before_any_file_is_read(tmp_path, capsys, command, setting, message):
    # the bundle and the learned directory do not exist: the config error comes first,
    # and every command checks every key, not only the keys it uses; a grid entry
    # obeys the kind of the key it sweeps
    config = write_config(tmp_path, setting)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command != "generate":
        argv += ["--bundle", str(tmp_path / "absent")]
    if command == "evaluate":
        argv += ["--learned", str(tmp_path / "absent-run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "meta.json" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["{not json", "[1]"], ids=["not-json", "not-an-object"])
def test_malformed_meta_json_names_the_file(tmp_path, capsys, text):
    config = write_config(tmp_path, {"epochs": 2})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    (bundle / "meta.json").write_text(text)
    code = main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 1
    assert "meta.json" in capsys.readouterr().err


def test_gauss_noised_run_is_scored_with_its_noised_users(tmp_path):
    # the run trained on noised users, so evaluate scores with them, as a sweep cell does
    config = write_config(tmp_path, {"gauss_rho": 0.6, "epochs": 4})
    bundle, run_dir, eval_dir = tmp_path / "bundle", tmp_path / "run", tmp_path / "eval"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    assert main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(run_dir), "--quiet"]) == 0
    dataset = load_dataset(bundle)
    users = read_matrix_csv(run_dir / "users_learned.csv", (40, 2))
    noised = apply_gaussian_noise(dataset.users, 0.6, derive_seed(SMALL_CONFIG["seed"], "gauss"))
    assert np.array_equal(users, noised)
    assert main(["evaluate", "--bundle", str(bundle), "--learned", str(run_dir),
                 "--config", str(config), "--out", str(eval_dir), "--quiet"]) == 0
    items = read_matrix_csv(run_dir / "items_learned.csv", (3, 2))
    params = AffinityParams(alpha=dataset.alpha, epsilon=SMALL_CONFIG["epsilon"])
    report = json.loads((eval_dir / "eval.json").read_text())
    assert report == asdict(evaluate(replace(dataset, users=users), items, params))
    assert report != asdict(evaluate(dataset, items, params))


def test_the_cli_runs_without_scipy(tmp_path):
    # src/ needs numpy only: put first on the path a scipy that cannot be imported
    shim = tmp_path / "shim"
    (shim / "scipy").mkdir(parents=True)
    (shim / "scipy" / "__init__.py").write_text('raise ImportError("scipy is hidden")\n')
    src = Path(simca.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(shim), str(src)])}

    def run(*argv):
        return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    assert "scipy is hidden" in run("-c", "import scipy").stderr
    write_config(tmp_path)
    for argv in (["generate", "--out", "bundle"],
                 ["train", "--bundle", "bundle", "--out", "run"],
                 ["evaluate", "--bundle", "bundle", "--learned", "run", "--out", "eval"]):
        proc = run("-m", "simca", *argv, "--config", "config.json", "--quiet")
        assert proc.returncode == 0, proc.stderr
    proc = run("-m", "simca", "plot", "--results", "run", "--out", "plots", "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "eval" / "eval.json").exists()
    assert (tmp_path / "plots" / "training.svg").exists()
