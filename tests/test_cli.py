import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
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
from simca.model import AffinityParams, field_types
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


# per type hint, values each setting of that kind must reject
_BAD_SETTINGS = {
    int: {"bool": True, "string": "3", "fraction": 2.5},
    float: {"bool": True, "string": "0.3", "nan": math.nan, "inf": math.inf,
            "int-beyond-float": 10**400},
    bool: {"int": 1, "string": "true"},
}


@pytest.mark.parametrize("cls, name, value", [
    pytest.param(cls, name, value, id=f"{cls.__name__}-{name}-{label}")
    for cls in (GenConfig, TrainConfig, AffinityParams)
    for name, kind in field_types(cls).items()
    for label, value in _BAD_SETTINGS[kind].items()
])
def test_every_setting_field_follows_one_rule(cls, name, value):
    required = {"alpha": 0.3, "epsilon": 0.1} if cls is AffinityParams else {}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        cls(**{**required, name: value})
    # AffinityParams' fields are TrainConfig's alpha and epsilon, so every name is a config key
    with pytest.raises(ValueError, match=f"^config key '{name}' must be"):
        validate_config({name: value})


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
    assert report == asdict(evaluate(dataset, items, params, users_eval=users))
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


def test_evaluate_truncated_items_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, {"epochs": 0})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    run_dir = tmp_path / "run"
    main(["train", "--bundle", str(bundle), "--config", str(config),
          "--out", str(run_dir), "--quiet"])
    items_path = run_dir / "items_learned.csv"
    # every row has the right width; one row is missing
    items_path.write_text("".join(items_path.read_text().splitlines(keepends=True)[:-1]))
    code = main(["evaluate", "--bundle", str(bundle), "--learned", str(run_dir),
                 "--out", str(tmp_path / "eval"), "--quiet"])
    assert code == 1
    assert "items_hat shape" in capsys.readouterr().err


def test_generation_is_byte_identical_per_seed(tmp_path):
    config = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(config), "--out", str(a), "--quiet"])
    main(["generate", "--config", str(config), "--out", str(b), "--quiet"])
    for f in ("meta.json", "users.csv", "distances.csv", "matching.csv"):
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(config), "--out", str(a), "--quiet"])
    main(["generate", "--config", str(config), "--out", str(b), "--seed", "99", "--quiet"])
    assert (a / "users.csv").read_bytes() != (b / "users.csv").read_bytes()
    assert json.loads((b / "meta.json").read_text())["seed"] == 99


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


def test_sweep_partial_failure_exit_code(tmp_path, capsys):
    # a nonpositive epsilon fails at run level and lands in the error column
    config = write_config(tmp_path, {"epsilon_values": [0.1, -1.0], "repeats": 1, "epochs": 2})
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
    assert errors[0].grid_value == -1.0


def test_sweep_parallel_matches_serial(tmp_path):
    config = write_config(tmp_path, {"gauss_rho_values": [0.0, 0.3], "repeats": 2, "epochs": 3})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    cfg = validate_config(read_json(config))
    serial, _ = run_sweep(bundle, cfg, tmp_path / "serial", jobs=1, quiet=True)
    parallel, _ = run_sweep(bundle, cfg, tmp_path / "parallel", jobs=2, quiet=True)
    assert serial == parallel


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


@pytest.mark.parametrize("key, value, message", [
    ("seed", 7.9, "seed must be integers"),
    ("alpha", "0.3", "alpha must be a number"),
], ids=["fractional-seed", "string-alpha"])
def test_train_rejects_malformed_bundle_seed_and_alpha(tmp_path, capsys, key, value, message):
    config = write_config(tmp_path, {"epochs": 2})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    meta = json.loads((bundle / "meta.json").read_text())
    meta[key] = value
    (bundle / "meta.json").write_text(json.dumps(meta))
    code = main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("noise", [{"gauss_rho": -0.5}, {"swap_rho": -3.0}])
def test_train_rejects_negative_noise(tmp_path, capsys, noise):
    # only a zero level skips the noise function, so a negative one meets its range check
    config = write_config(tmp_path, {"epochs": 2, **noise})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    code = main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 1
    assert "rho must lie in [0, 1]" in capsys.readouterr().err


def test_sweep_negative_noise_cells_are_error_rows(tmp_path):
    config = write_config(tmp_path, {"epochs": 2, "gauss_rho_values": [0.0, -0.5],
                                     "swap_rho_values": [-3.0]})
    bundle = tmp_path / "bundle"
    main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"])
    out = tmp_path / "sweep"
    code = main(["sweep", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(out), "--quiet"])
    assert code == 3
    rows = load_sweep(out / "sweep.csv")
    failed = {(r.grid_param, r.grid_value) for r in rows if r.error}
    assert failed == {("gauss_rho", -0.5), ("swap_rho", -3.0)}
    assert all("rho must lie in [0, 1]" in r.error for r in rows if r.error)


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


def test_negative_seed_names_the_key_but_a_sweep_master_seed_may_be_negative(tmp_path, capsys):
    for cls in (GenConfig, TrainConfig):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            cls(seed=-1)
    config = write_config(tmp_path, {"epochs": 2, "epsilon_values": [0.1]})
    bundle = tmp_path / "bundle"
    assert main(["generate", "--config", str(config), "--out", str(bundle), "--quiet"]) == 0
    code = main(["train", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(tmp_path / "run"), "--seed", "-1", "--quiet"])
    assert code == 1
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    # the master seed only feeds derive_seed; every cell trains with a derived nonnegative seed
    code = main(["sweep", "--bundle", str(bundle), "--config", str(config),
                 "--out", str(tmp_path / "sweep"), "--seed", "-1", "--quiet"])
    assert code == 0
    assert [r.seed for r in load_sweep(tmp_path / "sweep" / "sweep.csv")] == \
        [derive_seed(-1, "epsilon", 0, 0)]


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
], ids=["train-sinkhorn-iters", "evaluate-sinkhorn-iters", "train-swap-rho", "train-gauss-rho"])
def test_config_is_checked_before_any_file_is_read(tmp_path, capsys, command, setting, message):
    # the bundle and the learned directory do not exist: the config error comes first
    config = write_config(tmp_path, setting)
    argv = [command, "--bundle", str(tmp_path / "absent"), "--config", str(config),
            "--out", str(tmp_path / "out")]
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
    assert report == asdict(evaluate(dataset, items, params, users_eval=users))
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
