import dataclasses
import json
import math

import numpy as np
import pytest

from simca.bundle import (
    SweepRow,
    load_dataset,
    load_history,
    load_sweep,
    read_matrix_csv,
    save_dataset,
    save_eval_report,
    save_history,
    save_sweep,
    write_matrix_csv,
)
from simca.datagen import GenConfig, generate_dataset
from simca.metrics import EvalReport
from simca.training import EpochRecord, TrainConfig, train


def test_matrix_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(7, 3)) * np.exp(rng.normal(size=(7, 3)) * 5)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, values)
    back = read_matrix_csv(path, (7, 3))
    assert np.array_equal(values, back)


def test_matrix_csv_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        read_matrix_csv(path, (None, 2))
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_matrix_csv(path, (None, 2))


def test_matrix_csv_skips_blank_lines_and_rejects_an_all_blank_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n1.0,2.0\n  \n3.0,4.0\n\n")
    assert np.array_equal(read_matrix_csv(path, (2, 2)), [[1.0, 2.0], [3.0, 4.0]])
    path.write_text("\n \n")
    with pytest.raises(ValueError, match="empty matrix file"):
        read_matrix_csv(path, (None, 2))


def test_dataset_bundle_roundtrip(tmp_path):
    cfg = GenConfig(n=40, m=3, d=2, k=2, seed=8, extra_spots_per_item=1)
    ds = generate_dataset(cfg)
    bundle = save_dataset(ds, tmp_path / "bundle", gen_config=cfg)
    back = load_dataset(bundle)
    assert np.array_equal(back.users, ds.users)
    assert np.array_equal(back.distances, ds.distances)
    assert np.array_equal(back.items_truth, ds.items_truth)
    assert np.array_equal(back.capacities, ds.capacities)
    assert np.array_equal(back.matching, ds.matching)
    assert back.alpha == ds.alpha
    assert back.seed == ds.seed
    # the user column, not the row order, places each item: shuffled rows load the same
    lines = (bundle / "matching.csv").read_text().splitlines()
    (bundle / "matching.csv").write_text("\n".join(reversed(lines)) + "\n")
    assert np.array_equal(load_dataset(bundle).matching, ds.matching)


def test_saving_a_dataset_without_truth_removes_a_stale_truth_file(tmp_path):
    # an observed dataset saved over a generated bundle: the truth file the
    # first save wrote must not be read back as this dataset's truth
    cfg = GenConfig(n=60, m=3, d=2, k=2, seed=8)
    ds = generate_dataset(cfg)
    bundle = save_dataset(ds, tmp_path / "bundle", gen_config=cfg)
    assert (bundle / "items_truth.csv").exists()
    save_dataset(dataclasses.replace(ds, items_truth=None), bundle)
    assert not (bundle / "items_truth.csv").exists()
    assert load_dataset(bundle).items_truth is None


def test_bundle_bytes_are_deterministic(tmp_path):
    cfg = GenConfig(n=25, m=2, d=2, k=2, seed=9)
    for name in ("a", "b"):
        save_dataset(generate_dataset(cfg), tmp_path / name, gen_config=cfg)
    for fname in ("meta.json", "users.csv", "distances.csv", "items_truth.csv", "matching.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_load_rejects_missing_and_malformed(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope")
    cfg = GenConfig(n=10, m=2, d=2, k=2, seed=1)
    bundle = save_dataset(generate_dataset(cfg), tmp_path / "bundle", gen_config=cfg)
    matching = bundle / "matching.csv"
    matching.write_text("0,0\n1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(bundle)
    matching.write_text("\n".join(f"{i},0" for i in range(9)) + "\n")
    with pytest.raises(ValueError, match="must hold each of 0..9 once"):
        load_dataset(bundle)
    meta = json.loads((bundle / "meta.json").read_text())
    del meta["capacities"]
    (bundle / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="missing key 'capacities'"):
        load_dataset(bundle)


def test_load_rejects_fractional_capacities(tmp_path):
    # capacities reach Dataset as written: 22.7 is rejected, not truncated to 22
    cfg = GenConfig(n=10, m=2, d=2, k=2, seed=1)
    bundle = save_dataset(generate_dataset(cfg), tmp_path / "bundle", gen_config=cfg)
    meta = json.loads((bundle / "meta.json").read_text())
    meta["capacities"] = [c + 0.7 for c in meta["capacities"]]
    (bundle / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="capacities must be integers"):
        load_dataset(bundle)


@pytest.mark.parametrize("key, value, message", [
    ("seed", 7.9, "seed must be integers"),
    ("alpha", "0.3", "alpha must be a number"),
], ids=["fractional-seed", "string-alpha"])
def test_load_rejects_malformed_seed_and_alpha(tmp_path, key, value, message):
    # seed and alpha reach Dataset as written: 7.9 is not truncated to 7, "0.3" not parsed
    cfg = GenConfig(n=10, m=2, d=2, k=2, seed=1)
    bundle = save_dataset(generate_dataset(cfg), tmp_path / "bundle", gen_config=cfg)
    meta = json.loads((bundle / "meta.json").read_text())
    meta[key] = value
    (bundle / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=message):
        load_dataset(bundle)


@pytest.mark.parametrize("last_line, message", [
    ("0,0", "must hold each of 0..9 once"),
    ("9.5,0", "must hold each of 0..9 once"),
    ("10,0", "must hold each of 0..9 once"),
    ("-1,0", "must hold each of 0..9 once"),
    ("9,0.5", "matching must be integers"),
], ids=["duplicate-user", "fractional-user", "user-too-large", "negative-user",
        "fractional-item"])
def test_load_rejects_malformed_matching(tmp_path, last_line, message):
    cfg = GenConfig(n=10, m=2, d=2, k=2, seed=1)
    bundle = save_dataset(generate_dataset(cfg), tmp_path / "bundle", gen_config=cfg)
    matching = bundle / "matching.csv"
    lines = matching.read_text().splitlines()
    assert lines[-1].startswith("9,")
    matching.write_text("\n".join(lines[:-1] + [last_line]) + "\n")
    with pytest.raises(ValueError, match=message):
        load_dataset(bundle)


def test_history_roundtrip(tmp_path):
    records = [
        EpochRecord(epoch=0, loss=12.5, f1_micro=0.25, f1_macro=0.2,
                    mean_embed_dist=1.25, grad_norm=100.0),
        EpochRecord(epoch=1, loss=3.0 / 7.0, f1_micro=1.0, f1_macro=1.0,
                    mean_embed_dist=float("nan"), grad_norm=0.5),
    ]
    path = tmp_path / "history.csv"
    save_history(records, path)
    back = load_history(path)
    assert len(back) == 2
    assert back[0] == records[0]
    assert back[1].loss == records[1].loss
    assert np.isnan(back[1].mean_embed_dist)


def test_history_with_unscored_epochs_roundtrips(tmp_path):
    ds = generate_dataset(GenConfig(n=30, m=3, d=2, k=3, seed=2, extra_spots_per_item=1))
    history = train(ds, TrainConfig(seed=0, epochs=12, eval_every=5)).history
    assert [r.epoch for r in history if not math.isnan(r.f1_micro)] == [0, 5, 10, 11]
    path = tmp_path / "history.csv"
    save_history(history, path)
    back = load_history(path)
    # NaN != NaN, so the rows compare through their text, which holds every bit
    assert [repr(r) for r in back] == [repr(r) for r in history]
    assert "nan" in path.read_text()


def test_history_rejects_bad_header(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("epoch,loss\n0,1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_history(path)


def test_history_skips_a_blank_row_and_rejects_a_short_row(tmp_path):
    record = EpochRecord(epoch=0, loss=1.5, f1_micro=0.5, f1_macro=0.25,
                         mean_embed_dist=0.75, grad_norm=2.0)
    path = tmp_path / "history.csv"
    save_history([record], path)
    with open(path, "a") as fh:
        fh.write("\n")
    assert load_history(path) == [record]
    with open(path, "a") as fh:
        fh.write("1,1.0\n")
    with pytest.raises(ValueError, match="line 4: expected 6 fields"):
        load_history(path)


def test_sweep_roundtrip(tmp_path):
    rows = [
        SweepRow(grid_param="epsilon", grid_value=0.05, repeat=0, seed=123,
                 final_loss=10.0, final_f1_micro=0.9, final_f1_macro=0.85,
                 final_mean_embed_dist=0.3),
        SweepRow(grid_param="swap_rho", grid_value=0.2, repeat=1, seed=456,
                 error="ValueError: boom"),
    ]
    path = tmp_path / "sweep.csv"
    save_sweep(rows, path)
    back = load_sweep(path)
    assert back[0] == rows[0]
    assert back[1].error == "ValueError: boom"
    assert np.isnan(back[1].final_loss)


def test_sweep_malformed_row(tmp_path):
    path = tmp_path / "sweep.csv"
    save_sweep([], path)
    with open(path, "a") as fh:
        fh.write("epsilon,0.1,0,1,x,y,z,w,\n")
    with pytest.raises(ValueError, match="line 2"):
        load_sweep(path)


def test_result_files_have_pinned_bytes(tmp_path):
    # The exact on-disk text of history.csv, sweep.csv and eval.json:
    # headers, 17-digit floats, nan, an empty error column and a quoted one.
    save_history([
        EpochRecord(epoch=0, loss=0.1, f1_micro=2 / 3, f1_macro=1.0,
                    mean_embed_dist=math.nan, grad_norm=12.5),
        EpochRecord(epoch=1, loss=1e-20, f1_micro=0.5, f1_macro=0.25,
                    mean_embed_dist=1 / 3, grad_norm=3.0),
    ], tmp_path / "history.csv")
    assert (tmp_path / "history.csv").read_bytes() == (
        b"epoch,loss,f1_micro,f1_macro,mean_embed_dist,grad_norm\r\n"
        b"0,0.10000000000000001,0.66666666666666663,1,nan,12.5\r\n"
        b"1,9.9999999999999995e-21,0.5,0.25,0.33333333333333331,3\r\n"
    )
    save_sweep([
        SweepRow(grid_param="epsilon", grid_value=0.1, repeat=0, seed=123,
                 final_loss=10.0, final_f1_micro=0.9, final_f1_macro=0.85,
                 final_mean_embed_dist=0.3),
        SweepRow(grid_param="swap_rho", grid_value=0.2, repeat=1, seed=456,
                 error="ValueError: boom, bad"),
    ], tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (
        b"grid_param,grid_value,repeat,seed,final_loss,final_f1_micro,"
        b"final_f1_macro,final_mean_embed_dist,error\r\n"
        b"epsilon,0.10000000000000001,0,123,10,0.90000000000000002,"
        b"0.84999999999999998,0.29999999999999999,\r\n"
        b'swap_rho,0.20000000000000001,1,456,nan,nan,nan,nan,"ValueError: boom, bad"\r\n'
    )
    save_eval_report(EvalReport(f1_micro=0.9, f1_macro=2 / 3, per_item_f1=[1.0, 0.5],
                                mean_embed_dist=None, cross_entropy=12.25,
                                converged=False, sinkhorn_iterations=10_000),
                     tmp_path / "eval.json")
    assert (tmp_path / "eval.json").read_text() == (
        '{\n  "converged": false,\n  "cross_entropy": 12.25,\n'
        '  "f1_macro": 0.6666666666666666,\n  "f1_micro": 0.9,\n'
        '  "mean_embed_dist": null,\n  "per_item_f1": [\n    1.0,\n    0.5\n  ],\n'
        '  "sinkhorn_iterations": 10000\n}\n'
    )
