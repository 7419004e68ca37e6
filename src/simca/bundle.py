"""On-disk formats: dataset bundles, training history, sweep results.

A dataset bundle is a directory holding ``meta.json`` (sizes, alpha, seed,
capacities, and a generated bundle's ``GenConfig`` fields) and headerless CSV
matrices: ``users.csv``, ``distances.csv``, optional ``items_truth.csv`` and
``matching.csv`` with one ``user,item`` row per user, in any order. Result
tables (``history.csv``, ``sweep.csv``) hold one row per record under a header
of the record's field names. Reals are written with 17 significant digits so
a reload reproduces the float64 values bit for bit. Every JSON file
(``meta.json``, ``eval.json``, a CLI config) holds one object, written by
``write_json`` and read by ``read_json``.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import GenConfig
from .metrics import EvalReport
from .model import Dataset, as_matrix, field_types
from .training import EpochRecord


# 17 significant digits: enough for a float64 to reload bit for bit
_FLOAT_FMT = "%.17g"


def write_matrix_csv(path: Path, values: np.ndarray) -> None:
    np.savetxt(path, values, fmt=_FLOAT_FMT, delimiter=",")


def read_matrix_csv(path: Path, shape: tuple) -> np.ndarray:
    """Read a headerless CSV matrix of ``shape``; a None row count matches any."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != shape[1]:
                raise ValueError(
                    f"{path}, line {lineno}: expected {shape[1]} columns, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return as_matrix(rows, str(path), shape)


def write_json(path, value: dict) -> None:
    """Write ``value`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    """The JSON object in ``path``; a missing file, invalid JSON or a value
    that is not an object is an error naming the file."""
    with open(path) as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: must be a JSON object")
    return value


def save_dataset(dataset: Dataset, out_dir, gen_config: GenConfig | None = None) -> Path:
    """Write a dataset bundle; returns the bundle directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    generator = dataclasses.asdict(gen_config) if gen_config is not None else {}
    meta = {
        **generator,
        "n": dataset.n_users,
        "m": dataset.n_items,
        "d": dataset.dim,
        "alpha": dataset.alpha,
        "seed": dataset.seed,
        "capacities": [int(c) for c in dataset.capacities],
        "has_items_truth": dataset.items_truth is not None,
    }
    write_json(out / "meta.json", meta)
    write_matrix_csv(out / "users.csv", dataset.users)
    write_matrix_csv(out / "distances.csv", dataset.distances)
    # an observed dataset has no truth; load_dataset would read one an earlier save left
    if dataset.items_truth is not None:
        write_matrix_csv(out / "items_truth.csv", dataset.items_truth)
    else:
        (out / "items_truth.csv").unlink(missing_ok=True)
    write_matrix_csv(out / "matching.csv",
                     np.column_stack([np.arange(dataset.n_users), dataset.matching]))
    return out


def load_dataset(bundle_dir) -> Dataset:
    """Read a dataset bundle back, validating the schema."""
    bundle = Path(bundle_dir)
    meta_path = bundle / "meta.json"
    meta = read_json(meta_path)
    for key in ("n", "m", "d", "alpha", "seed", "capacities"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
    users = read_matrix_csv(bundle / "users.csv", (meta["n"], meta["d"]))
    n, d = users.shape
    distances = read_matrix_csv(bundle / "distances.csv", (n, meta["m"]))
    m = distances.shape[1]
    truth_path = bundle / "items_truth.csv"
    items_truth = read_matrix_csv(truth_path, (m, d)) if truth_path.exists() else None
    # item indices, capacities, alpha and seed go to Dataset uncast, so its checks see them as written
    match_path = bundle / "matching.csv"
    pairs = read_matrix_csv(match_path, (None, 2))
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    if not np.array_equal(pairs[:, 0], np.arange(n)):
        raise ValueError(f"{match_path}: the user column must hold each of 0..{n - 1} once")
    return Dataset(
        users=users,
        items_truth=items_truth,
        distances=distances,
        capacities=meta["capacities"],
        matching=pairs[:, 1],
        alpha=meta["alpha"],
        seed=meta["seed"],
    )


def _save_records(records: list, cls: type, path) -> None:
    """Write records of dataclass ``cls`` as CSV; float fields use 17 digits."""
    types = field_types(cls)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(types))
        for rec in records:
            writer.writerow([
                _FLOAT_FMT % getattr(rec, name) if kind is float else getattr(rec, name)
                for name, kind in types.items()
            ])


def _load_records(cls: type, path) -> list:
    """Read a CSV written by :func:`_save_records`, converting each field by its type."""
    types = field_types(cls)
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(types):
            raise ValueError(f"{path}, line 1: bad header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(types):
                raise ValueError(f"{path}, line {lineno}: expected {len(types)} fields")
            try:
                records.append(cls(*(kind(value) for kind, value in zip(types.values(), row))))
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: malformed record") from None
    return records


def save_history(history: list[EpochRecord], path) -> None:
    _save_records(history, EpochRecord, path)


def load_history(path) -> list[EpochRecord]:
    return _load_records(EpochRecord, path)


@dataclass(frozen=True)
class SweepRow:
    grid_param: str
    grid_value: float
    repeat: int
    seed: int
    final_loss: float = math.nan
    final_f1_micro: float = math.nan
    final_f1_macro: float = math.nan
    final_mean_embed_dist: float = math.nan
    error: str = ""


def save_sweep(rows: list[SweepRow], path) -> None:
    _save_records(rows, SweepRow, path)


def load_sweep(path) -> list[SweepRow]:
    return _load_records(SweepRow, path)


def save_eval_report(report: EvalReport, path) -> None:
    write_json(path, dataclasses.asdict(report))
