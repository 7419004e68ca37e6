"""The committed performance records and the per-phase timer behind them.

ROADMAP: every performance change commits a ``BENCH_<topic>.json`` with
before and after numbers from one harness, and claims without numbers do
not count. Each file names its harness, host, parent and change, notes how
its runs were made, and holds them by workload.
"""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
TEXT_KEYS = ("harness", "host", "parent", "change", "note")

_SCRIPT = ROOT / "scripts" / "epoch_phases.py"
_spec = importlib.util.spec_from_file_location("epoch_phases", _SCRIPT)
epoch_phases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(epoch_phases)


def test_the_repository_holds_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_a_bench_file_parses_and_carries_the_shared_keys(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in TEXT_KEYS:
        assert isinstance(record.get(key), str) and record[key].strip(), key
    workloads = record.get("workloads")
    assert isinstance(workloads, dict) and workloads, "workloads"
    assert all(isinstance(runs, dict) and runs for runs in workloads.values())


def test_the_phase_timer_times_every_phase_of_an_epoch():
    # one call per phase, in this process: the script's own run spawns a
    # process per tree and takes minutes
    figures = epoch_phases.phases(300, calls=1, best=1)
    newton = {f"{row}_eps{eps}" for row in ("tol_solve", "newton_step", "newton_steps")
              for eps in (0.1, 0.01)}
    assert set(figures) == {"affinity", "extend_with_slack", "solve_ot", "loss", "gradient", "lap",
                            "f1_scores", "embed_dist", "adam", "sinkhorn_iteration",
                            "epoch"} | newton
    differences = {"sinkhorn_iteration", "newton_step_eps0.1", "newton_step_eps0.01"}
    assert all(figures[name] > 0 for name in figures if name not in differences)
    # the Newton rows solve the n=300 instance in several steps at both epsilons
    assert figures["newton_steps_eps0.1"] >= 2 and figures["newton_steps_eps0.01"] >= 2
