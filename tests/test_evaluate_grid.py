"""The evaluate grid script, which prints the bits of small-epsilon solves."""
import itertools
import os
import re
import subprocess
import sys

import pytest

from helpers import ROOT, load_module

evaluate_grid = load_module("scripts/evaluate_grid.py")

LINE = re.compile(r"n=(\d+) m=(\d+) gen_seed=(\d+) train_seed=(\d+) eps=(\S+) "
                  r"f1_micro=(\S+) cross_entropy=(\S+) steps=(\d+) converged=(True|False)")


def test_the_grid_covers_48_cells_from_both_starts():
    cells = (len(evaluate_grid.INSTANCES) * len(evaluate_grid.TRAIN_SEEDS)
             * len(evaluate_grid.EPSILONS))
    assert cells == 48
    # evaluate starts from the LAP's prices below 0.005 and from zero above
    assert min(evaluate_grid.EPSILONS) < 0.005 < max(evaluate_grid.EPSILONS)


def test_a_small_grid_prints_one_parsable_line_per_cell():
    # one instance, one short train, one epsilon from each start: the
    # script's own run trains 8 item sets and takes seconds
    lines = evaluate_grid.grid_lines(instances=((60, 3, 7),), train_seeds=(0,), epochs=5,
                                     epsilons=(0.1, 0.002))
    assert len(lines) == 2
    for line, eps in zip(lines, (0.1, 0.002)):
        cell = LINE.fullmatch(line)
        assert cell, line
        n, m, gen_seed, seed, cell_eps, f1, cross_entropy, steps, converged = cell.groups()
        assert (n, m, gen_seed, seed, cell_eps) == ("60", "3", "7", "0", repr(eps))
        assert 0.0 <= float(f1) <= 1.0
        assert float.fromhex(cross_entropy) > 0
        assert int(steps) >= 1 and converged == "True"
    assert lines == evaluate_grid.grid_lines(instances=((60, 3, 7),), train_seeds=(0,), epochs=5,
                                             epsilons=(0.1, 0.002))


def test_the_script_prints_the_48_cells_of_the_src_it_is_given():
    out = subprocess.run([sys.executable, ROOT / "scripts" / "evaluate_grid.py", ROOT / "src"],
                         check=True, capture_output=True, text=True).stdout
    cells = itertools.product(evaluate_grid.INSTANCES, evaluate_grid.TRAIN_SEEDS,
                              evaluate_grid.EPSILONS)
    lines = out.splitlines()
    assert len(lines) == 48
    for line, ((n, m, gen_seed), seed, eps) in zip(lines, cells):
        cell = LINE.fullmatch(line)
        assert cell, line
        assert cell.groups()[:5] == (str(n), str(m), str(gen_seed), str(seed), repr(eps))


@pytest.mark.parametrize("script", ["evaluate_grid.py", "lap_digests.py"])
def test_a_contract_script_fails_without_a_line_on_a_src_that_holds_no_simca(script, tmp_path):
    # this checkout's simca is importable, but not from the src it is given
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, ROOT / "scripts" / script, tmp_path],
                         capture_output=True, text=True, env=env)
    assert run.returncode != 0 and run.stdout == ""
    assert f"no simca under {tmp_path.resolve()}" in run.stderr
