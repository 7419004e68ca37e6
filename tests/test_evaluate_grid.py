"""The evaluate grid script, which prints the bits of small-epsilon solves."""
import importlib.util
import re
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "evaluate_grid.py"
_spec = importlib.util.spec_from_file_location("evaluate_grid", _SCRIPT)
evaluate_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(evaluate_grid)

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
