"""The LAP digest script, which prints the bytes of round_coupling's matchings."""
import re

import numpy as np

from helpers import load_module

lap_digests = load_module("scripts/lap_digests.py")

LINE = re.compile(r"(random seed=\d+ (continuous|integer|decimal) n=\d+ m=\d+"
                  r"|generation n=\d+ m=\d+ seed=\d+"
                  r"|plan n=\d+ m=\d+ seed=\d+ eps=\S+) [0-9a-f]{16}")


def test_random_instances_leave_excess_on_capacities_that_hold_every_user():
    kinds, zero, slack = set(), 0, 0
    for seed in range(60):
        kind, M, caps = lap_digests.random_instance(seed)
        n, m = M.shape
        counts = np.bincount(M.argmax(axis=1), minlength=m)
        assert M.dtype == np.float64 and caps.dtype == np.int64 and len(caps) == m
        assert np.all(caps >= 0) and caps.sum() >= n and np.any(counts > caps)
        kinds.add(kind)
        zero += np.any(caps == 0)
        slack += caps.sum() > n
    assert kinds == {"continuous", "integer", "decimal"} and zero and slack


def test_a_small_family_prints_one_parsable_line_per_instance():
    # 20 random instances and one seed at one size: the script's own run
    # takes 10,000 and four seeds at six sizes, about 12 s per tree
    lines = lap_digests.digest_lines(random=20, sizes=((300, 3),), seeds=1)
    assert len(lines) == 20 + 1 + len(lap_digests.EPSILONS)
    assert all(LINE.fullmatch(line) for line in lines), lines
    assert lines == lap_digests.digest_lines(random=20, sizes=((300, 3),), seeds=1)
