"""The LAP survey script, which compares the LAP's two paths on generated instances."""
from helpers import load_module

lap_survey = load_module("scripts/lap_survey.py")


def test_one_seed_of_the_survey_returns_the_same_bytes_on_both_paths():
    # one generator seed per size and one call per path: the script's own
    # run takes 12 seeds and 11 calls and about two minutes
    result = lap_survey.survey(seeds=1, repeats=1)
    rows = result["instances"]
    assert len(rows) == len(lap_survey.SIZES)
    assert all(row["same_bytes"] for row in rows)
    assert result["all"]["all_same_bytes"]
