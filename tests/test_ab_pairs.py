"""The gain and no-regression rules of tools/ab_pairs.py on fixed paired
numbers. The script is imported from its file, unchanged."""

import importlib.util
import pathlib

import pytest


def _load_ab_pairs():
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = _load_ab_pairs()

# ten parent runs: quartiles 2.9275 and 3.0725 (linear), an IQR of 0.145, median 3.0
PARENT = [3.0, 2.9, 3.1, 3.05, 2.95, 3.2, 2.8, 3.0, 3.08, 2.92]


def test_nine_wins_and_medians_apart_by_more_than_the_iqr_is_a_gain():
    change = [2.7] * 9 + [3.3]
    v = ab_pairs.verdict(PARENT, change)
    assert (v["pairs"], v["wins"]) == (10, 9)
    assert v["parent_iqr"] == pytest.approx(0.145)
    assert v["median_gap"] == pytest.approx(0.3)
    assert v["gain"]


def test_eight_wins_is_no_gain():
    change = [2.7] * 8 + [3.3, 3.3]
    v = ab_pairs.verdict(PARENT, change)
    assert v["wins"] == 8 and not v["gain"]


def test_every_pair_won_within_the_iqr_is_no_gain():
    change = [p - 0.1 for p in PARENT]  # median 2.9: a gap of 0.1 < 0.145
    v = ab_pairs.verdict(PARENT, change)
    assert v["wins"] == 10 and v["median_gap"] == pytest.approx(0.1)
    assert not v["gain"]


def test_a_tie_is_no_win():
    v = ab_pairs.verdict([1.0, 2.0], [1.0, 1.5])
    assert v["wins"] == 1 and not v["gain"]


def test_higher_is_better_turns_the_rule_around():
    change = [3.3] * 10
    assert ab_pairs.verdict(PARENT, change, "higher")["gain"]
    v = ab_pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 0 and v["median_gap"] == pytest.approx(-0.3) and not v["gain"]


def test_a_median_worse_by_at_most_the_bound_is_within_it():
    r = ab_pairs.regression(PARENT, [3.75] * 10, "lower", 0.25)  # 0.75 / 3.0 worse
    assert r["worse"] == pytest.approx(0.25) and r["spread"] == pytest.approx(0.145 / 3.0)
    assert r["status"] == "within bound"
    assert ab_pairs.regression(PARENT, [2.0] * 10, "lower", 0.25)["status"] == "within bound"


def test_a_median_worse_by_more_than_the_bound_regressed():
    r = ab_pairs.regression(PARENT, [3.9] * 10, "lower", 0.25)
    assert r["worse"] == pytest.approx(0.3) and r["status"] == "regressed"


def test_a_parent_iqr_above_the_bound_is_unresolved():
    # an IQR of 0.145 is 4.8 % of the median 3.0
    assert ab_pairs.regression(PARENT, [3.9] * 10, "lower", 0.04)["status"] == "unresolved"
    assert ab_pairs.regression(PARENT, [3.0] * 10, "lower", 0.04)["status"] == "unresolved"
    assert ab_pairs.regression(PARENT, [3.0] * 10, "lower", 0.05)["status"] == "within bound"


def test_every_change_run_better_than_every_parent_run_resolves_a_wide_spread():
    assert ab_pairs.regression(PARENT, [2.7] * 10, "lower", 0.04)["status"] == "within bound"
    # one change run (2.85) is worse than the parent's best (2.8)
    assert ab_pairs.regression(PARENT, [2.7] * 9 + [2.85], "lower", 0.04)["status"] == \
        "unresolved"


def test_higher_is_better_turns_the_regression_rule_around():
    r = ab_pairs.regression(PARENT, [2.1] * 10, "higher", 0.25)
    assert r["worse"] == pytest.approx(0.3) and r["status"] == "regressed"
    assert ab_pairs.regression(PARENT, [3.9] * 10, "higher", 0.25)["status"] == "within bound"
