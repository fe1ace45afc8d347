"""The gain rule of tools/ab_pairs.py on fixed paired numbers. The script is
imported from its file, unchanged."""

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
