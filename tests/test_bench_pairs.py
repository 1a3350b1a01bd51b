"""Tests for the summary step of tools/bench_pairs.py, on canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(train_s, utts, correct=True, failed=0):
    return json.dumps({
        "attempted": 10, "correct": correct, "failed": failed,
        "metrics": {"train_s": {"unit": "s", "value": train_s},
                    "classify_vowel_utts_per_s": {"unit": "utt/s", "value": utts},
                    "pipeline.weights.s": {"unit": "s", "value": 1.0}},
    })


def _stdout(line):
    return "train_s 1.0 s\nsome other line\n%s\n\n" % line


BETTER = {"train_s": "lower", "classify_vowel_utts_per_s": "higher"}


def test_parse_seeds_and_last_line():
    assert bench_pairs.parse_seeds("201..204") == [201, 202, 203, 204]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("5..4")
    assert bench_pairs.parse_result(_stdout(_line(2.0, 3.0)))["metrics"]["train_s"][
        "value"] == 2.0
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n\n")


def test_summary_medians_quartiles_and_wins():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [6.0, 7.0, 12.0, 6.5, 8.0]
    utts_parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    utts_change = [101.0, 100.0, 125.0, 131.0, 139.0]
    runs = [{"seed": s, "parent": bench_pairs.parse_result(_stdout(_line(p, up))),
             "change": bench_pairs.parse_result(_stdout(_line(c, uc)))}
            for s, p, c, up, uc in zip(range(5), parent, change, utts_parent, utts_change)]
    runs.append({"seed": 5, "parent": bench_pairs.parse_result(_stdout(_line(1.0, 1.0))),
                 "change": None})
    summary = bench_pairs.summarize(runs, BETTER)
    assert (summary["pairs"], summary["failed_runs"], summary["all_correct"]) == (5, 1, True)
    train = summary["metrics"]["train_s"]
    assert train["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert train["change"] == {"median": 7.0, "q1": 6.5, "q3": 8.0}
    assert train["change_wins"] == 4 and train["better"] == "lower"
    assert train["median_change_pct"] == pytest.approx(-100.0 * 5.0 / 12.0)
    assert train["unit"] == "s" and train["pairs"] == 5
    utts = summary["metrics"]["classify_vowel_utts_per_s"]
    assert utts["change_wins"] == 3 and utts["better"] == "higher"
    assert "change_wins" not in summary["metrics"]["pipeline.weights.s"]


def test_summary_flags_incorrect_runs():
    runs = [{"seed": 1, "parent": json.loads(_line(1.0, 1.0)),
             "change": json.loads(_line(1.0, 1.0, failed=2))}]
    assert not bench_pairs.summarize(runs, BETTER)["all_correct"]
    assert bench_pairs.summarize([{"seed": 1, "parent": None, "change": None}],
                                 BETTER)["metrics"] == {}
