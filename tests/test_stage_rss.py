"""Tests for tools/stage_rss.py's child runs, without building a corpus."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("stage_rss", _ROOT / "tools" / "stage_rss.py")
stage_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_rss)


def test_child_lists_the_workload_stages_and_reports_its_own_peak(tmp_path):
    out, maxrss_mb, seconds = stage_rss.run_child(_ROOT, "wav_paper", 3, "stages", tmp_path)
    assert out.split() == ["vad", "features", "transforms", "ubm", "adapt", "vowel-models",
                           "weights"]
    assert maxrss_mb > 10.0  # an interpreter with numpy and scipy imported
    assert seconds > 0.0


def test_failed_stage_exits_with_its_name(tmp_path):
    with pytest.raises(SystemExit, match="polish failed with exit code 1"):
        stage_rss.run_child(_ROOT, "aff_train", 3, "polish", tmp_path)


def test_failed_classify_mode_exits_with_its_name(tmp_path):
    with pytest.raises(SystemExit, match="classify:polish failed with exit code 1"):
        stage_rss.run_child(_ROOT, "aff_train", 3, "classify:polish", tmp_path)
