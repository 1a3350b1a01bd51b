"""The benchmark's dev-accuracy check and shared output checks, run on a small trained
vowel workspace whose dev and test labels carry confidences and noise segments."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from accent_forge.pipeline import Workspace, generate_synthetic_corpus, run_stage  # noqa: E402
from test_pipeline import _small_cfg  # noqa: E402

GRID = (float("-inf"), -90.0, -70.0, -50.0)  # the last drops every noise segment


def _noisy_cfg():
    cfg = _small_cfg()
    cfg.synth.with_confidence = True
    cfg.synth.noise_segment_fraction = 0.5
    cfg.synth.accent_separation = 1.5
    cfg.calibrate.grid = GRID
    return cfg.validate()


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    """A workspace trained and calibrated, then classified and evaluated in both modes."""
    ws = Workspace(tmp_path_factory.mktemp("noisy") / "ws")
    cfg = _noisy_cfg()
    generate_synthetic_corpus(cfg.synth, ws.root)
    for stage in ("vad", "features", "ubm", "adapt", "vowel-models", "weights", "calibrate"):
        run_stage(stage, cfg, ws)
    reports = {}
    for mode in ("baseline", "vowel"):
        run_stage("classify", cfg, ws, mode=mode)
        reports[mode] = run_stage("evaluate", cfg, ws, mode=mode)
    return ws, reports


def test_dev_vowel_accuracy_equals_the_calibration_curve(calibrated):
    ws, _ = calibrated
    doc = json.loads((ws.root / "models" / "confidence_threshold.json").read_text())
    assert doc["grid"] == list(GRID)
    measured = []
    for value in GRID:
        right, total = workloads._dev_vowel_accuracy(ws, value)
        measured.append(right / total)
    assert measured == doc["dev_accuracy"]
    assert len(set(measured)) > 1  # the noise moves dev accuracy, so the curve is not flat


def test_common_checks_pass(calibrated):
    ws, reports = calibrated
    failed = [label for label, ok in workloads.common_checks(ws, reports) if not ok]
    assert not failed
