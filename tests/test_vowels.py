"""Tests for label parsing, confidence filtering, and vowel pooling."""

import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from accent_forge.errors import LabelParseError
from accent_forge.frontend import FeatureMatrix
from accent_forge.vowels import (
    ARPABET_VOWELS,
    NUM_VOWELS,
    PhoneSegment,
    calibrate_threshold,
    filter_by_confidence,
    parse_label_file,
    pool_vowel_features,
    segment_frames,
    vowel_frames,
    vowel_popularity,
    vowel_segments,
    write_label_file,
)


def one_utterance_vowel_frames(feats, segments):
    """(frame, vowel index, level) arrays of one utterance's vowel frames, sorted by (vowel,
    frame): the per-utterance form of vowel_frames, kept as its oracle.

    Frame k belongs to a segment when its centre (k + 0.5) * hop lies in [start, end);
    segments past the last frame cover frames up to it. Each (vowel, frame) pair comes once,
    at the highest confidence of the vowel's segments holding it (+inf if unscored).
    """
    kept = [seg for seg in segments if seg.is_vowel]
    lo, hi = segment_frames(kept, (np.arange(feats.num_frames) + 0.5) * feats.frame_hop_sec).T
    counts = hi - lo
    frame = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    level = np.repeat(np.array([math.inf if s.confidence is None else s.confidence
                                for s in kept], dtype=np.float64), counts)
    key = np.repeat(np.array([ARPABET_VOWELS.index(s.label) for s in kept], dtype=np.int64),
                    counts) * feats.num_frames + frame
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))  # where each (vowel, frame) run starts
    vowel, frame = np.divmod(key[first], feats.num_frames)
    return frame, vowel, np.maximum.reduceat(level[order], first)


def vowel_frame_levels(feats, segments):
    """vowel_frames as a (NUM_VOWELS, frames) level table, NaN where a vowel holds no frame."""
    _, frame, vowel, level = vowel_frames([vowel_segments(feats, segments)])
    levels = np.full((NUM_VOWELS, feats.num_frames), np.nan)
    levels[vowel, frame] = level
    return levels


class TestParse:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "a.lab"
        path.write_text("0 1000000 AA1 -45.2\n")
        segs = parse_label_file(path)
        assert len(segs) == 1
        seg = segs[0]
        assert seg.start_sec == 0.0
        assert seg.end_sec == pytest.approx(0.1)
        assert seg.label == "aa"
        assert seg.confidence == -45.2
        assert seg.is_vowel

    def test_consonant_flagged(self, tmp_path):
        path = tmp_path / "b.lab"
        path.write_text("0 500000 T\n500000 900000 IY2\n")
        segs = parse_label_file(path)
        assert not segs[0].is_vowel
        assert segs[0].label == "t"
        assert segs[1].is_vowel and segs[1].label == "iy"

    def test_roundtrip_fixed_point(self, tmp_path):
        path = tmp_path / "c.lab"
        path.write_text("0 1000000 AA1 -45.2\n1000000 2500000 T\n2500000 4000000 OY\n")
        first = parse_label_file(path)
        out = tmp_path / "c2.lab"
        write_label_file(out, first)
        second = parse_label_file(out)
        assert first == second
        out2 = tmp_path / "c3.lab"
        write_label_file(out2, second)
        assert parse_label_file(out2) == second

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "d.lab"
        path.write_text("0 1000000 AA\nbroken line here extra fields\n")
        with pytest.raises(LabelParseError, match=r"d\.lab:2"):
            parse_label_file(path)

    def test_non_integer_times(self, tmp_path):
        path = tmp_path / "e.lab"
        path.write_text("0.5 1.0 AA\n")
        with pytest.raises(LabelParseError, match="100 ns"):
            parse_label_file(path)

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "f.lab"
        path.write_text("0 2000000 AA\n1000000 3000000 IY\n")
        with pytest.raises(LabelParseError, match="overlap"):
            parse_label_file(path)

    def test_reversed_segment_rejected(self, tmp_path):
        path = tmp_path / "g.lab"
        path.write_text("2000000 1000000 AA\n")
        with pytest.raises(LabelParseError, match="not after"):
            parse_label_file(path)

    def test_negative_start_rejected(self, tmp_path):
        path = tmp_path / "n.lab"
        path.write_text("0 100000 SIL\n-100000 200000 aa\n")
        with pytest.raises(LabelParseError, match=r"n\.lab:2: segment start -100000 is negative"):
            parse_label_file(path)

    def test_nan_score_rejected(self, tmp_path):
        # a NaN score would fail every confidence threshold, even -inf
        path = tmp_path / "h.lab"
        path.write_text("0 1000000 IY -20.0\n1000000 2000000 AA nan\n")
        with pytest.raises(LabelParseError, match=r"h\.lab:2: score is NaN"):
            parse_label_file(path)


class TestFilter:
    def _segs(self):
        return [
            PhoneSegment(0.0, 0.1, "aa", confidence=-10.0),
            PhoneSegment(0.1, 0.2, "iy", confidence=-50.0),
            PhoneSegment(0.2, 0.3, "eh"),  # unscored: trusted
        ]

    def test_minus_inf_is_identity(self):
        segs = self._segs()
        assert filter_by_confidence(segs, float("-inf")) == segs

    def test_all_below_threshold(self):
        segs = [PhoneSegment(0, 1, "aa", -99.0), PhoneSegment(1, 2, "iy", -98.0)]
        assert filter_by_confidence(segs, -50.0) == []

    def test_mixed_scored_unscored(self):
        segs = self._segs()
        rng = np.random.default_rng(0)
        for threshold in rng.uniform(-60, 0, 20):
            kept = filter_by_confidence(segs, threshold)
            oracle = [
                s for s in segs if s.confidence is None or s.confidence >= threshold
            ]
            assert kept == oracle


def _per_grid(pick, grid):
    """A calibration classifier: pick(feats, segments kept at t) for each t of the sorted grid."""

    def classify(feats, segments):
        return [pick(feats, filter_by_confidence(segments, t)) for t in sorted(grid)]

    return classify


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / (name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


class TestCalibrate:
    def test_single_grid_value(self):
        dev = [(None, [], "a")]
        assert calibrate_threshold(dev, [-7.5], lambda f, s: ["a"]) == (-7.5, [1.0])

    def test_flat_curve_picks_lowest(self):
        dev = [(None, [], "a"), (None, [], "b")]
        threshold, accuracies = calibrate_threshold(
            dev, [3.0, -2.0, 8.0], lambda f, s: ["a", "a", "a"])
        assert threshold == -2.0
        assert accuracies == [0.5, 0.5, 0.5]

    def test_noise_segments_push_threshold_up(self):
        # poison segments score around -80; the classifier only gets the
        # accent right once they are gone
        rng = np.random.default_rng(1)
        dev = []
        for i in range(30):
            segs = [
                PhoneSegment(0.0, 0.5, "aa", confidence=float(rng.normal(-20, 2))),
                PhoneSegment(0.5, 1.0, "iy", confidence=float(rng.normal(-80, 2))),
            ]
            dev.append((None, segs, "acc"))

        grid = [float("-inf"), -90.0, -70.0, -40.0]
        classify = _per_grid(
            lambda feats, segments: "acc" if all(s.confidence > -50 for s in segments)
            else "other", grid)
        chosen, accuracies = calibrate_threshold(dev, grid, classify)
        assert chosen == -70.0
        assert chosen > -80.0
        assert accuracies == [0.0, 0.0, 1.0, 1.0]

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="grid"):
            calibrate_threshold([(None, [], "a")], [], lambda f, s: [])

    def test_classify_called_once_per_dev_utterance(self):
        calls = []

        def classify(*args, **kwargs):
            calls.append((args, kwargs))
            return [None, "a", "b"]

        dev = [("f%d" % i, ["s%d" % i], "a") for i in range(5)]
        threshold, accuracies = calibrate_threshold(dev, [2.0, 0.0, 1.0], classify)
        assert calls == [(("f%d" % i, ["s%d" % i]), {}) for i in range(5)]
        assert (threshold, accuracies) == (1.0, [0.0, 1.0, 0.0])

    def test_prediction_count_must_match_the_grid(self):
        with pytest.raises(ValueError, match="2 predictions for 3 grid values"):
            calibrate_threshold([(None, [], "a")], [0.0, 1.0, 2.0], lambda f, s: ["a", "a"])

    def test_traced_run_wrapper(self):
        # the benchmark's traced run wraps calibrate_threshold and counts the
        # classifier's calls; load its metrics module as it ships
        metrics = _perfbench_module("metrics")
        spans = _perfbench_module("spans")
        for module, function, _ in metrics.TARGETS:
            assert hasattr(importlib.import_module("accent_forge." + module), function), \
                (module, function)
        recorder = spans.SpanRecorder()
        wrapped = metrics._counting_calibrate(recorder, calibrate_threshold)
        dev = [(None, [PhoneSegment(0.0, 0.1, "aa", confidence=float(c))], "a")
               for c in (-60.0, -30.0, -10.0)]
        grid = [-20.0, -50.0]
        classify = _per_grid(lambda feats, segments: "a" if segments else None, grid)
        assert wrapped(dev, grid, classify) == (-50.0, [2 / 3, 1 / 3])
        values = metrics.layer_metrics(recorder, 0)
        assert values["vowels.calibrate_threshold.useful_ratio"]["value"] == 1.0


def test_benchmark_modules_load(monkeypatch):
    # the workloads import accent_forge names that only a benchmark run
    # reaches; load them as they ship so that losing one fails here
    for name in ("oracle", "synth_audio"):
        monkeypatch.setitem(sys.modules, name, _perfbench_module(name))
    workloads = _perfbench_module("workloads")
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared["workloads"])
    for workload in workloads.WORKLOADS.values():
        workload.configure(1)


class TestPooling:
    def _feats(self, num_frames=10, dim=2, hop=0.01):
        data = np.arange(num_frames * dim, dtype=float).reshape(num_frames, dim)
        return FeatureMatrix(data, frame_hop_sec=hop)

    def test_whole_utterance_single_vowel(self):
        feats = self._feats()
        pooled = pool_vowel_features(feats, [PhoneSegment(0.0, 0.1, "aa")])
        assert len(pooled["aa"]) == 10
        assert all(len(pooled[v]) == 0 for v in ARPABET_VOWELS if v != "aa")

    def test_disjoint_same_vowel_concatenates(self):
        feats = self._feats(20)
        segs = [PhoneSegment(0.0, 0.05, "ih"), PhoneSegment(0.1, 0.15, "ih")]
        pooled = pool_vowel_features(feats, segs)
        assert len(pooled["ih"]) == 10

    def test_boundary_frame_goes_to_later_segment(self):
        feats = self._feats(4)  # centers at 5, 15, 25, 35 ms
        # the 15 ms center sits exactly on the boundary: half-open rule
        # sends it to the later segment
        segs = [PhoneSegment(0.0, 0.015, "aa"), PhoneSegment(0.015, 0.04, "iy")]
        pooled = pool_vowel_features(feats, segs)
        assert len(pooled["aa"]) == 1
        assert len(pooled["iy"]) == 3  # centers 15, 25, 35 ms
        segs2 = [PhoneSegment(0.0, 0.015, "aa"), PhoneSegment(0.015, 0.04, "aa")]
        pooled2 = pool_vowel_features(feats, segs2)
        assert len(pooled2["aa"]) == 4

    def test_no_frame_in_two_vowels(self):
        rng = np.random.default_rng(2)
        feats = self._feats(50)
        cursor = 0.0
        segs = []
        for _ in range(12):
            width = rng.uniform(0.02, 0.06)
            segs.append(
                PhoneSegment(cursor, cursor + width, rng.choice(ARPABET_VOWELS))
            )
            cursor += width
        pooled = pool_vowel_features(feats, [s for s in segs if s.end_sec <= 0.5])
        total = sum(len(m) for m in pooled.values())
        stacked = np.vstack([m for m in pooled.values() if len(m)])
        assert len(np.unique(stacked[:, 0])) == total  # first column is unique per frame

    def test_segment_beyond_end_rejected(self):
        feats = self._feats(10)
        with pytest.raises(ValueError, match="beyond"):
            pool_vowel_features(feats, [PhoneSegment(0.0, 0.2, "aa")])

    def test_nonvowel_segments_ignored(self):
        feats = self._feats(10)
        pooled = pool_vowel_features(feats, [PhoneSegment(0.0, 0.1, "sil")])
        assert all(len(m) == 0 for m in pooled.values())

    def test_tags_agree_with_segments(self):
        rng = np.random.default_rng(3)
        num = 30
        tags = rng.integers(0, 16, num).astype(np.uint8)
        feats = FeatureMatrix(rng.standard_normal((num, 3)), 0.01, tags)
        segs = []
        start = 0
        for k in range(1, num + 1):
            if k == num or tags[k] != tags[start]:
                if tags[start] > 0:
                    segs.append(
                        PhoneSegment(start * 0.01, k * 0.01,
                                     ARPABET_VOWELS[tags[start] - 1])
                    )
                start = k
        by_seg = pool_vowel_features(feats, segs)
        for i, vowel in enumerate(ARPABET_VOWELS):  # tag = vowel index + 1
            np.testing.assert_array_equal(by_seg[vowel], feats.data[feats.tags == i + 1])


class TestPopularity:
    def test_single_vowel(self):
        r = vowel_popularity({"aa": 100})
        assert r[ARPABET_VOWELS.index("aa")] == 1.0
        assert r.sum() == 1.0

    def test_uniform(self):
        r = vowel_popularity({v: 10 for v in ARPABET_VOWELS})
        np.testing.assert_allclose(r, 1 / 15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        counts = {v: int(rng.integers(1, 500)) for v in ARPABET_VOWELS}
        assert vowel_popularity(counts).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="no vowel frames"):
            vowel_popularity({})
