"""Phoneme-label ingestion, vowel selection, and per-vowel feature pooling.

Label files follow the HTK convention: one segment per line,
`<start> <end> <label> [<score>]` with times as integers in 100 ns units.
Producing them (alignment or recognition) is outside this package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import LabelParseError

ARPABET_VOWELS = (
    "aa", "ae", "ah", "ao", "aw", "ay", "eh", "er",
    "ey", "ih", "iy", "ow", "oy", "uh", "uw",
)
VOWEL_INDEX = {v: i for i, v in enumerate(ARPABET_VOWELS)}
NUM_VOWELS = len(ARPABET_VOWELS)

_HTK_UNITS_PER_SEC = 10 ** 7
_STRESS_RE = re.compile(r"\d+$")


@dataclass
class PhoneSegment:
    """One labeled time interval; non-vowel labels are kept but flagged."""

    start_sec: float
    end_sec: float
    label: str
    confidence: float | None = None

    def __post_init__(self):
        if self.start_sec < 0 or self.end_sec <= self.start_sec:
            raise ValueError(
                "segment must satisfy 0 <= start < end, got [%r, %r)"
                % (self.start_sec, self.end_sec)
            )

    @property
    def is_vowel(self):
        return self.label in VOWEL_INDEX


def normalize_phone(label):
    """Lowercase and strip trailing stress digits (AA1 -> aa)."""
    return _STRESS_RE.sub("", label.lower())


def parse_label_file(path):
    """Parse an HTK-style label file into PhoneSegments.

    Labels are normalized to lowercase base phones; the optional fourth
    column is a confidence score. Overlapping segments are rejected.
    """
    segments = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) not in (3, 4):
                raise LabelParseError(
                    "%s:%d: expected '<start> <end> <label> [<score>]', got %r"
                    % (path, lineno, line.rstrip("\n"))
                )
            try:
                start_units = int(fields[0])
                end_units = int(fields[1])
            except ValueError as exc:
                raise LabelParseError(
                    "%s:%d: times must be integers in 100 ns units" % (path, lineno)
                ) from exc
            confidence = None
            if len(fields) == 4:
                try:
                    confidence = float(fields[3])
                except ValueError as exc:
                    raise LabelParseError(
                        "%s:%d: score %r is not a number" % (path, lineno, fields[3])
                    ) from exc
                if math.isnan(confidence):  # it would fail every threshold, even -inf
                    raise LabelParseError("%s:%d: score is NaN" % (path, lineno))
            if start_units < 0:
                raise LabelParseError("%s:%d: segment start %d is negative"
                                      % (path, lineno, start_units))
            if end_units <= start_units:
                raise LabelParseError(
                    "%s:%d: segment end %d not after start %d"
                    % (path, lineno, end_units, start_units)
                )
            segments.append(
                PhoneSegment(
                    start_sec=start_units / _HTK_UNITS_PER_SEC,
                    end_sec=end_units / _HTK_UNITS_PER_SEC,
                    label=normalize_phone(fields[2]),
                    confidence=confidence,
                )
            )
    ordered = sorted(segments, key=lambda s: s.start_sec)
    for prev, cur in zip(ordered[:-1], ordered[1:]):
        if cur.start_sec < prev.end_sec - 1e-12:
            raise LabelParseError(
                "%s: segments [%g, %g) and [%g, %g) overlap"
                % (path, prev.start_sec, prev.end_sec, cur.start_sec, cur.end_sec)
            )
    return segments


def write_label_file(path, segments):
    """Serialize segments in the same HTK format parse_label_file reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for seg in segments:
            start = int(round(seg.start_sec * _HTK_UNITS_PER_SEC))
            end = int(round(seg.end_sec * _HTK_UNITS_PER_SEC))
            if seg.confidence is None:
                handle.write("%d %d %s\n" % (start, end, seg.label))
            else:
                handle.write("%d %d %s %r\n" % (start, end, seg.label, seg.confidence))


def filter_by_confidence(segments, threshold):
    """Keep segments scoring >= threshold; unscored segments are trusted."""
    return [s for s in segments if s.confidence is None or s.confidence >= threshold]


def calibrate_threshold(dev_corpus, grid, classify):
    """Grid value maximizing dev accuracy of the injected vowel classifier.

    dev_corpus items are (features, segments, accent) triples. classify is
    called once per item, as classify(features, segments), and returns one
    prediction per value of the sorted grid, the accent it picks when only
    the segments filter_by_confidence keeps at that value count (a label, or
    None, counted as a miss). Returns (threshold, accuracies), the accuracies
    in sorted grid order. Ties pick the lowest threshold.
    """
    grid = sorted(grid)
    if not grid:
        raise ValueError("calibration grid is empty")
    dev_corpus = list(dev_corpus)
    if not dev_corpus:
        raise ValueError("calibration needs a non-empty dev corpus")
    correct = np.zeros(len(grid), dtype=np.int64)
    for feats, segments, accent in dev_corpus:
        predictions = list(classify(feats, segments))
        if len(predictions) != len(grid):
            raise ValueError("classify gave %d predictions for %d grid values"
                             % (len(predictions), len(grid)))
        correct += [predicted == accent for predicted in predictions]
    accuracies = correct / len(dev_corpus)
    return grid[int(np.argmax(accuracies))], accuracies.tolist()


def segment_frames(segments, times_sec):
    """The segments' half-open [lo, hi) frame ranges over ascending times_sec, (n, 2).

    Frame k belongs to a segment when start <= times_sec[k] < end.
    """
    edges = [[s.start_sec for s in segments], [s.end_sec for s in segments]]
    return np.searchsorted(times_sec, np.array(edges)).T


def check_segment_ends(feats, segments):
    """ValueError if a vowel segment ends after the last frame of feats."""
    duration = feats.num_frames * feats.frame_hop_sec
    for seg in segments:
        if seg.is_vowel and seg.end_sec > duration + 1e-9:
            raise ValueError(
                "segment [%g, %g) extends beyond the utterance end %g"
                % (seg.start_sec, seg.end_sec, duration)
            )


def _level(seg):
    return math.inf if seg.confidence is None else seg.confidence  # unscored: always trusted


def vowel_segments(feats, segments):
    """(lo, hi, vowel index, level) columns of one utterance's vowel segments: frame k lies in
    [lo, hi) when its centre (k + 0.5) * hop lies in [start, end), a segment past the last
    frame ends at it, and level is the confidence (+inf if unscored)."""
    kept = [seg for seg in segments if seg.is_vowel]
    lo, hi = segment_frames(kept, (np.arange(feats.num_frames) + 0.5) * feats.frame_hop_sec).T
    return (lo, hi, np.array([VOWEL_INDEX[s.label] for s in kept], dtype=np.int64),
            np.array([_level(s) for s in kept], dtype=np.float64))


def vowel_frames(utterances):
    """(utterance, frame, vowel index, level) arrays of the vowel frames of a non-empty list of
    vowel_segments columns, sorted by (vowel, utterance, frame). Each comes once, at the highest
    level of the vowel's segments holding it, so an utterance's vowel-t frames with level >= x
    are those of filter_by_confidence(segments, x)."""
    lo, hi, vowel, level = map(np.concatenate, zip(*utterances))
    counts, width, size = hi - lo, int(hi.max(initial=0)) + 1, len(utterances)
    cell = vowel * size + np.repeat(np.arange(size), [len(column) for column, *_ in utterances])
    start = cell * width + lo - np.cumsum(counts) + counts  # key = cell * width + frame
    key = np.repeat(start, counts) + np.arange(counts.sum())
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))  # the first row of each distinct key
    level = np.maximum.reduceat(np.repeat(level, counts)[order], first)
    cell, frame = np.divmod(key[first], width)
    vowel, utt = np.divmod(cell, size)
    return utt, frame, vowel, level


def pool_vowel_features(feats, segments):
    """Per-vowel arrays of the frames vowel_frames assigns, if check_segment_ends passes."""
    check_segment_ends(feats, segments)
    _, frame, vowel, _ = vowel_frames([vowel_segments(feats, segments)])
    bounds = np.searchsorted(vowel, np.arange(1, NUM_VOWELS))
    return dict(zip(ARPABET_VOWELS, np.split(feats.data[frame], bounds)))


def vowel_popularity(frame_counts):
    """Popularity vector r over the fixed vowel order; sums to 1."""
    counts = np.array([float(frame_counts.get(v, 0)) for v in ARPABET_VOWELS])
    total = counts.sum()
    if total <= 0:
        raise ValueError("no vowel frames at all; popularity is undefined")
    return counts / total
