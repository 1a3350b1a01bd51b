"""Property tests of vowel-frame membership: the per-vowel frame confidence table against
per-threshold masks, and a group of utterances against one utterance at a time."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from accent_forge.frontend import FeatureMatrix  # noqa: E402
from accent_forge.vowels import (  # noqa: E402
    ARPABET_VOWELS,
    NUM_VOWELS,
    PhoneSegment,
    filter_by_confidence,
    vowel_frames,
    vowel_segments,
)
from test_vowels import one_utterance_vowel_frames, vowel_frame_levels  # noqa: E402

LEVELS = (-50.0, -20.0)  # shared by segments and thresholds, so some score exactly at one
THRESHOLDS = st.one_of(st.sampled_from(LEVELS + (float("-inf"), float("inf"))),
                       st.floats(-100.0, 0.0))


@st.composite
def labelled_utterances(draw):
    """Frames and vowel segments that overlap, carry no score, or run past the last frame.

    Segment edges sit on frame edges or exactly on frame centres.
    """
    num_frames = draw(st.integers(1, 60))
    hop = draw(st.sampled_from([0.01, 0.0125]))
    confidences = st.one_of(st.none(), st.sampled_from(LEVELS + (float("-inf"),)),
                            st.floats(-100.0, 0.0))
    edges = st.tuples(st.integers(0, num_frames + 5), st.sampled_from([0.0, 0.5]))
    segments = []
    for _ in range(draw(st.integers(0, 12))):
        (k, offset), length = draw(edges), draw(st.integers(1, 20))
        segments.append(PhoneSegment((k + offset) * hop, (k + offset + length) * hop,
                                     draw(st.sampled_from(("aa", "iy", "uw", "n"))),
                                     draw(confidences)))
    return FeatureMatrix(np.zeros((num_frames, 1)), hop), segments


def _masks(feats, segments):
    """Per-vowel masks of the frames whose centre lies in a vowel segment, segment by segment."""
    centres = (np.arange(feats.num_frames) + 0.5) * feats.frame_hop_sec
    masks = np.zeros((NUM_VOWELS, feats.num_frames), dtype=bool)
    for seg in segments:
        if seg.is_vowel:
            masks[ARPABET_VOWELS.index(seg.label)] |= ((seg.start_sec <= centres)
                                                       & (centres < seg.end_sec))
    return masks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(labelled_utterances(), THRESHOLDS)
def test_levels_at_a_threshold_select_the_frames_of_the_segments_it_keeps(case, threshold):
    feats, segments = case
    levels = vowel_frame_levels(feats, segments)
    assert levels.shape == (NUM_VOWELS, feats.num_frames)
    np.testing.assert_array_equal(levels >= threshold,
                                  _masks(feats, filter_by_confidence(segments, threshold)))


@st.composite
def utterance_groups(draw):
    """Utterances of different lengths and hops, in any order, among them one without
    segments, one with only a non-vowel and one with two overlapping same-vowel segments."""
    hop = 0.01
    fixed = [(FeatureMatrix(np.zeros((7, 1)), hop), []),
             (FeatureMatrix(np.zeros((9, 1)), hop), [PhoneSegment(0.0, 0.09, "n", -30.0)]),
             (FeatureMatrix(np.zeros((12, 1)), hop), [PhoneSegment(0.0, 0.08, "aa", -60.0),
                                                     PhoneSegment(0.035, 0.2, "aa", None)])]
    drawn = draw(st.lists(labelled_utterances(), min_size=0, max_size=6))
    return draw(st.permutations(drawn + draw(st.lists(st.sampled_from(fixed), max_size=3))
                                or [fixed[0]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(utterance_groups())
def test_group_frames_equal_one_utterance_at_a_time(utterances):
    """Each utterance's rows of a group, in order, are exactly its own vowel frames."""
    utt, frame, vowel, level = vowel_frames([vowel_segments(f, s) for f, s in utterances])
    assert len({len(utt), len(frame), len(vowel), len(level)}) == 1
    key = np.stack([vowel, utt, frame])
    assert np.all(np.diff(np.ravel_multi_index(key, key.max(axis=1, initial=0) + 1)) > 0)
    for u, (feats, segments) in enumerate(utterances):
        mine = utt == u
        for got, want in zip((frame[mine], vowel[mine], level[mine]),
                             one_utterance_vowel_frames(feats, segments), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
