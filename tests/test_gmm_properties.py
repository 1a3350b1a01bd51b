"""Property tests of the GMM scoring kernel, EM and the Hellinger estimator on random
diagonal mixtures."""

import math
import re
import struct
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from accent_forge import classify, gmm  # noqa: E402
from accent_forge.adapt import AdaptConfig, map_adapt  # noqa: E402
from accent_forge.classify import (  # noqa: E402
    AccentModelSet,
    _shared_sample_hellinger,
    classify_vowel_thresholds,
    classify_vowel_weighted,
    hellinger_gmm,
    pairwise_vowel_distances,
)
from accent_forge.errors import FormatError, NoEvidenceError  # noqa: E402
from accent_forge.frontend import FeatureMatrix  # noqa: E402
from accent_forge.gmm import (  # noqa: E402
    DiagGmm,
    em_train,
    log_component_densities,
    read_model,
    write_model,
)
from accent_forge.vowels import (  # noqa: E402
    ARPABET_VOWELS,
    NUM_VOWELS,
    PhoneSegment,
    filter_by_confidence,
    pool_vowel_features,
)


@st.composite
def mixtures(draw, max_components=8, max_dim=4):
    """A random diagonal mixture and a seeded frame sample drawn partly from it."""
    k = draw(st.integers(1, max_components))
    d = draw(st.integers(1, max_dim))
    unit = st.floats(0.05, 1.0)
    weights = np.array(draw(st.lists(unit, min_size=k, max_size=k)))
    means = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=k * d, max_size=k * d)))
    variances = np.array(draw(st.lists(st.floats(0.05, 10.0), min_size=k * d, max_size=k * d)))
    g = DiagGmm(weights / weights.sum(), means.reshape(k, d), variances.reshape(k, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picks = rng.choice(k, size=300, p=g.weights)
    frames = g.means[picks] + rng.standard_normal((300, d)) * np.sqrt(g.variances[picks])
    frames[:20] = rng.normal(0.0, 60.0, (20, d))  # far tails, where densities underflow
    return g, frames


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(mixtures())
def test_posteriors_sum_to_one(case):
    g, frames = case
    _, post = gmm._score_block(gmm.GmmStack([g]), frames, posteriors=True)
    assert np.all(post >= 0.0)
    np.testing.assert_allclose(post.sum(axis=0), 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(mixtures())
def test_frame_logsumexp_between_max_and_max_plus_log_k(case):
    """The max is over the kernel's own product plus its bounds M_s, so only the
    kernel's rounding of log(total) + M_s, 2 eps (|M_s| + |max| + log K + 1), is
    allowed on either side."""
    g, frames = case
    stack = gmm.GmmStack([g])
    frame_ll = gmm._score_block(stack, frames)[0][0]
    top = (log_component_densities(stack.rows, frames).T + stack.shift[:, None]).max(axis=0)
    log_k = math.log(g.num_components)
    slack = 2.0 * np.finfo(np.float64).eps * (np.abs(stack.shift[0]) + np.abs(top) + log_k + 1.0)
    assert np.all(frame_ll >= top - slack)
    assert np.all(frame_ll <= top + log_k + slack)


def _adapt_quietly(ubm, frames, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # floored adapted variances
        return map_adapt(ubm, frames, cfg)


def _posterior_data_means(ubm, frames):
    """Occupancy n and posterior-weighted data mean per component, from the kernel's
    component-major posteriors of one block."""
    _, post = gmm._score_block(gmm.GmmStack([ubm]), frames, posteriors=True)
    n = post.sum(axis=1)
    occupied = n > 0
    return n, (post @ frames) / np.where(occupied, n, 1.0)[:, None], occupied


@PROPERTY
@given(mixtures())
def test_map_zero_mean_relevance_moves_means_to_the_data_mean(case):
    ubm, frames = case
    _, data_mean, occupied = _posterior_data_means(ubm, frames)
    adapted = _adapt_quietly(ubm, frames, AdaptConfig(relevance_mean=0.0))
    np.testing.assert_array_equal(adapted.means[occupied], data_mean[occupied])
    np.testing.assert_array_equal(adapted.means[~occupied], ubm.means[~occupied])


@PROPERTY
@given(mixtures(), st.sampled_from([1e30, math.inf]))
def test_map_very_large_relevance_reproduces_the_ubm(case, relevance):
    """alpha = n / (n + r) is below 1e-27, so each parameter is the UBM's to within
    rounding; var + mean^2 - mean^2 loses up to an ulp of mean^2 (<= 400 here)."""
    ubm, frames = case
    adapted = _adapt_quietly(ubm, frames, AdaptConfig(relevance, relevance, relevance))
    np.testing.assert_allclose(adapted.weights, ubm.weights, rtol=1e-12, atol=0)
    np.testing.assert_allclose(adapted.means, ubm.means, rtol=1e-12, atol=1e-20)
    np.testing.assert_allclose(adapted.variances, ubm.variances, rtol=1e-10, atol=0)


@PROPERTY
@given(mixtures(), st.floats(0.01, 1000.0))
def test_map_mean_on_the_segment_from_ubm_to_data_mean(case, relevance):
    """mean = ubm_mean + alpha (data_mean - ubm_mean), alpha = n / (n + r) in [0, 1),
    to a few ulps of the endpoints: a point on the segment between them."""
    ubm, frames = case
    n, data_mean, occupied = _posterior_data_means(ubm, frames)
    adapted = _adapt_quietly(ubm, frames, AdaptConfig(relevance_mean=relevance))
    alpha = (n / (n + relevance))[:, None]
    assert np.all((alpha >= 0.0) & (alpha < 1.0))
    want = ubm.means + alpha * (data_mean - ubm.means)
    scale = np.abs(ubm.means) + np.abs(data_mean)
    assert np.all(np.abs(adapted.means - want) <= 1e-14 * scale)
    np.testing.assert_array_equal(adapted.means[~occupied], ubm.means[~occupied])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mixtures(max_components=4, max_dim=3), st.sampled_from([1, 2, 4]))
def test_em_stage_loglik_non_decreasing(case, target):
    _, frames = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, history = em_train(frames, target, em_iters_per_stage=4, final_em_iters=6,
                              return_history=True)
    for stage in history:
        ll = stage["loglik"]
        for before, after in zip(ll, ll[1:]):
            assert after >= before - 1e-8 * abs(before)


@st.composite
def labelled_mixtures(draw):
    """A small random mixture with an arbitrary (possibly non-ASCII) label."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return DiagGmm(rng.dirichlet(np.ones(k)), rng.normal(0.0, 2.0, (k, d)),
                   rng.uniform(0.3, 3.0, (k, d)), label=draw(st.text(max_size=6)))


# The same examples as any other property, but a failure is reported unshrunk:
# each example re-reads every truncation of its file, so shrinking takes minutes.
FORMAT_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                           phases=[phase for phase in Phase if phase is not Phase.shrink])


@FORMAT_PROPERTY
@given(labelled_mixtures(), st.binary(min_size=1, max_size=16),
       st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 2**16)))
def test_agm1_roundtrip_and_every_malformed_length_rejected(g, trailing, non_finite):
    """Every truncation, trailing bytes and a NaN or Inf parameter are rejected."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.agm"
        write_model(path, g)
        back = read_model(path)
        assert back.label == g.label
        for name in ("weights", "means", "variances"):
            assert getattr(back, name).tobytes() == getattr(g, name).tobytes()
        blob = path.read_bytes()
        names_file = re.escape(str(path))
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match=names_file):
                read_model(path)
        path.write_bytes(blob + trailing)
        with pytest.raises(FormatError, match="%d bytes after the variances in %s"
                           % (len(trailing), names_file)):
            read_model(path)
        value, at = non_finite
        num_floats = g.num_components * (1 + 2 * g.dim)
        offset = len(blob) - 8 * num_floats + 8 * (at % num_floats)
        path.write_bytes(blob[:offset] + struct.pack("<d", value) + blob[offset + 8:])
        with pytest.raises(FormatError, match="in %s$" % names_file):
            read_model(path)


@st.composite
def mixture_pairs(draw, max_components=4, max_dim=3):
    """Two random diagonal mixtures of one dim, each with its own component count."""
    d = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for _ in range(2):
        k = draw(st.integers(1, max_components))
        pair.append(DiagGmm(rng.dirichlet(np.ones(k)), rng.normal(0.0, 2.0, (k, d)),
                            rng.uniform(0.3, 3.0, (k, d))))
    return pair


SEEDS = st.integers(0, 2**31)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mixture_pairs(), SEEDS)
def test_hellinger_in_unit_interval(pair, seed):
    p, q = pair
    distances, stderr = _shared_sample_hellinger([p, q, p], 2000, np.random.default_rng(seed))
    assert np.all((distances >= 0.0) & (distances <= 1.0))
    assert np.all(stderr >= 0.0)
    assert 0.0 <= hellinger_gmm(p, q, num_samples=2000, seed=seed) <= 1.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mixture_pairs(), SEEDS, st.sampled_from(ARPABET_VOWELS), st.integers(1000, 3001))
def test_two_model_column_equals_hellinger_gmm(pair, seed, vowel, num_samples):
    p, q = pair
    column, _ = pairwise_vowel_distances({vowel: [p, q]}, num_samples=num_samples, seed=seed)
    want = hellinger_gmm(p, q, num_samples=num_samples,
                         seed=seed + 1000 * ARPABET_VOWELS.index(vowel))
    assert column[vowel].tobytes() == np.array([want]).tobytes()


@settings(max_examples=15, deadline=None, derandomize=True)
@given(mixture_pairs(), SEEDS)
def test_self_distance_small(pair, seed):
    p, _ = pair
    assert hellinger_gmm(p, p, num_samples=50000, seed=seed, method="mc") < 0.02


@st.composite
def gaussian_pairs(draw):
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [DiagGmm([1.0], rng.uniform(-2.0, 2.0, (1, d)), rng.uniform(0.3, 3.0, (1, d)))
            for _ in range(2)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gaussian_pairs(), SEEDS)
def test_monte_carlo_within_four_standard_errors_of_closed_form(pair, seed):
    """The reported error bar covers the exact distance.

    The delta method needs H away from 0, and the sample variance sees the
    overlap only when BC = 1 - H^2 is not a rare event under m; outside
    that range the error bar is not claimed to hold.
    """
    p, q = pair
    closed = hellinger_gmm(p, q, method="closed_form")
    assume(closed > 0.05 and 1.0 - closed * closed > 1e-3)
    distances, stderr = _shared_sample_hellinger([p, q], 50000, np.random.default_rng(seed))
    assert distances[0] == hellinger_gmm(p, q, num_samples=50000, seed=seed, method="mc")
    assert abs(distances[0] - closed) < 4.0 * stderr[0]


GRID = (float("-inf"), -80.0, -50.0, -20.0, 1e9)  # 1e9 keeps no scored segment
GRID_VOWELS = ("aa", "ih", "uw")


@st.composite
def calibration_cases(draw):
    """A vowel model grid and one capped dev utterance with scored segments.

    Segments are 1-4 frames long or longer runs, may overlap, may carry no
    score, and often score exactly at a grid value; some are vowels outside
    the grid or non-vowels. All fit the utterance, whose frames the test-time
    cap then cuts, so some run past the capped frames or start after them.
    Features have 1-6 dims or 39, the PLP dim without transforms.
    """
    k = draw(st.sampled_from([1, 2, 4]))
    d = draw(st.one_of(st.integers(1, 6), st.just(39)))
    num_accents = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = {}
    for vowel in GRID_VOWELS[:draw(st.integers(1, len(GRID_VOWELS)))]:
        grid[vowel] = [
            DiagGmm(rng.dirichlet(np.ones(k)), rng.normal(0.0, 2.0, (k, d)),
                    rng.uniform(0.3, 3.0, (k, d)))
            for _ in range(num_accents)
        ]
    weights = rng.uniform(0.0, 1.0, NUM_VOWELS)
    model_set = AccentModelSet(accents=["a%d" % i for i in range(num_accents)],
                               vowel_grid=grid, vowel_weights=weights)

    return model_set, draw(capped_utterances(rng, d))


@st.composite
def capped_utterances(draw, rng, d, max_segments=25):
    """One capped utterance of d-dim features and its segments, as calibration_cases draws it."""
    num_frames = draw(st.integers(1, 700))
    hop = 0.01
    feats = FeatureMatrix(rng.normal(0.0, 2.0, (num_frames, d)), hop)
    confidences = st.one_of(st.none(), st.sampled_from(GRID[1:4]),
                            st.floats(-100.0, 0.0, allow_nan=False))
    segments = []
    for _ in range(draw(st.integers(0, max_segments))):
        start = draw(st.integers(0, num_frames - 1))
        length = draw(st.one_of(st.integers(1, 4), st.integers(5, 400)))
        end = min(start + length, num_frames)
        label = draw(st.sampled_from(GRID_VOWELS + ("iy", "n")))
        segments.append(PhoneSegment(start * hop, end * hop, label, draw(confidences)))
    return feats.head(draw(st.integers(1, num_frames))), segments


@st.composite
def split_cases(draw):
    """A vowel model grid and a split of capped utterances, as stage_classify scores it.

    Beside calibration_cases' utterances, the split holds one with no segments, one with
    only a non-vowel and one with two overlapping segments of a grid vowel, in any order.
    """
    model_set, first = draw(calibration_cases())
    d = model_set.stack(GRID_VOWELS[0]).dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    utterances = [first] + draw(st.lists(capped_utterances(rng, d, max_segments=8),
                                         max_size=5))
    feats = FeatureMatrix(rng.normal(0.0, 2.0, (60, d)), 0.01)
    utterances += [(feats, []), (feats, [PhoneSegment(0.0, 0.6, "n", -30.0)]),
                   (feats, [PhoneSegment(0.0, 0.4, "aa", -60.0),
                            PhoneSegment(0.2, 0.6, "aa", None)])]
    return model_set, draw(st.permutations(utterances))


def _clip(segments, duration):
    """The segments cut to [0, duration): pooling needs labels that fit the frames."""
    clipped = []
    for seg in segments:
        if seg.start_sec >= duration - 1e-12:
            continue
        end = min(seg.end_sec, duration)
        if end > seg.start_sec:
            clipped.append(PhoneSegment(seg.start_sec, end, seg.label, seg.confidence))
    return clipped


@settings(max_examples=80, deadline=None, derandomize=True)
@given(calibration_cases(), st.one_of(st.just(GRID), st.sampled_from(GRID).map(lambda t: [t])))
def test_thresholds_scored_once_equal_repooled_scoring(case, thresholds):
    """The whole calibration grid, or the one test threshold stage_classify passes.

    Scoring once and re-pooling score blocks of other shapes, so their scores
    agree to within a few ulps; the accents and frame counts are exact, and
    so is a repeated call.
    """
    model_set, (feats, segments) = case
    [results] = classify_vowel_thresholds(model_set, [(feats, segments)], thresholds)
    assert len(results) == len(thresholds)
    [again] = classify_vowel_thresholds(model_set, [(feats, segments)], thresholds)
    assert [None if r is None else r.scores.tobytes() for r in again] == [
        None if r is None else r.scores.tobytes() for r in results]
    for threshold, result in zip(thresholds, results):
        kept = filter_by_confidence(segments, threshold)
        pooled = pool_vowel_features(feats, _clip(kept, feats.num_frames * feats.frame_hop_sec))
        try:
            want = classify_vowel_weighted(model_set, pooled)
        except NoEvidenceError:
            assert result is None
            continue
        assert result is not None
        np.testing.assert_allclose(result.scores, want.scores, rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(result.per_vowel_scores, want.per_vowel_scores,
                                   rtol=1e-13, atol=1e-12)
        assert (result.chosen_accent, result.frames_used) == (want.chosen_accent,
                                                               want.frames_used)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(split_cases(), st.integers(1, 600),
       st.one_of(st.just(GRID), st.sampled_from(GRID).map(lambda t: [t])))
def test_split_scored_in_groups_equals_one_call_per_utterance(case, group_frames, thresholds):
    """Groups of several utterances, split mid-list by a small bound, score like one each.

    Each utterance's frames share their score blocks with other utterances' in a group,
    so the scores agree to within a few ulps; the accents and frame counts are exact.
    Every group but the last holds at least the bound's frames at the lowest threshold,
    and each scores each grid vowel in at most one call.
    """
    model_set, utterances = case
    with mock.patch.object(classify, "GROUP_FRAMES", group_frames), \
            mock.patch.object(classify, "_score_models", wraps=classify._score_models) as scorer:
        results = classify_vowel_thresholds(model_set, utterances, thresholds)
    assert len(results) == len(utterances)
    lowest, kept = thresholds.index(min(thresholds)), 0
    for utterance, found in zip(utterances, results):
        [alone] = classify_vowel_thresholds(model_set, [utterance], thresholds)
        kept += 0 if alone[lowest] is None else alone[lowest].frames_used
        assert len(found) == len(alone) == len(thresholds)
        for result, want in zip(found, alone):
            assert (result is None) == (want is None)
            if want is None:
                continue
            np.testing.assert_allclose(result.scores, want.scores, rtol=1e-13, atol=1e-12)
            np.testing.assert_allclose(result.per_vowel_scores, want.per_vowel_scores,
                                       rtol=1e-13, atol=1e-12)
            assert (result.chosen_accent, result.frames_used) == (want.chosen_accent,
                                                                   want.frames_used)
    assert scorer.call_count <= len(model_set.vowel_grid) * (1 + kept // group_frames)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(split_cases(), st.integers(1, 600),
       st.one_of(st.just(GRID), st.sampled_from(GRID).map(lambda t: [t])))
def test_groups_end_at_the_bound_on_distinct_kept_frames(case, group_frames, thresholds):
    """A group ends with the utterance that brings its distinct frames kept at the lowest
    threshold to the bound, where same-vowel segments that overlap count each frame once."""
    model_set, utterances = case
    sizes = []

    def counting(model_set, group, rows, thresholds):
        sizes.append(np.bincount(rows[0], minlength=len(group)).tolist())
        return vote_group(model_set, group, rows, thresholds)

    vote_group = classify._vote_group
    with mock.patch.object(classify, "GROUP_FRAMES", group_frames), \
            mock.patch.object(classify, "_vote_group", counting):
        classify_vowel_thresholds(model_set, utterances, thresholds)
    assert sum(map(len, sizes)) == len(utterances)
    for u, counts in enumerate(sizes):
        assert sum(counts[:-1]) < group_frames
        assert sum(counts) >= group_frames or u == len(sizes) - 1
    lowest = min(thresholds)
    flat = [n for counts in sizes for n in counts]
    for (feats, segments), n in zip(utterances, flat):
        duration = feats.num_frames * feats.frame_hop_sec
        kept = _clip(filter_by_confidence(segments, lowest), duration)
        pooled = pool_vowel_features(feats, kept)
        assert n == sum(len(pooled[v]) for v in model_set.vowel_grid)
