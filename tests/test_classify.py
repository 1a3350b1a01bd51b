"""Tests for baseline and vowel-weighted accent classification."""

import itertools
import math

import numpy as np
import pytest

from accent_forge import classify
from accent_forge.classify import (
    AccentModelSet,
    classify_baseline,
    classify_vowel_weighted,
    confusion_report,
    hellinger_gmm,
    pairwise_vowel_distances,
    vowel_discriminativeness,
    vowel_weights,
)
from accent_forge.frontend import FeatureMatrix
from accent_forge.gmm import DiagGmm, frame_logpdf
from accent_forge.vowels import ARPABET_VOWELS, NUM_VOWELS


def _gauss(mean, var=1.0, dim=2, label=""):
    return DiagGmm([1.0], [[mean] * dim], [[var] * dim], label=label)


class TestBaseline:
    def test_dominant_model_wins(self):
        ms = AccentModelSet(accents=["a", "b"], baseline=[_gauss(0.0), _gauss(10.0)])
        rng = np.random.default_rng(0)
        frames = rng.normal(0.0, 1.0, (30, 2))
        result = classify_baseline(ms, frames)
        assert result.chosen_accent == "a"
        assert result.scores[0] > result.scores[1]
        assert result.frames_used == 30

    def test_synthetic_generator_recovered(self):
        rng = np.random.default_rng(1)
        means = [-6.0, -2.0, 2.0, 6.0]
        ms = AccentModelSet(
            accents=["m%d" % i for i in range(4)],
            baseline=[_gauss(m) for m in means],
        )
        correct = 0
        for _ in range(200):
            pick = rng.integers(4)
            frames = rng.normal(means[pick], 1.0, (40, 2))
            if classify_baseline(ms, frames).chosen_accent == "m%d" % pick:
                correct += 1
        assert correct >= 198  # >= 99%

    def test_tie_goes_to_earliest(self):
        model = _gauss(0.0)
        ms = AccentModelSet(accents=["z_first", "a_second"], baseline=[model, model])
        result = classify_baseline(ms, np.zeros((5, 2)))
        assert result.chosen_accent == "z_first"

    def test_max_frames_cap(self):
        ms = AccentModelSet(accents=["a", "b"], baseline=[_gauss(0.0), _gauss(4.0)])
        frames = np.vstack([np.zeros((10, 2)), np.full((100, 2), 4.0)])
        capped = classify_baseline(ms, FeatureMatrix(frames).head(10).data)
        assert capped.chosen_accent == "a"
        assert capped.frames_used == 10

    def test_empty_rejected(self):
        ms = AccentModelSet(accents=["a", "b"], baseline=[_gauss(0.0), _gauss(1.0)])
        with pytest.raises(ValueError, match="empty"):
            classify_baseline(ms, np.zeros((0, 2)))


class TestHellinger:
    def test_identical_mixtures_near_zero(self):
        rng = np.random.default_rng(2)
        weights = np.full(4, 0.25)
        g = DiagGmm(weights, rng.normal(0, 3, (4, 3)), rng.uniform(0.5, 2, (4, 3)))
        assert hellinger_gmm(g, g, num_samples=100000, seed=3, method="mc") < 0.02

    def test_closed_form_spec_case(self):
        p = _gauss(0.0, dim=1)
        q = _gauss(4.0, dim=1)
        want = math.sqrt(1 - math.exp(-2.0))
        assert hellinger_gmm(p, q) == pytest.approx(want, abs=1e-12)
        mc = hellinger_gmm(p, q, num_samples=50000, seed=4, method="mc")
        assert abs(mc - want) < 0.01

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        p = DiagGmm([0.6, 0.4], rng.normal(0, 2, (2, 2)), rng.uniform(0.5, 2, (2, 2)))
        q = DiagGmm([0.3, 0.7], rng.normal(1, 2, (2, 2)), rng.uniform(0.5, 2, (2, 2)))
        ab = hellinger_gmm(p, q, num_samples=50000, seed=6)
        ba = hellinger_gmm(q, p, num_samples=50000, seed=7)
        assert abs(ab - ba) < 0.01

    def test_bounds(self):
        p = _gauss(0.0, dim=1)
        q = _gauss(100.0, dim=1)
        h = hellinger_gmm(p, q, num_samples=2000, seed=8, method="mc")
        assert 0.0 <= h <= 1.0
        assert h > 0.99

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims differ"):
            hellinger_gmm(_gauss(0.0, dim=1), _gauss(0.0, dim=2))

    def test_deterministic_given_seed(self):
        p = _gauss(0.0)
        q = _gauss(1.0)
        a = hellinger_gmm(p, q, num_samples=5000, seed=11, method="mc")
        b = hellinger_gmm(p, q, num_samples=5000, seed=11, method="mc")
        assert a == b


def _per_pair_hellinger(p, q, num_samples, seed):
    """Scalar oracle: a fresh draw of num_samples from m = (p + q) / 2 for one pair."""
    rng = np.random.default_rng(seed)
    mix_weights = np.concatenate([p.weights, q.weights]) / 2.0
    means = np.vstack([p.means, q.means])
    stds = np.sqrt(np.vstack([p.variances, q.variances]))
    comp = rng.choice(len(mix_weights), size=num_samples, p=mix_weights)
    z = means[comp] + stds[comp] * rng.standard_normal((num_samples, p.dim))
    log_p = frame_logpdf(p, z)
    log_q = frame_logpdf(q, z)
    log_m = np.logaddexp(log_p, log_q) - np.log(2.0)
    bc = float(np.mean(np.exp(0.5 * (log_p + log_q) - log_m)))
    return float(np.sqrt(np.clip(1.0 - bc, 0.0, 1.0)))


def _mixture_column(seed, num_models=4, k=3, dim=3):
    rng = np.random.default_rng(seed)
    column = []
    for s in range(num_models):
        weights = rng.uniform(0.2, 1.0, k)
        column.append(DiagGmm(weights / weights.sum(), rng.normal(0.7 * s, 1.0, (k, dim)),
                              rng.uniform(0.5, 2.0, (k, dim))))
    return column


class TestSharedSampleHellinger:
    def test_agrees_with_per_pair_oracle(self):
        column = _mixture_column(21)
        distances, stderr = pairwise_vowel_distances({"ae": column}, num_samples=20000, seed=5)
        pairs = list(itertools.combinations(range(len(column)), 2))
        oracle = [_per_pair_hellinger(column[a], column[b], 20000, 100 + k)
                  for k, (a, b) in enumerate(pairs)]
        # both estimates carry about the same error; 5 joint standard errors
        np.testing.assert_array_less(np.abs(distances["ae"] - oracle),
                                     5.0 * np.sqrt(2.0) * stderr["ae"])
        assert np.all(stderr["ae"] > 0) and np.all(stderr["ae"] < 0.01)

    def test_stderr_matches_seed_to_seed_spread(self):
        base = np.random.default_rng(8).normal(0.0, 1.0, (2, 2))
        column = [DiagGmm([0.5, 0.5], base + 0.2 * s, np.ones((2, 2))) for s in range(3)]
        runs = [pairwise_vowel_distances({"aa": column}, num_samples=4000, seed=seed)
                for seed in range(40)]
        distances = np.array([d["aa"] for d, _ in runs])
        stderr = np.array([e["aa"] for _, e in runs])
        assert np.all(distances.mean(axis=0) < 0.2)  # where H and BC errors differ
        ratio = distances.std(axis=0, ddof=1) / stderr.mean(axis=0)
        assert np.all((ratio > 0.7) & (ratio < 1.4)), ratio

    def test_one_draw_and_one_scoring_pass_per_model(self, monkeypatch):
        draws, passes = [], []
        draw, score = classify._draw, classify._score_models

        def counting_draw(g, num_samples, rng):
            draws.append((g, num_samples))
            return draw(g, num_samples, rng)

        def counting_score(models, feats, *args, **kwargs):
            passes.append((models, np.shape(feats)))
            return score(models, feats, *args, **kwargs)

        monkeypatch.setattr(classify, "_draw", counting_draw)
        monkeypatch.setattr(classify, "_score_models", counting_score)
        grid = {"aa": _mixture_column(1, num_models=5), "iy": _mixture_column(2, num_models=5)}
        distances, _ = pairwise_vowel_distances(grid, num_samples=3001, seed=0)
        assert [len(d) for d in distances.values()] == [10, 10]
        # 5 draws and 5 passes per vowel, not 2 of each for each of the 10 pairs
        assert [n for _, n in draws] == [1501] * 10
        assert all(g is want for (g, _), want in zip(draws, grid["aa"] + grid["iy"]))
        assert len(passes) == 10
        for (models, shape), vowel in zip(passes, ["aa"] * 5 + ["iy"] * 5):
            assert all(g is want for g, want in zip(models.models, grid[vowel], strict=True))
            assert shape == (1501, 3)

    def test_single_gaussian_column_is_closed_form(self, monkeypatch):
        monkeypatch.setattr(classify, "_draw", None)  # any sampling would fail
        column = [_gauss(float(s)) for s in range(4)]
        distances, stderr = pairwise_vowel_distances({"aa": column})
        want = [hellinger_gmm(column[a], column[b], method="closed_form")
                for a, b in itertools.combinations(range(4), 2)]
        assert distances["aa"].tolist() == want
        assert stderr["aa"].tolist() == [0.0] * 6

    def test_mixed_shapes_scored_per_model(self):
        rng = np.random.default_rng(4)
        p = DiagGmm([0.5, 0.5], rng.normal(0, 1, (2, 2)), np.ones((2, 2)))
        q = DiagGmm([0.2, 0.3, 0.5], rng.normal(1, 1, (3, 2)), np.ones((3, 2)))
        h = hellinger_gmm(p, q, num_samples=20000, seed=1)
        assert abs(h - _per_pair_hellinger(p, q, 20000, 2)) < 0.02

    def test_too_few_samples(self):
        column = _mixture_column(5, num_models=3)
        with pytest.raises(ValueError, match="1000"):
            pairwise_vowel_distances({"aa": column}, num_samples=999)


def _grid(accents, spread_vowels, spread=4.0):
    """Complete vowel grid; models differ across accents only for spread_vowels."""
    grid = {}
    for t, vowel in enumerate(ARPABET_VOWELS):
        models = []
        for s in range(len(accents)):
            mean = float(t)
            if vowel in spread_vowels:
                mean += spread * s
            models.append(_gauss(mean, label="%s.%s" % (accents[s], vowel)))
        grid[vowel] = models
    return grid


def _distances(grid, seed):
    return pairwise_vowel_distances(grid, num_samples=2000, seed=seed)[0]


class TestDiscriminativeness:
    def test_pair_count_for_seven_accents(self):
        accents = ["a%d" % i for i in range(7)]
        grid = {"aa": [_gauss(float(i)) for i in range(7)]}
        distances, _ = pairwise_vowel_distances(grid, num_samples=1000, seed=0)
        assert len(distances["aa"]) == math.comb(7, 2)

    def test_identical_models_score_zero(self):
        accents = ["a", "b", "c"]
        grid = _grid(accents, spread_vowels=())
        d = vowel_discriminativeness(grid, _distances(grid, seed=1))
        assert np.all(d < 0.05)

    def test_separated_vowel_scores_higher(self):
        accents = ["a", "b", "c"]
        grid = _grid(accents, spread_vowels=("aa",))
        d = vowel_discriminativeness(grid, _distances(grid, seed=2))
        aa = d[ARPABET_VOWELS.index("aa")]
        others = np.delete(d, ARPABET_VOWELS.index("aa"))
        assert aa > 0.5
        assert np.all(aa > others + 0.3)

    def test_missing_vowel_excluded(self):
        grid = {"aa": [_gauss(0.0), _gauss(5.0)]}
        d = vowel_discriminativeness(grid, _distances(grid, seed=3))
        assert d[ARPABET_VOWELS.index("iy")] == 0.0

    def test_reciprocal_mode(self):
        accents = ["a", "b"]
        grid = _grid(accents, spread_vowels=("aa",))
        distances = _distances(grid, seed=4)
        d_mean = vowel_discriminativeness(grid, distances, mode="mean_distance")
        d_recip = vowel_discriminativeness(grid, distances, mode="reciprocal_mean")
        aa = ARPABET_VOWELS.index("aa")
        assert d_recip[aa] == pytest.approx(1.0 / d_mean[aa])


class TestVowelWeights:
    def test_uniform_inputs(self):
        w = vowel_weights(np.full(NUM_VOWELS, 1 / 15), np.full(NUM_VOWELS, 0.5))
        np.testing.assert_allclose(w, 1 / 15)

    def test_zero_popularity_kills_vowel(self):
        r = np.full(NUM_VOWELS, 1 / 14)
        r[3] = 0.0
        d = np.ones(NUM_VOWELS)
        assert vowel_weights(r, d)[3] == 0.0

    def test_elementwise_product(self):
        rng = np.random.default_rng(9)
        r = rng.uniform(0, 1, NUM_VOWELS)
        d = rng.uniform(0, 1, NUM_VOWELS)
        w = vowel_weights(r, d)
        oracle = np.array([r[t] * d[t] for t in range(NUM_VOWELS)])
        np.testing.assert_allclose(w, oracle / oracle.sum(), atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            vowel_weights(np.zeros(NUM_VOWELS), np.ones(NUM_VOWELS))


class TestVowelWeightedClassifier:
    def _model_set(self, spread_vowels=("aa",), weights=None):
        accents = ["a", "b", "c"]
        grid = _grid(accents, spread_vowels)
        if weights is None:
            weights = np.full(NUM_VOWELS, 1 / 15)
        return AccentModelSet(accents=accents, vowel_grid=grid, vowel_weights=weights)

    def test_single_vowel_matches_baseline_column(self):
        ms = self._model_set()
        rng = np.random.default_rng(10)
        frames = rng.normal(4.0, 1.0, (25, 2))
        pooled = {"aa": frames}
        vw = classify_vowel_weighted(ms, pooled)
        baseline = AccentModelSet(accents=ms.accents, baseline=ms.vowel_grid["aa"])
        bl = classify_baseline(baseline, frames)
        assert vw.chosen_accent == bl.chosen_accent
        assert vw.frames_used == 25

    def test_weight_concentration_ignores_other_vowels(self):
        weights = np.zeros(NUM_VOWELS)
        weights[ARPABET_VOWELS.index("aa")] = 1.0
        ms = self._model_set(weights=weights)
        rng = np.random.default_rng(11)
        pooled = {
            "aa": rng.normal(4.0, 1.0, (30, 2)),   # votes for accent b
            "iy": rng.normal(50.0, 1.0, (300, 2)),  # absurd, but weight 0
        }
        assert classify_vowel_weighted(ms, pooled).chosen_accent == "b"

    def test_weight_rescaling_preserves_argmax(self):
        ms = self._model_set()
        rng = np.random.default_rng(12)
        pooled = {
            v: rng.normal(float(t), 1.0, (10, 2))
            for t, v in enumerate(ARPABET_VOWELS[:5])
        }
        first = classify_vowel_weighted(ms, pooled).chosen_accent
        ms_scaled = AccentModelSet(
            accents=ms.accents,
            vowel_grid=ms.vowel_grid,
            vowel_weights=ms.vowel_weights * 7.25,
        )
        assert classify_vowel_weighted(ms_scaled, pooled).chosen_accent == first

    def test_no_vowel_evidence(self):
        ms = self._model_set()
        pooled = {v: np.zeros((0, 2)) for v in ARPABET_VOWELS}
        with pytest.raises(ValueError, match="no vowel evidence"):
            classify_vowel_weighted(ms, pooled)

    def test_per_vowel_scores_populated(self):
        ms = self._model_set()
        rng = np.random.default_rng(13)
        pooled = {"aa": rng.normal(0, 1, (10, 2))}
        result = classify_vowel_weighted(ms, pooled)
        assert result.per_vowel_scores.shape == (3, NUM_VOWELS)
        assert result.per_vowel_scores[:, ARPABET_VOWELS.index("aa")].any()
        assert not result.per_vowel_scores[:, ARPABET_VOWELS.index("iy")].any()

def _baseline_report(model_set, corpus, **kwargs):
    """confusion_report over classify_baseline's picks for (features, accent) items."""
    pairs = [(accent, classify_baseline(model_set, feats).chosen_accent)
             for feats, accent in corpus]
    return confusion_report(model_set.accents, pairs, "baseline", **kwargs)


class TestEvaluate:
    def test_perfect_separation(self):
        accents = ["a", "b", "c"]
        ms = AccentModelSet(
            accents=accents, baseline=[_gauss(0.0), _gauss(8.0), _gauss(16.0)]
        )
        rng = np.random.default_rng(14)
        corpus = []
        for i, accent in enumerate(accents):
            for _ in range(10):
                corpus.append((rng.normal(8.0 * i, 1.0, (20, 2)), accent))
        report = _baseline_report(ms, corpus)
        assert report.accuracy == 1.0
        assert np.all(np.diag(report.confusion) == 10)
        assert report.num_utterances == 30

    def test_identical_models_hit_chance_exactly(self):
        model = _gauss(0.0)
        accents = ["a%d" % i for i in range(7)]
        ms = AccentModelSet(accents=accents, baseline=[model] * 7)
        rng = np.random.default_rng(15)
        corpus = []
        for accent in accents:
            for _ in range(20):
                corpus.append((rng.normal(0, 1, (5, 2)), accent))
        report = _baseline_report(ms, corpus)
        # bitwise score ties always resolve to the first accent
        assert report.accuracy == pytest.approx(1 / 7, abs=1e-12)

    def test_accuracy_matches_confusion_recount(self):
        accents = ["a", "b"]
        ms = AccentModelSet(accents=accents, baseline=[_gauss(0.0), _gauss(2.0)])
        rng = np.random.default_rng(16)
        corpus = [
            (rng.normal(rng.choice([0.0, 2.0]), 1.5, (5, 2)), rng.choice(accents))
            for _ in range(60)
        ]
        report = _baseline_report(ms, corpus)
        recount = np.trace(report.confusion) / report.confusion.sum()
        assert report.accuracy == pytest.approx(recount, abs=1e-15)

    def test_unknown_accent_rejected(self):
        ms = AccentModelSet(accents=["a", "b"], baseline=[_gauss(0.0), _gauss(1.0)])
        with pytest.raises(ValueError, match="unknown accent"):
            _baseline_report(ms, [(np.zeros((2, 2)), "mystery")])

    def test_json_report_fields(self):
        import json

        ms = AccentModelSet(accents=["a", "b"], baseline=[_gauss(0.0), _gauss(9.0)])
        rng = np.random.default_rng(17)
        corpus = [(rng.normal(0, 1, (5, 2)), "a"), (rng.normal(9, 1, (5, 2)), "b")]
        report = _baseline_report(ms, corpus, feature_tag="DIRECT_2", seed=5)
        doc = json.loads(report.to_json())
        assert set(doc) >= {"accuracy", "per_accent", "confusion", "mode",
                            "feature_tag", "seed"}
        assert doc["feature_tag"] == "DIRECT_2"
        assert doc["mode"] == "baseline"


class TestModelSetValidation:
    def test_incomplete_grid_column_rejected(self):
        with pytest.raises(ValueError, match="grid column"):
            AccentModelSet(
                accents=["a", "b"],
                vowel_grid={"aa": [_gauss(0.0)]},
                vowel_weights=np.full(NUM_VOWELS, 1 / 15),
            )

    def test_unknown_vowel_rejected(self):
        with pytest.raises(ValueError, match="unknown vowel"):
            AccentModelSet(
                accents=["a", "b"],
                vowel_grid={"zz": [_gauss(0.0), _gauss(1.0)]},
            )
