"""Accent classifiers: full-utterance MAP scoring and the vowel-weighted ensemble.

The ensemble scores each accent as sum_t w_t * loglik of that accent's
vowel-t model on the vowel-t frames; w combines vowel popularity with a
Hellinger-distance discriminativeness factor.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NoEvidenceError
from .gmm import GmmStack, _score_models, frame_logpdf
from .vowels import ARPABET_VOWELS, NUM_VOWELS, vowel_frames, vowel_segments

GROUP_FRAMES = 16384  # vowel frames scored per group: bounds the copies a group holds


@dataclass
class AccentModelSet:
    """Ordered accent labels plus baseline and/or per-vowel model grids."""

    accents: list
    baseline: list | None = None
    vowel_grid: dict | None = None
    vowel_weights: np.ndarray | None = None
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.accents) < 2:
            raise ValueError("need at least 2 accents")
        if self.baseline is not None and len(self.baseline) != len(self.accents):
            raise ValueError("one baseline model per accent required")
        if self.vowel_grid is not None:
            for vowel, models in self.vowel_grid.items():
                if vowel not in ARPABET_VOWELS:
                    raise ValueError("unknown vowel %r in model grid" % vowel)
                if len(models) != len(self.accents):
                    raise ValueError(
                        "vowel %r grid column has %d models for %d accents"
                        % (vowel, len(models), len(self.accents))
                    )
        if self.vowel_weights is not None:
            self.vowel_weights = np.asarray(self.vowel_weights, dtype=np.float64)
            if self.vowel_weights.shape != (NUM_VOWELS,):
                raise ValueError("vowel weights must have %d entries" % NUM_VOWELS)

    def stack(self, vowel=None):
        """The baseline models, or one vowel's grid column, as a GmmStack.

        Built on first use and kept; the model lists are not to change after.
        """
        if vowel not in self._stacks:
            models = self.baseline if vowel is None else self.vowel_grid[vowel]
            self._stacks[vowel] = GmmStack(models)
        return self._stacks[vowel]


@dataclass
class ClassificationResult:
    chosen_accent: str
    scores: np.ndarray
    per_vowel_scores: np.ndarray | None = None
    frames_used: int = 0


def classify_baseline(model_set, data):
    """Argmax of total log-likelihood over accents (earliest label on ties)."""
    if model_set.baseline is None:
        raise ValueError("model set has no baseline models")
    if data.shape[0] < 1:
        raise ValueError("cannot classify an empty feature matrix")
    scores = _score_models(model_set.stack(), data).sum(axis=1)
    best = int(np.argmax(scores))
    return ClassificationResult(
        chosen_accent=model_set.accents[best],
        scores=scores,
        frames_used=data.shape[0],
    )


def _hellinger_closed_form(p, q):
    """Exact Hellinger distance between two single diagonal Gaussians."""
    var_p = p.variances[0]
    var_q = q.variances[0]
    var_bar = 0.5 * (var_p + var_q)
    delta = p.means[0] - q.means[0]
    log_bc = float(
        np.sum(0.25 * np.log(var_p * var_q) - 0.5 * np.log(var_bar)
               - delta * delta / (8.0 * var_bar))
    )
    return float(np.sqrt(max(0.0, 1.0 - np.exp(log_bc))))


def hellinger_gmm(p, q, num_samples=50000, seed=0, method="auto"):
    """Hellinger distance between two diagonal-covariance GMMs in [0, 1].

    The Bhattacharyya coefficient BC = integral sqrt(p q) is estimated by
    importance sampling from the equal mixture m = (p + q) / 2; H is
    sqrt(1 - BC) clamped to [0, 1] and deterministic given the seed. Pairs
    of single Gaussians use the exact closed form unless method="mc". The
    Monte-Carlo estimate is the two-model case of the shared-sample estimator
    behind pairwise_vowel_distances, drawn from default_rng(seed).
    """
    if p.dim != q.dim:
        raise ValueError("mixture dims differ: %d vs %d" % (p.dim, q.dim))
    if method not in ("auto", "mc", "closed_form"):
        raise ValueError("unknown method %r" % method)
    if method == "closed_form" or (
        method == "auto" and p.num_components == 1 and q.num_components == 1
    ):
        if p.num_components != 1 or q.num_components != 1:
            raise ValueError("closed form requires single-component mixtures")
        return _hellinger_closed_form(p, q)
    distances, _ = _shared_sample_hellinger([p, q], num_samples, np.random.default_rng(seed))
    return float(distances[0])


def _draw(g, num_samples, rng):
    """num_samples draws from g: component counts from one multinomial, one normal block.

    The draws of component k are rows [stop_k - count_k, stop_k), scaled and
    shifted in place.
    """
    counts = rng.multinomial(num_samples, g.weights / g.weights.sum())
    z = rng.standard_normal((num_samples, g.dim))
    stops = np.cumsum(counts)
    for k, (start, stop) in enumerate(zip(stops - counts, stops)):
        z[start:stop] *= np.sqrt(g.variances[k])
        z[start:stop] += g.means[k]
    return z


def _shared_sample_hellinger(models, num_samples, rng):
    """Monte-Carlo Hellinger distances and standard errors of every model pair.

    Each model gets ceil(num_samples / 2) draws from rng, in model order, and
    all models are scored on them in one stacked pass (model by model if
    their shapes differ); only the mean and variance of each pair's terms on
    those draws are kept. Pair (a, b) averages sqrt(p_a p_b) / m, with
    m = (p_a + p_b) / 2, over a's draws and b's draws: together an exactly
    balanced draw from m, so the estimate of BC is unbiased (Hershey & Olsen
    2007). Pairs are in itertools.combinations order. The standard error of
    BC comes from the variance within each half; that of H = sqrt(1 - BC) is
    it over 2H, by the delta method, or the BC error itself where H = 0.
    """
    if num_samples < 1000:
        raise ValueError("need at least 1000 Monte-Carlo samples")
    half = -(-num_samples // 2)
    same_shape = len({g.means.shape for g in models}) == 1
    stack = GmmStack(models) if same_shape else None
    mean, var = [], []  # [a][b]: mean and variance of sqrt(p_a p_b) / m over a's draws
    for a, g in enumerate(models):
        z = _draw(g, half, rng)
        ll = (_score_models(stack, z) if same_shape
              else np.array([frame_logpdf(m, z) for m in models]))
        terms = np.exp(0.5 * (ll[a] + ll) - np.logaddexp(ll[a], ll) + np.log(2.0))
        mean.append(terms.mean(axis=1))
        var.append(terms.var(axis=1, ddof=1))
    distances, stderr = [], []
    for a, b in itertools.combinations(range(len(models)), 2):
        bc = 0.5 * (mean[a][b] + mean[b][a])
        bc_err = 0.5 * np.sqrt((var[a][b] + var[b][a]) / half)
        h = float(np.sqrt(np.clip(1.0 - bc, 0.0, 1.0)))
        distances.append(h)
        stderr.append(float(bc_err / (2.0 * h) if h > 0 else bc_err))
    return np.array(distances), np.array(stderr)


def pairwise_vowel_distances(vowel_grid, num_samples=50000, seed=0):
    """All-pairs Hellinger distances and their standard errors per vowel.

    Returns (distances, stderr): vowel -> array in itertools.combinations
    order, the Monte-Carlo standard errors in the same layout (0 for the
    closed form).

    Vowel t's models share one sample set drawn from default_rng(seed + 1000 t),
    t its index in ARPABET_VOWELS, so a two-model column equals
    hellinger_gmm(p, q, num_samples, seed + 1000 t). A column of single
    Gaussians uses the closed form, pair by pair.
    """
    distances, stderr = {}, {}
    for vowel in sorted(vowel_grid):
        models = vowel_grid[vowel]
        if all(g.num_components == 1 for g in models):
            distances[vowel] = np.array([
                hellinger_gmm(models[a], models[b], method="closed_form")
                for a, b in itertools.combinations(range(len(models)), 2)])
            stderr[vowel] = np.zeros_like(distances[vowel])
        else:
            rng = np.random.default_rng(seed + 1000 * ARPABET_VOWELS.index(vowel))
            distances[vowel], stderr[vowel] = _shared_sample_hellinger(models, num_samples, rng)
    return distances, stderr


def vowel_discriminativeness(vowel_grid, distances, mode="mean_distance"):
    """Per-vowel discriminativeness d over the fixed vowel order.

    distances maps vowel -> its pairwise Hellinger distances, as
    pairwise_vowel_distances returns them. mode "mean_distance" scores a
    vowel by the mean pairwise distance among its per-accent models (far
    apart = discriminative); "reciprocal_mean" uses 1 / mean instead. Vowels
    missing from the grid get d = 0 and are excluded.
    """
    if mode not in ("mean_distance", "reciprocal_mean"):
        raise ValueError("unknown discriminativeness mode %r" % mode)
    d = np.zeros(NUM_VOWELS)
    for i, vowel in enumerate(ARPABET_VOWELS):
        if vowel not in vowel_grid:
            continue
        mean_dist = float(np.mean(distances[vowel]))
        if mode == "mean_distance":
            d[i] = mean_dist
        else:
            if mean_dist <= 0:
                warnings.warn(
                    "vowel %r has zero mean distance; excluded in reciprocal mode" % vowel,
                    stacklevel=2,
                )
                continue
            d[i] = 1.0 / mean_dist
    return d


def vowel_weights(popularity, discriminativeness):
    """w_t = r_t * d_t, normalized to sum 1."""
    r = np.asarray(popularity, dtype=np.float64)
    d = np.asarray(discriminativeness, dtype=np.float64)
    if r.shape != (NUM_VOWELS,) or d.shape != (NUM_VOWELS,):
        raise ValueError("popularity and discriminativeness must have %d entries" % NUM_VOWELS)
    if np.any(r < 0) or np.any(d < 0):
        raise ValueError("popularity and discriminativeness must be non-negative")
    w = r * d
    total = w.sum()
    if total <= 0:
        raise ValueError("all vowel weights are zero")
    return w / total


def _vowel_vote(model_set, evidence):
    """Weighted vowel vote over (vowel index, frames, per-accent log-likelihoods).

    evidence is in vowel order, the order the totals are accumulated in.
    """
    per_vowel = np.zeros((len(model_set.accents), NUM_VOWELS))
    totals = np.zeros(len(model_set.accents))
    for t, _, ll in evidence:
        per_vowel[:, t] = ll
        totals += model_set.vowel_weights[t] * ll
    frames_used = sum(num_frames for _, num_frames, _ in evidence)
    if frames_used == 0:
        raise NoEvidenceError("no vowel evidence: every pooled vowel matrix is empty")
    best = int(np.argmax(totals))
    return ClassificationResult(
        chosen_accent=model_set.accents[best],
        scores=totals,
        per_vowel_scores=per_vowel,
        frames_used=frames_used,
    )


def _require_vowel_models(model_set):
    if model_set.vowel_grid is None or model_set.vowel_weights is None:
        raise ValueError("model set has no vowel grid / weights")


def classify_vowel_weighted(model_set, pooled):
    """Weighted combination of per-vowel GMM scores, the reference scorer.

    pooled maps vowel -> frame array; vowels with no frames (or excluded
    from the grid) contribute nothing. The pipeline scores through
    classify_vowel_thresholds; this direct form is what the property tests
    and the benchmark's independent dev-accuracy check compare it against.
    """
    _require_vowel_models(model_set)
    evidence = []
    for t, vowel in enumerate(ARPABET_VOWELS):
        data = pooled.get(vowel)
        if data is not None and len(data) and vowel in model_set.vowel_grid:
            ll = _score_models(model_set.stack(vowel), data).sum(axis=1)
            evidence.append((t, len(data), ll))
    return _vowel_vote(model_set, evidence)


def classify_vowel_thresholds(model_set, utterances, thresholds):
    """classify_vowel_weighted of each (features, segments) at each confidence threshold.

    One list per utterance, in order: entry j is classify_vowel_weighted(model_set,
    pool_vowel_features(features, filter_by_confidence(segments, thresholds[j]))), or None
    without vowel evidence: the same accent and frame count, scores within a few ulps.
    Callers check segment ends. A group of utterances ends once vowel_frames finds in it
    GROUP_FRAMES distinct frames kept at the lowest threshold; each vowel's are scored in
    one call, and bincount sums each threshold's rows.
    """
    _require_vowel_models(model_set)
    lowest = min(thresholds, default=np.inf)
    included = np.isin(ARPABET_VOWELS, list(model_set.vowel_grid))
    results, group, bound = [], [], 0
    for feats, segments in utterances:
        lo, hi, vowel, level = columns = vowel_segments(feats, segments)
        keep = (level >= lowest) & included[vowel]  # the segments any threshold keeps
        group.append((feats.data, [column[keep] for column in columns]))
        bound += int(np.sum((hi - lo)[keep]))  # at least its distinct kept frames
        if bound >= GROUP_FRAMES:
            rows = vowel_frames([c for _, c in group])
            bound = len(rows[0])  # less only where same-vowel segments overlap
            if bound >= GROUP_FRAMES:
                results, bound = results + _vote_group(model_set, group, rows, thresholds), 0
    return results + (_vote_group(model_set, group, vowel_frames([c for _, c in group]),
                                  thresholds) if group else [])


def _vote_group(model_set, group, rows, thresholds):
    """classify_vowel_thresholds' lists for a group of (frames, columns) and its kept rows.
    It gathers their frames into one block, then empties group while the block is scored."""
    utt, frame, vowel, level = rows
    data, size = np.empty((len(utt), group[0][0].shape[1])), len(group)
    ends = np.cumsum(np.bincount(utt, minlength=size))[:-1]
    for (frames, _), where in zip(group, np.split(np.argsort(utt, kind="stable"), ends)):
        data[where] = frames[frame[where]]
    group.clear()
    accents, bounds = len(model_set.accents), np.searchsorted(vowel, np.arange(NUM_VOWELS + 1))
    sums = np.zeros((len(thresholds), accents, size, NUM_VOWELS))  # filled a vowel at a time
    for t, (name, lo, hi) in enumerate(zip(ARPABET_VOWELS, bounds[:-1], bounds[1:])):
        if hi > lo:
            scores = _score_models(model_set.stack(name), data[lo:hi])
            for total, threshold in zip(sums, thresholds):
                kept = np.where(level[lo:hi] >= threshold, utt[lo:hi], size)  # bin size: the rest
                total[:, :, t] = [np.bincount(kept, row, size + 1)[:size] for row in scores]
    votes, cells = [[] for _ in range(size)], size * NUM_VOWELS
    for total, threshold in zip(sums, thresholds):
        kept = np.where(level >= threshold, utt * NUM_VOWELS + vowel, cells)
        counts = np.bincount(kept, minlength=cells + 1)[:cells].reshape(size, -1).tolist()
        for u, found in enumerate(votes):
            evidence = [(t, n, total[:, u, t]) for t, n in enumerate(counts[u]) if n]
            found.append(_vowel_vote(model_set, evidence) if evidence else None)
    return votes


@dataclass
class EvalReport:
    accuracy: float
    per_accent: dict
    confusion: np.ndarray
    accents: list
    mode: str
    feature_tag: str = ""
    seed: int | None = None
    num_utterances: int = 0

    def to_json(self):
        doc = {
            "accuracy": self.accuracy,
            "per_accent": self.per_accent,
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "accents": list(self.accents),
            "mode": self.mode,
            "feature_tag": self.feature_tag,
            "seed": self.seed,
            "num_utterances": self.num_utterances,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_text(self):
        width = max(6, max(len(a) for a in self.accents))
        lines = [
            "mode: %s    feature: %s    utterances: %d" % (self.mode, self.feature_tag,
                                                           self.num_utterances),
            "overall accuracy: %.4f" % self.accuracy,
            "",
            "%-*s  %8s    confusion (rows = truth)" % (width, "accent", "acc"),
        ]
        for i, accent in enumerate(self.accents):
            row = " ".join("%5d" % v for v in self.confusion[i])
            lines.append("%-*s  %8.4f    %s" % (width, accent, self.per_accent[accent], row))
        return "\n".join(lines) + "\n"


def confusion_report(accents, pairs, mode, feature_tag="", seed=None):
    """EvalReport over (true accent, predicted accent) pairs."""
    accent_index = {a: i for i, a in enumerate(accents)}
    confusion = np.zeros((len(accents),) * 2, dtype=np.int64)
    for accent, predicted in pairs:
        if accent not in accent_index:
            raise ValueError("unknown accent label %r in corpus" % accent)
        if predicted not in accent_index:
            raise ValueError("unknown predicted accent %r" % predicted)
        confusion[accent_index[accent], accent_index[predicted]] += 1
    row_totals = confusion.sum(axis=1)
    if np.any(row_totals == 0):
        missing = [a for a, i in accent_index.items() if row_totals[i] == 0]
        raise ValueError("no test utterances for accents: %s" % ", ".join(map(str, missing)))
    per_accent = {
        accent: float(confusion[i, i] / row_totals[i])
        for accent, i in accent_index.items()
    }
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(
        accuracy=accuracy,
        per_accent=per_accent,
        confusion=confusion,
        accents=list(accents),
        mode=mode,
        feature_tag=feature_tag,
        seed=seed,
        num_utterances=int(confusion.sum()),
    )
