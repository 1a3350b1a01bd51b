"""Bayes classifier for corpora from accent_forge's feature-archive generator.

It knows the generator's parameters (truth.json) and reads the same archives
and label files the program reads, so its accuracy is the best any classifier
can reach on that test set, up to sampling. Frames of a vowel segment are
i.i.d. N(base_mean[v] + offset[s, v], (1 + noise_floor^2) I). A segment in a
noisy split is, with a probability that depends on its confidence score,
drawn from a uniformly chosen wrong accent instead; filler segments have the
same distribution under every accent and carry no evidence.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import logsumexp

from accent_forge.frontend import read_feature_archive
from accent_forge.vowels import VOWEL_INDEX, parse_label_file


def _log_normal(x, mean, std):
    return -0.5 * ((x - mean) / std) ** 2 - math.log(std) - 0.5 * math.log(2 * math.pi)


class BayesOracle:
    def __init__(self, truth, noisy_splits=None):
        spec = truth["spec"]
        # which splits hold noise segments, when the caller re-split the corpus
        self.noisy_splits = tuple(spec["noise_splits"] if noisy_splits is None else noisy_splits)
        self.accents = truth["accents"]
        self.means = (np.asarray(truth["base_means"])[None, :, :]
                      + np.asarray(truth["offsets"]))           # accents x vowels x dim
        self.var = 1.0 + spec["noise_floor"] ** 2
        # row s masks accent s out of a log-sum-exp over accents
        self._off_diagonal = np.where(np.eye(len(self.accents), dtype=bool), -np.inf, 0.0)
        self.spec = spec
        q = spec["noise_segment_fraction"]
        # a vowel-labelled segment in a noisy split is noise with this prior
        vowel_clean = (1.0 - q) * (1.0 - spec["nonvowel_fraction"])
        self.noise_prior = q / (q + vowel_clean) if q > 0 else 0.0

    @classmethod
    def from_file(cls, path, noisy_splits=None):
        with open(path, "r", encoding="utf-8") as handle:
            return cls(json.load(handle), noisy_splits)

    def _noise_posterior(self, confidence, noisy_split):
        if not noisy_split or self.noise_prior == 0.0:
            return 0.0
        if confidence is None or not self.spec["with_confidence"]:
            return self.noise_prior
        s = self.spec
        log_noise = math.log(self.noise_prior) + _log_normal(
            confidence, s["noise_confidence_mean"], s["noise_confidence_std"])
        log_clean = math.log(1.0 - self.noise_prior) + _log_normal(
            confidence, s["clean_confidence_mean"], s["clean_confidence_std"])
        return 1.0 / (1.0 + math.exp(min(log_clean - log_noise, 700.0)))

    def accent_scores(self, data, hop, segments, noisy_split):
        """Log-likelihood of the utterance under each accent."""
        num_accents = len(self.accents)
        centers = (np.arange(data.shape[0]) + 0.5) * hop
        scores = np.zeros(num_accents)
        for seg in segments:
            if seg.label not in VOWEL_INDEX:
                continue
            frames = data[(centers >= seg.start_sec) & (centers < seg.end_sec)]
            if frames.shape[0] == 0:
                continue
            means = self.means[:, VOWEL_INDEX[seg.label], :]      # accents x dim
            sq = ((frames[None, :, :] - means[:, None, :]) ** 2).sum(axis=(1, 2))
            seg_ll = -0.5 * sq / self.var                          # common terms dropped
            pi = self._noise_posterior(seg.confidence, noisy_split)
            if pi <= 0.0:
                scores += seg_ll
                continue
            # a wrong accent, uniform over the others
            others = logsumexp(seg_ll[None, :] + self._off_diagonal, axis=1)
            others -= math.log(num_accents - 1)
            mixed = np.logaddexp(math.log1p(-pi) + seg_ll if pi < 1.0 else -np.inf,
                                 math.log(pi) + others)
            scores += mixed
        return scores

    def classify(self, archive_path, label_path, split, max_frames):
        feats = read_feature_archive(archive_path).head(max_frames)
        segments = parse_label_file(label_path)
        noisy = self.spec["noise_segment_fraction"] > 0 and split in self.noisy_splits
        scores = self.accent_scores(feats.data, feats.frame_hop_sec, segments, noisy)
        return self.accents[int(np.argmax(scores))]

    def accuracy(self, manifest, max_frames):
        """Share of test utterances the oracle gets right, and their count."""
        test = manifest.with_split("test")
        right = sum(
            self.classify(manifest.resolve(e.audio), manifest.resolve(e.label),
                          e.split, max_frames) == e.accent
            for _, e in test
        )
        return right / len(test), len(test)
