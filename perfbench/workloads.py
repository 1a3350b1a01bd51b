"""The three workloads: their configs, their corpora and their output checks.

A workload config starts from PipelineConfig() and changes only what the
table in README.md lists. Corpora are drawn from the --seed argument alone.
Checks use the generators' own parameters or properties the method must
have; none compares against stored outputs of an earlier run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from accent_forge import pipeline
from accent_forge.classify import classify_vowel_weighted
from accent_forge.frontend import read_feature_archive
from accent_forge.gmm import read_model
from accent_forge.pipeline import CorpusManifest, PipelineConfig, SyntheticSpec, load_model_set
from accent_forge.vowels import (
    ARPABET_VOWELS,
    filter_by_confidence,
    parse_label_file,
    pool_vowel_features,
)

from oracle import BayesOracle
from synth_audio import AudioSpec, generate_audio_corpus

CHANCE_MARGIN = 0.10      # accuracy must exceed 1/7 by this much
VAD_TOLERANCE = 0.03      # retained fraction within +-3 pts of the speech fraction
TAG_AGREEMENT = 0.95      # share of archive frames whose tag matches the labels


@dataclass
class Workload:
    name: str
    configure: object         # seed -> PipelineConfig
    setup: object             # (cfg, workspace root, seed) -> setup info
    checks: object            # (cfg, Workspace, info, reports) -> [(label, ok)]
    calibrate: bool = False

    def train_stages(self, cfg):
        stages = ["vad", "features"]
        if cfg.transforms.enabled:
            stages.append("transforms")
        stages += ["ubm", "adapt", "vowel-models", "weights"]
        if self.calibrate:
            stages.append("calibrate")
        return stages


# ---------------------------------------------------------------------------
# wav_paper: labelled audio through VAD, PLP, tagging and PCA/HLDA

WAV_UTTS_PER_ACCENT = 27
WAV_SECONDS = {"train": 1.5, "dev": 1.5, "test": 20.0}


def wav_configure(seed):
    cfg = PipelineConfig()
    cfg.transforms.max_iters = 20
    cfg.ubm.components = 32
    cfg.vowels.components = 4
    cfg.weights.hellinger_samples = 4000
    cfg.corpus.seed = seed
    return cfg.validate()


def wav_setup(cfg, root, seed):
    manifest, truth = generate_audio_corpus(
        AudioSpec(seed=seed), root, WAV_UTTS_PER_ACCENT, WAV_SECONDS
    )
    return {"truth": truth}


def _expected_tags(truth_utt, segments_frames, plan_hop, plan_len, fs):
    """Vowel tag (index + 1, 0 for none) of every frame the VAD kept."""
    bounds = np.array([s for s, _, _ in truth_utt["segments"]] + [truth_utt["segments"][-1][1]])
    labels = [label for _, _, label in truth_utt["segments"]]
    codes = np.array([ARPABET_VOWELS.index(l) + 1 if l in ARPABET_VOWELS else 0
                      for l in labels])
    tags = []
    for start_f, end_f in segments_frames:
        centers = (np.arange(start_f, end_f) * plan_hop + plan_len / 2.0)
        seg = np.searchsorted(bounds, centers, side="right") - 1
        tags.append(codes[np.clip(seg, 0, len(codes) - 1)])
    return np.concatenate(tags) if tags else np.zeros(0, dtype=int)


def wav_checks(cfg, ws, info, reports):
    truth = info["truth"]
    manifest = CorpusManifest.load(ws.manifest_path)
    fs = 16000
    hop = int(round(fs * cfg.signal.hop_ms / 1000.0))
    flen = int(round(fs * cfg.signal.frame_ms / 1000.0))
    kept = total = 0
    generated = []
    worst_tag = 1.0
    by_audio = {u["audio"]: u for u in truth["utterances"]}
    for index, entry in enumerate(manifest.entries):
        utt = ws.utt_id(index, entry)
        meta = json.loads((ws.root / "features/vad" / (utt + ".json")).read_text())
        kept += sum(e - s for s, e in meta["segments_frames"])
        total += meta["frames"]
        truth_utt = by_audio[entry.audio]
        generated.append(truth_utt["speech_fraction"])
        tags = read_feature_archive(ws.root / "features/feat" / (utt + ".aff")).tags
        expected = _expected_tags(truth_utt, meta["segments_frames"], hop, flen, fs)
        agree = float(np.mean(tags == expected)) if tags is not None and len(tags) == len(expected) else 0.0
        worst_tag = min(worst_tag, agree)
    retained = kept / total
    speech = float(np.mean(generated))
    base = reports["baseline"].accuracy
    vowel = reports["vowel"].accuracy
    return [
        ("VAD retained %.3f within %.2f of speech fraction %.3f"
         % (retained, VAD_TOLERANCE, speech), abs(retained - speech) <= VAD_TOLERANCE),
        ("worst archive tag agreement %.3f >= %.2f" % (worst_tag, TAG_AGREEMENT),
         worst_tag >= TAG_AGREEMENT),
        ("vowel accuracy %.3f >= baseline %.3f" % (vowel, base), vowel >= base),
    ]


# ---------------------------------------------------------------------------
# aff_train and aff_score: feature-archive corpora from the program's generator

AFF_DISCRIMINATIVE = ("ah", "ih", "iy", "eh", "ae")


def aff_train_configure(seed):
    cfg = PipelineConfig()
    cfg.transforms.enabled = False
    cfg.ubm.components = 64
    cfg.vowels.components = 4
    cfg.vowels.min_frames = 3000
    cfg.corpus.seed = seed
    cfg.synth = SyntheticSpec(
        num_accents=7, feature_dim=20, utterances_per_accent=130,
        frames_per_utterance=120, accent_separation=0.5,
        discriminative_vowels=AFF_DISCRIMINATIVE, seed=seed,
    )
    return cfg.validate()


# the generator adds noise to its own "train" share (70%); the benchmark makes
# that share dev + test and trains on the clean rest
AFF_SCORE_RELABEL = {"train": (("dev", 8 / 23), ("test", 15 / 23)),
                     "dev": (("train", 1.0),), "test": (("train", 1.0),)}


def aff_score_configure(seed):
    cfg = PipelineConfig()
    cfg.transforms.enabled = False
    cfg.ubm.components = 32
    cfg.adapt.adapt_weights = False
    cfg.adapt.adapt_vars = False
    cfg.vowels.components = 4
    cfg.weights.hellinger_samples = 4000
    cfg.vowels.use_calibrated_threshold = True
    cfg.corpus.seed = seed
    cfg.synth = SyntheticSpec(
        num_accents=7, feature_dim=5, utterances_per_accent=33,
        frames_per_utterance=2000, accent_separation=0.15,
        discriminative_vowels=AFF_DISCRIMINATIVE, with_confidence=True,
        noise_segment_fraction=0.35, noise_confidence_mean=-85.0,
        clean_confidence_mean=-10.0,
        noise_splits=("train",), seed=seed,
    )
    return cfg.validate()


# aff_train keeps the generator's train share for training and tests on
# everything else, so accuracy rests on several hundred utterances
AFF_TRAIN_RELABEL = {"train": (("train", 0.8), ("test", 0.2)), "dev": (("dev", 0.1), ("test", 0.9)),
                     "test": (("test", 1.0),)}


def _relabel(manifest, plan):
    """Move each accent's generated split shares into new splits, in order."""
    generated = [e.split for e in manifest.entries]
    for accent in manifest.accents():
        for old_split, shares in plan.items():
            group = [e for e, split in zip(manifest.entries, generated)
                     if e.accent == accent and split == old_split]
            cursor = 0
            for new_split, share in shares:
                take = int(round(share * len(group)))
                for entry in group[cursor:cursor + take]:
                    entry.split = new_split
                cursor += take
    return manifest


def aff_train_setup(cfg, root, seed):
    manifest = pipeline.generate_synthetic_corpus(cfg.synth, root)
    _relabel(manifest, AFF_TRAIN_RELABEL).save(Path(root) / "manifest.tsv")
    return {}


def aff_score_setup(cfg, root, seed):
    """Generate, then swap the split so the noisy majority is dev + test."""
    manifest = pipeline.generate_synthetic_corpus(cfg.synth, root)
    _relabel(manifest, AFF_SCORE_RELABEL).save(Path(root) / "manifest.tsv")
    return {"noisy_splits": ("dev", "test")}


def _weights_checks(cfg, ws):
    doc = json.loads((ws.root / "models/vowel_weights.json").read_text())
    weights = np.asarray(doc["weights"])
    popularity = np.asarray(doc["popularity"])
    is_disc = np.array([v in cfg.synth.discriminative_vowels for v in ARPABET_VOWELS])
    top = ARPABET_VOWELS[int(np.argmax(weights))]
    return [
        ("vowel weights sum to 1 (%.12f)" % weights.sum(), abs(weights.sum() - 1.0) < 1e-9),
        ("largest weight on a discriminative vowel (%s)" % top,
         top in cfg.synth.discriminative_vowels),
        ("discriminative vowels hold more of the weight (%.3f) than of the popularity (%.3f)"
         % (weights[is_disc].sum(), popularity[is_disc].sum()),
         weights[is_disc].sum() > popularity[is_disc].sum()),
    ]


def _oracle_checks(cfg, ws, info, reports):
    oracle = BayesOracle.from_file(ws.root / "truth.json", info.get("noisy_splits"))
    manifest = CorpusManifest.load(ws.manifest_path)
    best, n = oracle.accuracy(manifest, cfg.corpus.max_test_frames)
    slack = 3.0 * math.sqrt(max(best * (1.0 - best), 0.25 / n) / n)
    out = []
    for mode, report in reports.items():
        out.append(("%s accuracy %.3f <= Bayes oracle %.3f + slack %.3f"
                    % (mode, report.accuracy, best, slack), report.accuracy <= best + slack))
    return out


def aff_train_checks(cfg, ws, info, reports):
    return _oracle_checks(cfg, ws, info, reports) + _weights_checks(cfg, ws)


def _dev_vowel_accuracy(ws, threshold):
    """Vowel-mode dev accuracy at one confidence threshold, from the archives."""
    manifest = CorpusManifest.load(ws.manifest_path)
    model_set = load_model_set(ws, "vowel")
    dev = manifest.with_split("dev")
    right = 0
    for index, entry in dev:
        stem = ws.root / "features/feat" / ws.utt_id(index, entry)
        kept = filter_by_confidence(parse_label_file(stem.with_suffix(".lab")), threshold)
        pooled = pool_vowel_features(read_feature_archive(stem.with_suffix(".aff")), kept)
        right += classify_vowel_weighted(model_set, pooled).chosen_accent == entry.accent
    return right, len(dev)


def aff_score_checks(cfg, ws, info, reports):
    """The calibrated threshold must drop the noise, unless dropping it gains
    nothing on this seed's dev set; calibration then keeps the lowest grid
    value by its tie rule, and the check confirms there was no gain."""
    doc = json.loads((ws.root / "models/confidence_threshold.json").read_text())
    threshold = doc["threshold"]
    noise_mean = cfg.synth.noise_confidence_mean
    if threshold > noise_mean:
        calibration = ("calibrated threshold %r > noise confidence mean %r"
                       % (threshold, noise_mean), True)
    else:
        above = min(t for t in cfg.calibrate.grid if t > noise_mean)
        kept, n = _dev_vowel_accuracy(ws, threshold)
        dropped, _ = _dev_vowel_accuracy(ws, above)
        calibration = ("calibrated threshold %r <= noise mean %r, and dropping the noise "
                       "(threshold %r) gains nothing on dev: %d vs %d of %d"
                       % (threshold, noise_mean, above, dropped, kept, n), dropped <= kept)
    return _oracle_checks(cfg, ws, info, reports) + _weights_checks(cfg, ws) + [calibration]


# ---------------------------------------------------------------------------
# checks every workload shares


def common_checks(ws, reports):
    manifest = CorpusManifest.load(ws.manifest_path)
    test_ids = sorted(ws.utt_id(i, e) for i, e in manifest.with_split("test"))
    out = []
    for mode, report in reports.items():
        rows = (ws.root / "reports" / ("predictions_%s.tsv" % mode)).read_text().splitlines()
        ids = sorted(line.split("\t")[0] for line in rows)
        out.append(("%s: one prediction row per test utterance (%d rows, %d test)"
                    % (mode, len(ids), len(test_ids)), ids == test_ids))
        out.append(("%s: num_utterances %d == test split %d"
                    % (mode, report.num_utterances, len(test_ids)),
                    report.num_utterances == len(test_ids)))
        chance = 1.0 / len(report.accents)
        out.append(("%s accuracy %.3f > chance %.3f + %.2f"
                    % (mode, report.accuracy, chance, CHANCE_MARGIN),
                    report.accuracy > chance + CHANCE_MARGIN))
    sums = [read_model(p).weights.sum() for p in sorted((ws.root / "models").rglob("*.agm"))]
    worst = max(abs(s - 1.0) for s in sums)
    out.append(("all %d models' weights sum to 1 (worst error %.1e)" % (len(sums), worst),
                worst < 1e-9))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wav_paper", wav_configure, wav_setup, wav_checks),
        Workload("aff_train", aff_train_configure, aff_train_setup, aff_train_checks),
        Workload("aff_score", aff_score_configure, aff_score_setup, aff_score_checks,
                 calibrate=True),
    )
}
