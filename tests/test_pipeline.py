"""Tests for configuration, splitting, synthetic corpora, stages, and the CLI."""

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import accent_forge
from accent_forge import classify, pipeline
from accent_forge.adapt import map_adapt
from accent_forge.cli import _build_parser
from accent_forge.cli import main as cli_main
from accent_forge.errors import ConfigError, FormatError, MissingPrerequisiteError
from accent_forge.frontend import (
    FeatureMatrix,
    append_deltas,
    feature_warp,
    mvn,
    plp_static,
    read_feature_archive,
    write_feature_archive,
)
from accent_forge.gmm import DiagGmm, read_model, write_model
from accent_forge.pipeline import (
    MODES,
    STAGES,
    CorpusManifest,
    ManifestEntry,
    PipelineConfig,
    SyntheticSpec,
    Workspace,
    _capped_labelled,
    _tag_frames,
    config_from_text,
    config_to_text,
    corpus_stats,
    generate_synthetic_corpus,
    run_stage,
    split_corpus,
    stage_chain,
)
from accent_forge.signal import FramePlan, frame_signal, read_wav, write_wav
from accent_forge.vowels import (
    ARPABET_VOWELS,
    PhoneSegment,
    calibrate_threshold,
    parse_label_file,
    write_label_file,
)
from test_signal import synthesize_tone_silence
from test_vowels import one_utterance_vowel_frames, vowel_frame_levels


def _small_cfg():
    cfg = PipelineConfig()
    cfg.transforms.enabled = False
    cfg.ubm.components = 4
    cfg.ubm.em_iters = 4
    cfg.ubm.final_em_iters = 6
    cfg.vowels.components = 2
    cfg.vowels.min_frames = 40
    cfg.weights.hellinger_samples = 2000
    cfg.synth = SyntheticSpec(
        num_accents=3,
        feature_dim=4,
        utterances_per_accent=12,
        frames_per_utterance=120,
        accent_separation=4.0,
        seed=50,
    )
    cfg.corpus.seed = 9
    return cfg.validate()


# a non-default value for every key of the config file, in file order
_EVERY_KEY = """
corpus.seed = 7
corpus.max_test_frames = 1500
signal.frame_ms = 20.0
signal.hop_ms = 5.0
signal.energy_weight = 4.0
signal.centroid_weight = 1.5
signal.min_segment_frames = 3
frontend.lp_order = 14
frontend.num_ceps = 12
frontend.num_filters = 19
frontend.delta_window = 3
frontend.warp_window = 201
frontend.mvn_before_warp = false
transforms.enabled = false
transforms.pca_dim = 24
transforms.hlda_dim = 16
transforms.context = 2
transforms.max_iters = 50
transforms.tol = 1e-05
ubm.components = 64
ubm.em_iters = 3
ubm.final_em_iters = 7
adapt.relevance_weight = 8.0
adapt.relevance_mean = 4.0
adapt.relevance_var = 2.0
adapt.weights = false
adapt.means = false
adapt.vars = false
vowels.components = 8
vowels.min_frames = 100
vowels.confidence_threshold = -55.5
vowels.use_calibrated_threshold = true
weights.mode = reciprocal_mean
weights.hellinger_samples = 3000
weights.hellinger_seed = 5
calibrate.grid = -inf,-75.0,-25.0
synth.num_accents = 4
synth.feature_dim = 6
synth.utterances_per_accent = 9
synth.frames_per_utterance = 200
synth.segment_frames_min = 5
synth.segment_frames_max = 25
synth.vowel_popularity = 1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0,11.0,12.0,13.0,14.0,15.0
synth.accent_separation = 2.5
synth.discriminative_vowels = aa,iy
synth.nonvowel_fraction = 0.2
synth.noise_segment_fraction = 0.1
synth.noise_splits = test
synth.with_confidence = true
synth.clean_confidence_mean = -15.0
synth.clean_confidence_std = 2.0
synth.noise_confidence_mean = -70.0
synth.noise_confidence_std = 4.0
synth.noise_floor = 0.1
synth.seed = 99
"""


class TestConfig:
    def test_roundtrip(self):
        cfg = _small_cfg()
        text = config_to_text(cfg)
        back = config_from_text(text)
        assert config_to_text(back) == text

        cfg = config_from_text(_EVERY_KEY)
        default = PipelineConfig()
        unchanged = [
            "%s.%s" % (section.name, f.name)
            for section in dataclasses.fields(PipelineConfig)
            for f in dataclasses.fields(getattr(cfg, section.name))
            if getattr(getattr(cfg, section.name), f.name)
            == getattr(getattr(default, section.name), f.name)
        ]
        assert unchanged == ["synth.frame_hop_sec"]
        assert cfg.frontend.warp_window_frames == 201
        assert (cfg.adapt.adapt_weights, cfg.adapt.adapt_means, cfg.adapt.adapt_vars) == (
            False, False, False)
        assert cfg.calibrate.grid == (float("-inf"), -75.0, -25.0)
        assert cfg.synth.vowel_popularity == tuple(float(v) for v in range(1, 16))
        assert cfg.synth.discriminative_vowels == ("aa", "iy")
        assert cfg.synth.noise_splits == ("test",)
        text = config_to_text(cfg)
        assert config_from_text(text) == cfg
        assert [line for line in text.splitlines() if "=" in line] == (
            _EVERY_KEY.split("\n")[1:-1])

    def test_frame_hop_is_not_a_config_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_text("synth.frame_hop_sec = 0.02\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_text("bogus.key = 1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            config_from_text("ubm.components = many\n")

    def test_dimension_chain_violations(self):
        with pytest.raises(ConfigError, match="PCA dim"):
            config_from_text("transforms.pca_dim = 40\n")
        with pytest.raises(ConfigError, match="HLDA dim"):
            config_from_text("transforms.pca_dim = 6\ntransforms.hlda_dim = 20\n")

    def test_component_count_power_of_two(self):
        with pytest.raises(ConfigError, match="power of 2"):
            config_from_text("ubm.components = 48\n")

    def test_too_few_hellinger_samples(self):
        for samples in (999, 0, -5):
            with pytest.raises(ConfigError, match="hellinger_samples"):
                config_from_text("weights.hellinger_samples = %d\n" % samples)
        assert config_from_text("weights.hellinger_samples = 1000\n").weights.hellinger_samples \
            == 1000

    def test_nan_thresholds_rejected(self):
        for text in ("calibrate.grid = -inf,nan,-50\n",
                     "vowels.confidence_threshold = nan\n",
                     "calibrate.grid = -inf,nan,-50\nvowels.confidence_threshold = nan\n"):
            with pytest.raises(ConfigError, match="must not be NaN"):
                config_from_text(text)
        cfg = config_from_text("calibrate.grid = -inf,-50\nvowels.confidence_threshold = -inf\n")
        assert cfg.calibrate.grid == (float("-inf"), -50.0)

    @pytest.mark.parametrize("text, match", [
        ("adapt.relevance_mean = -8\n", "adapt: relevance_mean must be non-negative"),
        ("frontend.warp_window = 4\n", "frontend: warp window must be odd"),
        ("frontend.warp_window = 1\n", "frontend: warp window must be odd"),
        ("frontend.num_ceps = 20\n", "frontend: num_ceps must be <= lp_order"),
        ("frontend.num_filters = 2\n", "frontend: need at least 3"),
        ("corpus.max_test_frames = 0\n", "max_test_frames must be at least 1"),
        ("frontend.delta_window = 0\n", "frontend: delta window must be at least 1, got 0"),
        ("frontend.delta_window = -1\n", "frontend: delta window must be at least 1, got -1"),
        ("corpus.seed = -1\n", "corpus.seed must be non-negative, got -1"),
        ("synth.seed = -3\n", "synth.seed must be non-negative, got -3"),
        ("weights.hellinger_seed = -1\n", "weights.hellinger_seed must be non-negative"),
    ])
    def test_section_checks_run_on_file_values(self, text, match):
        with pytest.raises(ConfigError, match=match):
            config_from_text(text)

    def test_comments_and_blanks(self):
        cfg = config_from_text("# a comment\n\nubm.components = 64  # trailing\n")
        assert cfg.ubm.components == 64

    def test_defaults_match_spec_scale(self):
        cfg = PipelineConfig().validate()
        assert cfg.ubm.components == 256
        assert cfg.transforms.pca_dim == 30
        assert cfg.transforms.hlda_dim == 20
        assert cfg.transforms.context == 1
        assert 3 * cfg.frontend.num_ceps == 39
        assert cfg.corpus.max_test_frames == 2000


class TestSplit:
    def _manifest(self, counts):
        entries = []
        for accent, count in counts.items():
            for i in range(count):
                entries.append(ManifestEntry("u_%s_%d.aff" % (accent, i), None, accent))
        return CorpusManifest(entries=entries, base_dir=Path("."))

    def test_hundred_split(self):
        manifest = split_corpus(self._manifest({"a": 100}), seed=1)
        splits = [e.split for e in manifest.entries]
        assert splits.count("train") == 70
        assert splits.count("dev") == 15
        assert splits.count("test") == 15

    def test_seven_split(self):
        manifest = split_corpus(self._manifest({"a": 7}), seed=1)
        splits = [e.split for e in manifest.entries]
        assert splits.count("train") == 5
        assert splits.count("dev") == 1
        assert splits.count("test") == 1

    def test_deterministic(self):
        base = self._manifest({"a": 20, "b": 13})
        one = split_corpus(base, seed=77)
        two = split_corpus(base, seed=77)
        assert [e.split for e in one.entries] == [e.split for e in two.entries]

    def test_partition(self):
        manifest = split_corpus(self._manifest({"a": 11, "b": 9}), seed=2)
        assert all(e.split in ("train", "dev", "test") for e in manifest.entries)

    def test_stratified_per_accent(self):
        manifest = split_corpus(self._manifest({"a": 40, "b": 40}), seed=3)
        for accent in ("a", "b"):
            rows = [e for e in manifest.entries if e.accent == accent]
            assert sum(e.split == "train" for e in rows) == 28
            assert sum(e.split == "dev" for e in rows) == 6

    def test_too_small_accent(self):
        with pytest.raises(ValueError, match="at least 7"):
            split_corpus(self._manifest({"a": 6}), seed=1)


class TestManifestFile:
    def test_save_load_roundtrip(self, tmp_path):
        entries = [
            ManifestEntry("x.wav", "x.lab", "ar", "train"),
            ManifestEntry("y.wav", None, "fr", "test"),
        ]
        manifest = CorpusManifest(entries=entries, base_dir=tmp_path)
        path = tmp_path / "m.tsv"
        manifest.save(path)
        back = CorpusManifest.load(path)
        assert back.entries == entries
        assert back.accents() == ["ar", "fr"]

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a.wav\t-\tar\tvalidation\n")
        with pytest.raises(ConfigError, match="unknown split"):
            CorpusManifest.load(path)


class TestSyntheticCorpus:
    def test_deterministic_bytes(self, tmp_path):
        spec = SyntheticSpec(num_accents=2, utterances_per_accent=8,
                             frames_per_utterance=60, seed=5)
        a = tmp_path / "one"
        b = tmp_path / "two"
        generate_synthetic_corpus(spec, a)
        generate_synthetic_corpus(spec, b)
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_popularity_recovered(self, tmp_path):
        spec = SyntheticSpec(num_accents=3, utterances_per_accent=40,
                             frames_per_utterance=400, nonvowel_fraction=0.0, seed=6)
        manifest = generate_synthetic_corpus(spec, tmp_path)
        counts = np.zeros(len(ARPABET_VOWELS))
        for entry in manifest.entries:
            feats = read_feature_archive(manifest.resolve(entry.audio))
            for t in range(len(ARPABET_VOWELS)):
                counts[t] += np.count_nonzero(feats.tags == t + 1)
        observed = counts / counts.sum()
        np.testing.assert_allclose(observed, spec.popularity(), atol=0.02)
        # the qualitative skew: ah much more frequent than oy
        assert observed[ARPABET_VOWELS.index("ah")] > observed[ARPABET_VOWELS.index("oy")]

    def test_split_column_present(self, tmp_path):
        spec = SyntheticSpec(num_accents=2, utterances_per_accent=10,
                             frames_per_utterance=50, seed=7)
        manifest = generate_synthetic_corpus(spec, tmp_path)
        assert all(e.split in ("train", "dev", "test") for e in manifest.entries)

    def test_labels_match_tags(self, tmp_path):
        from accent_forge.vowels import parse_label_file, pool_vowel_features

        spec = SyntheticSpec(num_accents=2, utterances_per_accent=8,
                             frames_per_utterance=80, seed=8)
        manifest = generate_synthetic_corpus(spec, tmp_path)
        entry = manifest.entries[0]
        feats = read_feature_archive(manifest.resolve(entry.audio))
        segs = parse_label_file(manifest.resolve(entry.label))
        by_seg = pool_vowel_features(feats, segs)
        for i, vowel in enumerate(ARPABET_VOWELS):  # tag = vowel index + 1
            np.testing.assert_array_equal(by_seg[vowel], feats.data[feats.tags == i + 1])


def _workspace_digest(root):
    digest = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digest


@pytest.fixture(scope="module")
def trained_workspace(tmp_path_factory):
    """A synthetic workspace trained through the weights stage."""
    root = tmp_path_factory.mktemp("trained") / "ws"
    generate_synthetic_corpus(_small_cfg().synth, root)
    for stage in ("vad", "features", "ubm", "adapt", "vowel-models", "weights"):
        run_stage(stage, _small_cfg(), Workspace(root))
    return root


_TRAIN_STAGES = ("transforms", "ubm", "adapt", "vowel-models")
# (stage, split, accent): the split loses every entry, or that accent's train
# entries move to test
_EMPTIED = ([(stage, "train", None) for stage in _TRAIN_STAGES]
            + [("classify", "test", None), ("calibrate", "dev", None)]
            + [(stage, "train", "accent3") for stage in _TRAIN_STAGES])


class TestStages:
    @pytest.mark.parametrize("stage, split, accent", _EMPTIED,
                             ids=["-".join(filter(None, case)) for case in _EMPTIED])
    def test_empty_split_is_a_missing_prerequisite(self, trained_workspace, tmp_path,
                                                   stage, split, accent):
        root = tmp_path / "ws"
        shutil.copytree(trained_workspace, root)
        manifest = CorpusManifest.load(root / "manifest.tsv")
        target = "dev" if split == "train" else "train"
        for entry in manifest.entries:
            if entry.split == split and accent in (None, entry.accent):
                entry.split = target if accent is None else "test"
        manifest.save(root / "manifest.tsv")
        vowel_set = root / "models" / "vowel_set.json"
        if stage == "vowel-models" and accent is None:
            vowel_set.unlink()
        models = _workspace_digest(root / "models")
        cfg = _small_cfg()
        cfg.transforms.enabled = stage == "transforms"
        cfg.transforms.pca_dim, cfg.transforms.hlda_dim = 4, 3  # the corpus is 4-dim
        message = ("no %s utterances" % split if accent is None
                   else "no train utterances of accent %s;" % accent)
        with pytest.raises(MissingPrerequisiteError, match=message):
            run_stage(stage, cfg, Workspace(root))
        if stage == "vowel-models" and accent is None:
            assert not vowel_set.exists()
        assert _workspace_digest(root / "models") == models

    def test_unlabelled_dev_utterance_is_a_missing_prerequisite(self, trained_workspace,
                                                                tmp_path):
        root = tmp_path / "ws"
        shutil.copytree(trained_workspace, root)
        manifest = CorpusManifest.load(root / "manifest.tsv")
        ws = Workspace(root)
        index, entry = next((i, e) for i, e in enumerate(manifest.entries) if e.split == "dev")
        utt = ws.utt_id(index, entry)
        (root / "features" / "feat" / (utt + ".lab")).unlink()
        with pytest.raises(MissingPrerequisiteError, match="utterance %s has no label" % utt):
            run_stage("calibrate", _small_cfg(), ws)
        assert not (root / "models" / "confidence_threshold.json").exists()

    @pytest.mark.parametrize("group_frames", [classify.GROUP_FRAMES, 40])
    def test_calibrate_scores_the_dev_split_in_groups(self, trained_workspace, tmp_path,
                                                      group_frames):
        """calibrate scores the whole dev split in one grouped call, and calibrate_threshold's
        classifier gives each utterance its own predictions, in whatever order it asks."""
        root = tmp_path / "ws"
        shutil.copytree(trained_workspace, root)
        cfg, ws = _small_cfg(), Workspace(root)
        grid = sorted(cfg.calibrate.grid)
        model_set = pipeline.load_model_set(ws, "vowel")
        run = pipeline.StageRun(cfg, ws, "vowel")
        dev = [item[2:] for item in _capped_labelled(run, run.utterances("dev"))]
        alone = [[None if r is None else r.chosen_accent for r in results]
                 for [results] in (classify.classify_vowel_thresholds(model_set, [item], grid)
                                   for item in dev)]
        asked = []

        def backwards(dev_corpus, grid_values, classifier):
            dev_corpus = list(dev_corpus)
            asked.extend(classifier(feats, segments) for feats, segments, _ in dev_corpus[::-1])
            return calibrate_threshold(dev_corpus, grid_values, classifier)

        with mock.patch.object(classify, "GROUP_FRAMES", group_frames), \
                mock.patch.object(classify, "_score_models",
                                  wraps=classify._score_models) as scorer, \
                mock.patch.object(pipeline, "calibrate_threshold", backwards):
            run_stage("calibrate", cfg, ws)
        assert asked[::-1] == alone
        indices = [ARPABET_VOWELS.index(v) for v in model_set.vowel_grid]
        kept = 0
        for feats, segments in dev:
            _, vowel, level = one_utterance_vowel_frames(feats, segments)
            kept += int(np.count_nonzero((level >= grid[0]) & np.isin(vowel, indices)))
        assert kept > group_frames or group_frames == classify.GROUP_FRAMES
        assert scorer.call_count <= len(model_set.vowel_grid) * (1 + kept // group_frames)

    @pytest.mark.parametrize("stage, split, output", [
        ("calibrate", "dev", "models/confidence_threshold.json"),
        ("classify", "test", "reports/predictions_vowel.tsv"),
    ])
    def test_label_past_the_end_raises_despite_the_cap(self, trained_workspace, tmp_path,
                                                       stage, split, output):
        """A vowel label past the utterance end is an error on the dev and test
        splits too, as in training, even where the duration cap would clip it away."""
        root = tmp_path / "ws"
        shutil.copytree(trained_workspace, root)
        manifest = CorpusManifest.load(root / "manifest.tsv")
        ws = Workspace(root)
        index, entry = next((i, e) for i, e in enumerate(manifest.entries) if e.split == split)
        utt = ws.utt_id(index, entry)
        label_path = root / "features" / "feat" / (utt + ".lab")
        duration = read_feature_archive(label_path.with_suffix(".aff")).num_frames * 0.01
        write_label_file(label_path, parse_label_file(label_path)
                         + [PhoneSegment(duration, duration + 0.3, "aa")])
        cfg = _small_cfg()
        cfg.corpus.max_test_frames = 60  # half of every utterance
        with pytest.raises(ValueError, match=r"utterance %s: segment \[1\.2, 1\.5\) extends "
                                             r"beyond the utterance end 1\.2" % utt):
            run_stage(stage, cfg, ws, mode="vowel")
        assert not (root / output).exists()

    def test_train_label_past_the_end_names_the_utterance(self, trained_workspace, tmp_path):
        root = tmp_path / "ws"
        shutil.copytree(trained_workspace, root)
        manifest = CorpusManifest.load(root / "manifest.tsv")
        ws = Workspace(root)
        index, entry = next((i, e) for i, e in enumerate(manifest.entries) if e.split == "train")
        utt = ws.utt_id(index, entry)
        label_path = root / "features" / "feat" / (utt + ".lab")
        write_label_file(label_path, parse_label_file(label_path)
                         + [PhoneSegment(1.2, 1.5, "aa")])  # the utterance is 120 frames
        shutil.rmtree(root / "models" / "vowels")
        (root / "models" / "vowel_set.json").unlink()
        with pytest.raises(ValueError, match=r"utterance %s: segment \[1\.2, 1\.5\) extends "
                                             r"beyond the utterance end 1\.2" % utt):
            run_stage("vowel-models", _small_cfg(), ws)
        assert not (root / "models" / "vowel_set.json").exists()
        assert not list((root / "models" / "vowels").glob("*.agm"))

    def test_adapt_labels_each_model_with_its_accent(self, trained_workspace):
        models = trained_workspace / "models"
        accents = json.loads((models / "accent_set.json").read_text())["accents"]
        assert accents == ["accent1", "accent2", "accent3"]
        assert sorted(path.stem for path in (models / "accents").glob("*.agm")) == accents
        for accent in accents:
            assert read_model(models / "accents" / (accent + ".agm")).label == accent

    def _adapt_error(self, trained_workspace, tmp_path, edit, match):
        """Run adapt on an edited copy of the workspace; it raises before writing a model."""
        root = tmp_path / "ws"
        shutil.copytree(trained_workspace, root)
        shutil.rmtree(root / "models" / "accents")
        (root / "models" / "accent_set.json").unlink()
        edit(root, CorpusManifest.load(root / "manifest.tsv"))
        with pytest.raises(ValueError, match=match):
            run_stage("adapt", _small_cfg(), Workspace(root))
        assert not list((root / "models").glob("accents/*.agm"))
        assert not (root / "models" / "accent_set.json").exists()

    def test_adapt_needs_two_accents(self, trained_workspace, tmp_path):
        def one_accent(root, manifest):
            for entry in manifest.entries:
                entry.accent = "accent1"
            manifest.save(root / "manifest.tsv")

        self._adapt_error(trained_workspace, tmp_path, one_accent, "at least 2 accents")

    def test_adapt_rejects_an_accent_without_frames(self, trained_workspace, tmp_path):
        def empty_accent2(root, manifest):  # the middle accent: accent1 comes before it
            ws = Workspace(root)
            for index, entry in enumerate(manifest.entries):
                if entry.split == "train" and entry.accent == "accent2":
                    path = root / "features" / "feat" / (ws.utt_id(index, entry) + ".aff")
                    write_feature_archive(path, FeatureMatrix(np.zeros((0, 4))))

        self._adapt_error(trained_workspace, tmp_path, empty_accent2,
                          "accent 'accent2' has no adaptation frames")

    def test_cap_checks_labels_against_the_whole_utterance(self):
        class OneUtterance:  # the parts of a StageRun that _capped_labelled reads
            cfg = _small_cfg()
            cfg.corpus.max_test_frames = 50

            def __init__(self, segments):
                self.segments = segments

            def utterances(self, split):
                return [("u1", split)]

            def features(self, utt):
                return FeatureMatrix(np.zeros((100, 2)))

            def labels(self, utt):
                return self.segments

        inside = [PhoneSegment(0.0, 0.3, "aa"), PhoneSegment(0.3, 0.8, "iy"),
                  PhoneSegment(0.8, 1.0, "uw")]
        [(utt, entry, capped, segments)] = _capped_labelled(OneUtterance(inside), [("u1", "dev")])
        assert (utt, entry, capped.num_frames, segments) == ("u1", "dev", 50, inside)
        levels = vowel_frame_levels(capped, segments)  # past the cap is not scored
        assert [int(np.count_nonzero(~np.isnan(levels[ARPABET_VOWELS.index(v)])))
                for v in ("aa", "iy", "uw")] == [30, 20, 0]
        past_end = OneUtterance([inside[0], PhoneSegment(0.5, 3.0, "iy")])
        with pytest.raises(ValueError, match=r"utterance u1: segment \[0\.5, 3\) extends "
                                             r"beyond the utterance end 1"):
            list(_capped_labelled(past_end, [("u1", "dev")]))

    def test_missing_prerequisite(self, tmp_path):
        cfg = _small_cfg()
        ws = Workspace(tmp_path / "ws")
        ws.root.mkdir()
        with pytest.raises(MissingPrerequisiteError, match="run stage|run 'split'"):
            run_stage("ubm", cfg, ws)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("stage, needs", [("classify", "adapt"), ("evaluate", "classify")])
    def test_failed_read_leaves_the_tree_unchanged(self, tmp_path, stage, needs, mode):
        ws = Workspace(tmp_path / "ws")
        ws.root.mkdir()
        ws.manifest_path.write_text("")
        with pytest.raises(MissingPrerequisiteError, match="run stage '%s'" % needs):
            run_stage(stage, _small_cfg(), ws, mode=mode)
        assert [p.name for p in ws.root.rglob("*")] == ["manifest.tsv"]

    def test_corrupt_archive_names_file_and_magic(self, tmp_path):
        cfg = _small_cfg()
        ws = Workspace(tmp_path / "ws")
        generate_synthetic_corpus(cfg.synth, ws.root)
        victim = next((ws.root / "corpus").glob("*.aff"))
        victim.write_bytes(b"ZZZZ" + victim.read_bytes()[4:])
        with pytest.raises(FormatError, match="AFF1") as err:
            run_stage("vad", cfg, ws)
        assert victim.name in str(err.value)

    def test_full_chain_and_idempotence(self, tmp_path):
        cfg = _small_cfg()
        ws = Workspace(tmp_path / "ws")
        generate_synthetic_corpus(cfg.synth, ws.root)
        chain = ("vad", "features", "ubm", "adapt", "vowel-models", "weights",
                 "classify", "evaluate")
        for stage in chain:
            run_stage(stage, cfg, ws, mode="baseline")
        first = _workspace_digest(ws.root)
        for stage in chain:
            run_stage(stage, cfg, ws, mode="baseline")
        second = _workspace_digest(ws.root)
        assert first == second
        report = json.loads(
            (ws.root / "reports" / "evaluation_baseline.json").read_text()
        )
        assert report["accuracy"] >= 0.5  # strongly separated tiny corpus
        weights = json.loads((ws.root / "models" / "vowel_weights.json").read_text())
        distances, stderr = weights["pairwise_distances"], weights["pairwise_stderr"]
        assert list(stderr) == list(distances)
        for vowel, values in distances.items():
            assert len(stderr[vowel]) == len(values) == math.comb(cfg.synth.num_accents, 2)
            assert all(0.0 < e < 0.05 for e in stderr[vowel])
        prov = json.loads(
            (ws.root / "reports" / "provenance" / "ubm.json").read_text()
        )
        assert prov["stage"] == "ubm"
        assert prov["config_sha256"]
        assert prov["inputs"] and prov["outputs"]

    def test_baseline_scores_the_capped_utterance(self, tmp_path):
        cfg = _small_cfg()
        ws = Workspace(tmp_path / "ws")
        generate_synthetic_corpus(cfg.synth, ws.root)
        for stage in ("vad", "features", "ubm", "adapt"):
            run_stage(stage, cfg, ws)
        for cap in (1, 100, 2000):
            cfg.corpus.max_test_frames = cap
            run_stage("classify", cfg, ws, mode="baseline")
            rows = [row.split("\t") for row in
                    (ws.root / "reports" / "predictions_baseline.tsv").read_text().splitlines()]
            assert rows
            for utt, _, _, frames_used in rows:
                feats = read_feature_archive(ws.root / "features" / "feat" / (utt + ".aff"))
                assert int(frames_used) == min(feats.num_frames, cap)

    def test_unknown_stage(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown stage"):
            run_stage("polish", _small_cfg(), Workspace(tmp_path))


def _write_audio_corpus(root, num_per_accent=2, accents=("ar", "fr")):
    """Tiny wav corpus: labeled tone bursts over near-silence."""
    root = Path(root)
    (root / "audio").mkdir(parents=True, exist_ok=True)
    entries = []
    seed = 0
    for accent in accents:
        for j in range(num_per_accent):
            audio, truth = synthesize_tone_silence(
                duration_sec=6.0, speech_fraction=0.85, num_bursts=4, seed=seed
            )
            seed += 1
            wav = root / "audio" / ("%s_%d.wav" % (accent, j))
            lab = root / "audio" / ("%s_%d.lab" % (accent, j))
            write_wav(wav, audio)
            segments = []
            for k, (start, end) in enumerate(truth):
                vowel = ARPABET_VOWELS[k % 4]
                segments.append(
                    PhoneSegment(start / 16000.0, end / 16000.0, vowel,
                                 confidence=-10.0 - k)
                )
            write_label_file(lab, segments)
            entries.append(
                ManifestEntry("audio/%s_%d.wav" % (accent, j),
                              "audio/%s_%d.lab" % (accent, j), accent)
            )
    manifest = CorpusManifest(entries=entries, base_dir=root)
    manifest.save(root / "manifest.tsv")
    return manifest


def _run_stages_with_blas_threads(threads, config, root, stages):
    """Run CLI stages (name or (name, mode)) in a fresh process with `threads` BLAS threads."""
    src_dir = Path(accent_forge.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    script = (
        "import sys\n"
        "from accent_forge.cli import main\n"
        "for stage in sys.argv[3:]:\n"
        "    name, _, mode = stage.partition(':')\n"
        "    args = [name, '--config', sys.argv[1], '--workspace', sys.argv[2]]\n"
        "    code = main(args + (['--mode', mode] if mode else []))\n"
        "    if code:\n"
        "        sys.exit(code)\n"
    )
    names = [stage if isinstance(stage, str) else "%s:%s" % stage for stage in stages]
    subprocess.run([sys.executable, "-c", script, str(config), str(root)] + names,
                   env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)


def _features_framed_per_segment(cfg, wav, lab, segments_frames):
    """Reference features stage for one wav: frame each VAD segment's samples on
    their own and stack the blocks. Returns the archive and label file bytes."""
    audio = read_wav(wav)
    plan = FramePlan.from_ms(audio.sample_rate_hz, cfg.signal.frame_ms, cfg.signal.hop_ms)
    hop_sec = plan.hop_samples / audio.sample_rate_hz
    blocks, centers_sec = [], []
    for start_f, end_f in segments_frames:
        s0, s1 = plan.sample_range(start_f, end_f)
        block = frame_signal(audio.samples[s0:s1], plan).copy()
        blocks.append(block)
        starts = s0 + plan.hop_samples * np.arange(block.shape[0])
        centers_sec.append((starts + plan.frame_len_samples / 2) / audio.sample_rate_hz)
    feats = append_deltas(plp_static(np.vstack(blocks), audio.sample_rate_hz, cfg.frontend),
                          cfg.frontend.delta_window)
    feats, _ = mvn(feats)  # cfg.frontend.mvn_before_warp
    feats = feature_warp(feats, cfg.frontend.warp_window_frames)
    tags, remapped = _tag_frames(parse_label_file(lab), np.concatenate(centers_sec), hop_sec)
    out = wav.with_name(wav.stem + "_oracle")
    write_feature_archive(out.with_suffix(".aff"), FeatureMatrix(feats, hop_sec, tags))
    write_label_file(out.with_suffix(".lab"), remapped)
    return out.with_suffix(".aff").read_bytes(), out.with_suffix(".lab").read_bytes()


class TestAudioPipeline:
    def test_features_equal_the_per_segment_framing_oracle(self, tmp_path):
        cfg = _small_cfg()
        assert cfg.frontend.mvn_before_warp
        ws = Workspace(tmp_path / "ws")
        ws.root.mkdir()
        manifest = _write_audio_corpus(ws.root)
        run_stage("vad", cfg, ws)
        run_stage("features", cfg, ws)
        for index, entry in enumerate(manifest.entries):
            utt = ws.utt_id(index, entry)
            meta = json.loads((ws.root / "features" / "vad" / (utt + ".json")).read_text())
            assert len(meta["segments_frames"]) >= 3
            aff, lab = _features_framed_per_segment(
                cfg, manifest.resolve(entry.audio), manifest.resolve(entry.label),
                meta["segments_frames"])
            assert (ws.root / "features" / "feat" / (utt + ".aff")).read_bytes() == aff
            assert (ws.root / "features" / "feat" / (utt + ".lab")).read_bytes() == lab

    def test_stale_vad_record_names_the_utterance(self, tmp_path):
        cfg = _small_cfg()
        ws = Workspace(tmp_path / "ws")
        ws.root.mkdir()
        manifest = _write_audio_corpus(ws.root, num_per_accent=1)
        run_stage("vad", cfg, ws)
        utt = ws.utt_id(1, manifest.entries[1])
        path = ws.root / "features" / "vad" / (utt + ".json")
        meta = json.loads(path.read_text())
        meta["frames"] += 3  # as if framed with another plan
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="utterance %s: its VAD record has %d frames"
                                             % (utt, meta["frames"])):
            run_stage("features", cfg, ws)

    def test_vad_features_and_remapped_labels(self, tmp_path):
        from accent_forge.vowels import parse_label_file, pool_vowel_features

        cfg = _small_cfg()
        ws = Workspace(tmp_path / "ws")
        ws.root.mkdir()
        _write_audio_corpus(ws.root)
        run_stage("vad", cfg, ws)
        run_stage("features", cfg, ws)
        feat_dir = ws.root / "features" / "feat"
        affs = sorted(feat_dir.glob("*.aff"))
        assert len(affs) == 4
        feats = read_feature_archive(affs[0])
        assert feats.dim == 39
        assert feats.tags is not None
        lab = affs[0].with_suffix(".lab")
        segs = parse_label_file(lab)
        assert segs, "remapped label file should not be empty"
        assert max(s.end_sec for s in segs) <= feats.num_frames * feats.frame_hop_sec + 1e-9
        # confidences survive the remap
        assert all(s.confidence is not None for s in segs)
        # tag channel and remapped segments pool identically
        by_seg = pool_vowel_features(feats, segs)
        for i, vowel in enumerate(ARPABET_VOWELS):  # tag = vowel index + 1
            np.testing.assert_array_equal(by_seg[vowel], feats.data[feats.tags == i + 1])

    def test_features_identical_across_blas_thread_counts(self, tmp_path):
        # vad + features in fresh processes with one and two BLAS threads
        config = tmp_path / "small.cfg"
        config.write_text(config_to_text(_small_cfg()), encoding="utf-8")
        digests = []
        for threads in ("1", "2"):
            root = tmp_path / ("ws_blas%s" % threads)
            root.mkdir()
            _write_audio_corpus(root)
            _run_stages_with_blas_threads(threads, config, root, ["vad", "features"])
            feat_dir = root / "features" / "feat"
            digests.append({
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(feat_dir.iterdir())
                if path.suffix in (".aff", ".lab")
            })
        assert len(digests[0]) == 8  # four archives, four label files
        assert digests[0] == digests[1]

    def test_corpus_stats_table(self, tmp_path):
        cfg = _small_cfg()
        ws = Workspace(tmp_path / "ws")
        ws.root.mkdir()
        manifest = _write_audio_corpus(ws.root)
        run_stage("vad", cfg, ws)
        text = corpus_stats(manifest, ws)
        assert "Accent" in text and "Compression" in text
        assert "Average" in text
        for line in text.splitlines():
            if line.startswith(("ar", "fr", "Average")):
                ratio = float(line.rstrip("%").split()[-1])
                assert abs(ratio - 85.0) < 3.0
        assert "0:00:" in text  # H:MM:SS formatting


def _tag_frames_scalar(segments, times_sec, hop_sec):
    """Reference tagging: scan every segment for every frame."""

    def vowel_index_at(t):
        for seg in segments:
            if seg.is_vowel and seg.start_sec <= t < seg.end_sec:
                return ARPABET_VOWELS.index(seg.label) + 1
        return 0

    def segment_at(t):
        for i, seg in enumerate(segments):
            if seg.start_sec <= t < seg.end_sec:
                return i
        return -1

    tags = np.array([vowel_index_at(t) for t in times_sec], dtype=np.uint8)
    assignment = [segment_at(t) for t in times_sec]
    remapped = []
    run_start = 0
    for k in range(1, len(assignment) + 1):
        if k == len(assignment) or assignment[k] != assignment[run_start]:
            if assignment[run_start] >= 0:
                source = segments[assignment[run_start]]
                remapped.append(PhoneSegment(run_start * hop_sec, k * hop_sec,
                                             source.label, source.confidence))
            run_start = k
    return tags, remapped


class TestFrameTagging:
    def _check(self, segments, times_sec, hop_sec=0.01):
        tags, remapped = _tag_frames(segments, np.asarray(times_sec, dtype=float), hop_sec)
        want_tags, want_remapped = _tag_frames_scalar(segments, times_sec, hop_sec)
        np.testing.assert_array_equal(tags, want_tags)
        assert tags.dtype == np.uint8
        assert remapped == want_remapped

    def test_unordered_segments_gaps_and_boundaries(self):
        segments = [  # out of time order, non-vowels, a gap at [0.30, 0.35)
            PhoneSegment(0.20, 0.30, "iy", -3.0),
            PhoneSegment(0.05, 0.10, "sil"),
            PhoneSegment(0.35, 0.50, "aa", -1.5),
            PhoneSegment(0.10, 0.20, "t", -2.0),
            PhoneSegment(0.50, 0.55, "uw"),
        ]
        # frame centres before the first segment, exactly on every boundary,
        # inside the gap and after the last segment
        times = [0.0, 0.02, 0.05, 0.07, 0.1, 0.15, 0.2, 0.25, 0.3, 0.32, 0.35,
                 0.4, 0.45, 0.5, 0.549, 0.55, 0.6]
        self._check(segments, times)
        self._check([], times)

    def test_random_label_files(self):
        rng = np.random.default_rng(21)
        labels = list(ARPABET_VOWELS) + ["sil", "t", "s"]
        hop = 0.01
        uniform = (np.arange(300) + 0.5) * hop  # the centres vowel_frame_levels uses
        for _ in range(20):
            # segment edges in 100 ns units, as label files store them, and some
            # exactly on a uniform frame centre
            edges = np.unique(np.concatenate([
                rng.integers(0, 30_000_000, size=40) / 1e7,
                rng.choice(uniform, size=10, replace=False),
            ]))
            segments = [
                PhoneSegment(a, b, labels[rng.integers(len(labels))],
                             float(rng.normal()) if rng.random() < 0.5 else None)
                for a, b in zip(edges[:-1], edges[1:])
                if rng.random() < 0.8
            ]
            segments = [segments[i] for i in rng.permutation(len(segments))]
            centres = (np.arange(300) * 160 + 200) / 16000.0
            times = np.sort(np.concatenate([centres, edges]))
            self._check(segments, times.tolist())

            levels = vowel_frame_levels(FeatureMatrix(np.zeros((300, 1)), hop), segments)
            want_tags, _ = _tag_frames_scalar(segments, uniform.tolist(), hop)
            for index in range(len(ARPABET_VOWELS)):
                np.testing.assert_array_equal(~np.isnan(levels[index]), want_tags == index + 1)


class TestVowelEvidence:
    def test_no_evidence_falls_back_but_a_dim_mismatch_raises(self, tmp_path):
        cfg = _small_cfg()
        cfg.synth.with_confidence = True
        ws = Workspace(tmp_path / "ws")
        generate_synthetic_corpus(cfg.synth, ws.root)
        for stage in ("vad", "features", "ubm", "adapt", "vowel-models", "weights"):
            run_stage(stage, cfg, ws)
        # every segment below the threshold: the earliest accent, from 0 frames
        cfg.vowels.confidence_threshold = 1e9
        run_stage("classify", cfg, ws, mode="vowel")
        rows = (ws.root / "reports" / "predictions_vowel.tsv").read_text().splitlines()
        assert rows and all(row.split("\t")[2:] == ["accent1", "0"] for row in rows)

        # 8-dim vowel models for 4-dim features are a fault, not missing evidence
        cfg.vowels.confidence_threshold = float("-inf")
        for path in (ws.root / "models" / "vowels").glob("*.agm"):
            g = read_model(path)
            write_model(path, DiagGmm(g.weights, np.hstack([g.means, g.means]),
                                      np.hstack([g.variances, g.variances]), g.label))
        with pytest.raises(ValueError, match="does not match model dim 8"):
            run_stage("classify", cfg, ws, mode="vowel")
        with pytest.raises(ValueError, match="does not match model dim 8"):
            run_stage("calibrate", cfg, ws)


class TestScoringProvenance:
    def test_scoring_stages_list_the_models_they_read(self, tmp_path):
        cfg = _small_cfg()
        cfg.synth.with_confidence = True
        cfg.vowels.use_calibrated_threshold = True
        ws = Workspace(tmp_path / "ws")
        generate_synthetic_corpus(cfg.synth, ws.root)
        for stage in ("vad", "features", "ubm", "adapt", "vowel-models", "weights",
                      "calibrate"):
            run_stage(stage, cfg, ws)

        def inputs(stage):
            doc = json.loads((ws.root / "reports" / "provenance" / (stage + ".json")).read_text())
            return doc["inputs"]

        accents = json.loads((ws.root / "models" / "accent_set.json").read_text())["accents"]
        included = json.loads((ws.root / "models" / "vowel_set.json").read_text())[
            "included_vowels"]
        assert included
        grid = {"models/vowels/%s.%s.agm" % (v, a) for v in included for a in accents}
        vowel_set = {"models/accent_set.json", "models/vowel_set.json",
                     "models/vowel_weights.json"} | grid
        assert grid | {"models/vowel_set.json"} <= set(inputs("weights"))
        assert vowel_set <= set(inputs("calibrate"))
        run_stage("classify", cfg, ws, mode="vowel")
        assert vowel_set | {"models/confidence_threshold.json"} <= set(inputs("classify"))
        run_stage("evaluate", cfg, ws, mode="vowel")
        assert "manifest.tsv" in inputs("evaluate")

        run_stage("classify", cfg, ws, mode="baseline")
        before = inputs("classify")
        assert {"models/accent_set.json"} | {"models/accents/%s.agm" % a for a in accents} \
            <= set(before)
        assert "models/confidence_threshold.json" not in before
        # retrain one accent model on a single train utterance
        retrained = ws.root / "models" / "accents" / (accents[0] + ".agm")
        ubm = read_model(ws.root / "models" / "ubm.agm")
        feats = read_feature_archive(next((ws.root / "features" / "feat").glob("*.aff")))
        write_model(retrained, dataclasses.replace(map_adapt(ubm, feats.data),
                                                   label=read_model(retrained).label))
        run_stage("classify", cfg, ws, mode="baseline")
        after = inputs("classify")
        key = "models/accents/%s.agm" % accents[0]
        assert after[key] != before[key]
        assert after[key] == hashlib.sha256(retrained.read_bytes()).hexdigest()
        assert {k: v for k, v in after.items() if k != key} == \
            {k: v for k, v in before.items() if k != key}


class TestBlasThreadDeterminism:
    def test_models_and_scores_identical_across_blas_thread_counts(self, tmp_path):
        # vad through calibrate and both classify modes, with one and two BLAS
        # threads; a stacked baseline chunk is a 256 x 8 by 8 x 256 product
        # (4 accents x 64 components), four times a per-model one
        cfg = _small_cfg()
        cfg.ubm.components = 64
        cfg.synth.num_accents = 4
        cfg.synth.feature_dim = 8
        cfg.synth.frames_per_utterance = 300
        cfg.synth.with_confidence = True
        cfg.synth.noise_segment_fraction = 0.2
        cfg.vowels.use_calibrated_threshold = True
        config = tmp_path / "chain.cfg"
        config.write_text(config_to_text(cfg.validate()), encoding="utf-8")
        stages = ["vad", "features", "ubm", "adapt", "vowel-models", "weights", "calibrate",
                  ("classify", "baseline"), ("evaluate", "baseline"),
                  ("classify", "vowel"), ("evaluate", "vowel")]
        digests = []
        for threads in ("1", "2"):
            ws = Workspace(tmp_path / ("ws_blas%s" % threads))
            generate_synthetic_corpus(cfg.synth, ws.root)
            _run_stages_with_blas_threads(threads, config, ws.root, stages)
            digests.append(_workspace_digest(ws.root))
        produced = set(digests[0])
        assert {"models/ubm.agm", "models/confidence_threshold.json",
                "reports/predictions_baseline.tsv", "reports/predictions_vowel.tsv",
                "reports/evaluation_vowel.json"} <= produced
        assert digests[0] == digests[1]


class TestTransformsStage:
    def test_pca_hlda_chain_on_audio(self, tmp_path):
        cfg = _small_cfg()
        cfg.transforms.enabled = True
        cfg.transforms.pca_dim = 8
        cfg.transforms.hlda_dim = 5
        cfg.transforms.context = 1
        cfg.transforms.max_iters = 3
        ws = Workspace(tmp_path / "ws")
        ws.root.mkdir()
        # need enough utterances to split 7/accent
        manifest = _write_audio_corpus(ws.root, num_per_accent=7)
        manifest = split_corpus(manifest, seed=4)
        manifest.save(ws.manifest_path)
        run_stage("vad", cfg, ws)
        run_stage("features", cfg, ws)
        run_stage("transforms", cfg, ws)
        reduced = sorted((ws.root / "features" / "reduced").glob("*.aff"))
        assert len(reduced) == 14
        feats = read_feature_archive(reduced[0])
        assert feats.dim == 5
        chain_path = ws.root / "models" / "transforms.aft"
        from accent_forge.transforms import read_transform_chain

        chain = read_transform_chain(chain_path)
        assert [t.out_dim for t in chain] == [8, 5]
        assert chain[1].context == 1
        assert chain[1].in_dim == 24

    def test_reduced_archives_keep_hop_and_tags(self, tmp_path):
        """Every features/reduced archive carries the frame hop and the tags of
        its features/feat archive; the transforms map only the frames."""
        cfg = _small_cfg()
        cfg.synth.frame_hop_sec = 0.02  # not FeatureMatrix's default hop
        cfg.transforms.enabled = True
        cfg.transforms.pca_dim, cfg.transforms.hlda_dim = 4, 3
        cfg.transforms.max_iters = 3
        ws = Workspace(tmp_path / "ws")
        generate_synthetic_corpus(cfg.synth, ws.root)
        for stage in ("vad", "features", "transforms"):
            run_stage(stage, cfg, ws)
        sources = sorted((ws.root / "features" / "feat").glob("*.aff"))
        reduced_dir = ws.root / "features" / "reduced"
        assert sorted(p.name for p in reduced_dir.glob("*.aff")) == [p.name for p in sources]
        for source in sources:
            feats = read_feature_archive(source)
            reduced = read_feature_archive(reduced_dir / source.name)
            assert reduced.data.shape == (feats.num_frames, 3)
            assert reduced.frame_hop_sec == feats.frame_hop_sec == 0.02
            assert feats.tags is not None
            np.testing.assert_array_equal(reduced.tags, feats.tags)

    def test_fit_holds_one_utterance_at_a_time(self, tmp_path):
        """The stage's traced peak stays below one stacked copy of the spliced
        train frames, which a fit on stacked frames would hold. Utterances are
        long enough that this copy is well above the 1 MB read buffer of
        provenance hashing."""
        cfg = _small_cfg()
        cfg.synth.feature_dim = 10
        cfg.synth.frames_per_utterance = 400
        cfg.transforms.enabled = True
        cfg.transforms.pca_dim = 8
        cfg.transforms.hlda_dim = 5
        cfg.transforms.context = 2
        cfg.transforms.max_iters = 3
        ws = Workspace(tmp_path / "ws")
        generate_synthetic_corpus(cfg.synth, ws.root)
        run_stage("vad", cfg, ws)
        run_stage("features", cfg, ws)
        manifest = CorpusManifest.load(ws.manifest_path)
        train_frames = sum(
            read_feature_archive(ws.root / "features" / "feat" / (ws.utt_id(i, e) + ".aff"))
            .num_frames for i, e in manifest.with_split("train"))
        spliced_dim = cfg.transforms.pca_dim * (2 * cfg.transforms.context + 1)
        spliced_bytes = train_frames * spliced_dim * 8
        tracemalloc.start()
        try:
            run_stage("transforms", cfg, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ws.root / "models" / "transforms.aft").exists()
        assert peak < spliced_bytes, (peak, spliced_bytes)


_PLAIN = ["vad", "features", "ubm", "adapt"]
_REDUCED = ["vad", "features", "transforms", "ubm", "adapt"]
_VOWEL = ["vowel-models", "weights"]
_SCORE = ["classify", "evaluate"]
# (mode, transforms.enabled, vowels.use_calibrated_threshold) -> the stages `all` runs
_CHAINS = {
    ("baseline", False, False): _PLAIN + _SCORE,
    ("baseline", False, True): _PLAIN + _SCORE,
    ("baseline", True, False): _REDUCED + _SCORE,
    ("baseline", True, True): _REDUCED + _SCORE,
    ("vowel", False, False): _PLAIN + _VOWEL + _SCORE,
    ("vowel", False, True): _PLAIN + _VOWEL + ["calibrate"] + _SCORE,
    ("vowel", True, False): _REDUCED + _VOWEL + _SCORE,
    ("vowel", True, True): _REDUCED + _VOWEL + ["calibrate"] + _SCORE,
}


class TestStageTable:
    @pytest.mark.parametrize("mode, transforms, calibrated", sorted(_CHAINS))
    def test_stage_chain(self, mode, transforms, calibrated):
        cfg = PipelineConfig()
        cfg.transforms.enabled = transforms
        cfg.vowels.use_calibrated_threshold = calibrated
        assert stage_chain(cfg, mode) == _CHAINS[mode, transforms, calibrated]

    def test_modes_and_table_order(self):
        assert MODES == ("baseline", "vowel")
        assert list(STAGES) == ["vad", "features", "transforms", "ubm", "adapt", "vowel-models",
                                "weights", "calibrate", "classify", "evaluate"]

    def test_parser_has_one_subcommand_per_stage(self):
        (action,) = [a for a in _build_parser()._actions if a.dest == "command"]
        helps = {choice.dest: choice.help for choice in action._choices_actions}
        assert list(action.choices)[:len(STAGES)] == list(STAGES)
        for stage, (_, stage_help) in STAGES.items():
            assert helps[stage] == stage_help
            options = {o for a in action.choices[stage]._actions for o in a.option_strings}
            assert ("--mode" in options) == (stage in ("classify", "evaluate")), stage


class TestCli:
    def test_stats_on_an_empty_manifest(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "manifest.tsv").write_text("")
        assert cli_main(["stats", "--workspace", str(ws)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["Accent", "Utts", "Proportion", "Dur.1", "Dur.2",
                                    "Compression"]
        assert len(lines) == 3
        assert lines[2].split() == ["Average", "0", "0.00%", "0:00:00", "0:00:00", "0.00%"]

    def test_print_config(self, capsys):
        assert cli_main(["print-config"]) == 0
        out = capsys.readouterr().out
        assert "ubm.components = 256" in out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert cli_main(["print-config", "--config", str(bad)]) == 2

    def test_negative_seed_override_is_a_config_error(self, capsys):
        assert cli_main(["print-config", "--seed", "-1"]) == 2
        assert "corpus.seed must be non-negative, got -1" in capsys.readouterr().err
        assert cli_main(["print-config", "--seed", "0"]) == 0

    def test_missing_prerequisite_exit_code(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(_small_cfg()))
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "manifest.tsv").write_text("")
        assert cli_main(["ubm", "--config", str(cfg_path),
                         "--workspace", str(ws)]) == 3

    def test_synth_then_all(self, tmp_path, capsys):
        cfg = _small_cfg()
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        ws = tmp_path / "ws"
        args = ["--config", str(cfg_path), "--workspace", str(ws)]
        assert cli_main(["synth"] + args) == 0
        assert cli_main(["all", "--mode", "vowel"] + args) == 0
        out = capsys.readouterr().out
        assert "overall accuracy" in out
        assert (ws / "reports" / "evaluation_vowel.json").exists()
        assert cli_main(["stats"] + args) == 0

    def test_all_calibrates_for_the_calibrated_threshold(self, tmp_path, capsys):
        cfg = _small_cfg()
        cfg.vowels.use_calibrated_threshold = True
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        ws = tmp_path / "ws"
        args = ["--config", str(cfg_path), "--workspace", str(ws)]
        assert cli_main(["synth"] + args) == 0
        assert cli_main(["all", "--mode", "vowel"] + args) == 0
        assert "stage calibrate" in capsys.readouterr().out
        assert (ws / "models" / "confidence_threshold.json").exists()


def _fresh_interpreter(script):
    """What script prints in a new interpreter that imports accent_forge from src/."""
    src_dir = Path(accent_forge.__file__).parents[1]
    return subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src_dir)),
                          check=True, capture_output=True, text=True, timeout=60).stdout


def test_package_import_is_bare():
    # names are imported from their modules; the package root loads none of them
    script = (
        "import sys\n"
        "import accent_forge\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(('accent_forge.', 'numpy')))\n"
        "print(','.join(loaded))\n"
    )
    assert _fresh_interpreter(script).strip() == ""


def test_frame_modules_do_not_load_the_frontend():
    # they take plain frame arrays; FeatureMatrix and the archives stay in frontend
    script = (
        "import sys\n"
        "from accent_forge import adapt, classify, gmm, transforms, vowels\n"
        "print('accent_forge.frontend' in sys.modules)\n"
    )
    assert _fresh_interpreter(script).strip() == "False"
