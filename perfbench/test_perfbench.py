"""Quick tests of the benchmark's own generator, oracle, tracer and metric lists.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from accent_forge import gmm, pipeline  # noqa: E402
from accent_forge.pipeline import SyntheticSpec, generate_synthetic_corpus  # noqa: E402
from accent_forge.signal import read_wav  # noqa: E402
from accent_forge.vowels import ARPABET_VOWELS, parse_label_file  # noqa: E402

import metrics  # noqa: E402
from oracle import BayesOracle  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from synth_audio import AudioSpec, accent_factors, generate_audio_corpus, synthesize_utterance  # noqa: E402


def test_utterance_segments_tile_the_samples_at_the_speech_fraction():
    spec = AudioSpec(seed=5)
    factors = accent_factors(spec, np.random.default_rng(0))
    samples, segments, fraction = synthesize_utterance(3.0, 2, factors, spec,
                                                       np.random.default_rng(1))
    assert segments[0][0] == 0 and segments[-1][1] == len(samples) == 48000
    assert all(a[1] == b[0] for a, b in zip(segments[:-1], segments[1:]))
    speech = sum(e - s for s, e, label in segments if label != "sil")
    assert speech == round(0.8 * 48000) and fraction == speech / 48000
    assert {label for _, _, label in segments} <= set(ARPABET_VOWELS) | {"n", "sil"}
    silent = np.concatenate([samples[s:e] for s, e, label in segments if label == "sil"])
    assert np.sqrt(np.mean(silent ** 2)) < 0.1 * spec.speech_rms


def test_accent_factors_move_only_the_discriminative_vowels():
    spec = AudioSpec(seed=5)
    factors = accent_factors(spec, np.random.default_rng(0))
    for t, vowel in enumerate(ARPABET_VOWELS):
        column = factors[:, t, :]
        if vowel in spec.discriminative_vowels:
            assert np.all(np.abs(column - 1.0) <= spec.formant_shift + 1e-12)
            assert len({tuple(row) for row in column}) == spec.num_accents
            assert abs(column.mean() - 1.0) < 1e-12
        else:
            assert np.all(column == 1.0)


def test_label_files_match_the_generated_segments(tmp_path):
    spec = AudioSpec(num_accents=2, seed=9)
    manifest, truth = generate_audio_corpus(spec, tmp_path, 7,
                                            {"train": 1.0, "dev": 1.0, "test": 1.5})
    assert {e.split for e in manifest.entries} == {"train", "dev", "test"}
    for entry, utt in zip(manifest.entries, truth["utterances"]):
        audio = read_wav(manifest.resolve(entry.audio))
        labels = parse_label_file(manifest.resolve(entry.label))
        assert len(audio.samples) == utt["segments"][-1][1]
        assert [s.label for s in labels] == [seg[2] for seg in utt["segments"]]
        starts = np.array([s.start_sec for s in labels]) * 16000
        assert np.allclose(starts, [seg[0] for seg in utt["segments"]], atol=1e-3)


def test_oracle_is_perfect_on_a_separable_corpus(tmp_path):
    spec = SyntheticSpec(num_accents=3, feature_dim=4, utterances_per_accent=8,
                         frames_per_utterance=60, accent_separation=4.0,
                         with_confidence=True, noise_segment_fraction=0.3, seed=3)
    manifest = generate_synthetic_corpus(spec, tmp_path)
    oracle = BayesOracle.from_file(tmp_path / "truth.json")
    accuracy, count = oracle.accuracy(manifest, max_frames=2000)
    assert count == len(manifest.with_split("test")) and accuracy == 1.0


def test_oracle_trusts_confident_segments_and_discounts_noisy_ones(tmp_path):
    spec = SyntheticSpec(num_accents=3, feature_dim=2, utterances_per_accent=7,
                         frames_per_utterance=30, with_confidence=True,
                         noise_segment_fraction=0.3, seed=4)
    generate_synthetic_corpus(spec, tmp_path)
    oracle = BayesOracle.from_file(tmp_path / "truth.json")
    assert oracle._noise_posterior(spec.noise_confidence_mean, True) > 0.99
    assert oracle._noise_posterior(spec.clean_confidence_mean, True) < 0.01
    assert oracle._noise_posterior(spec.noise_confidence_mean, False) == 0.0


def test_spans_give_inclusive_and_self_time():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    totals = recorder.totals()
    outer_total, outer_self, _ = totals["outer"]
    inner_total, inner_self, calls = totals["inner"]
    assert calls == 2 and inner_total == inner_self
    assert abs(outer_self - (outer_total - inner_total)) < 1e-12


def test_wrappers_reach_imported_names_and_come_off_again():
    recorder = SpanRecorder()
    original = gmm.em_train
    replaced = metrics.install_wrappers(recorder)
    try:
        assert replaced > len(metrics.TARGETS)
        assert pipeline.em_train is gmm.em_train is not original
        model = pipeline.em_train(np.random.default_rng(0).normal(size=(64, 2)), 2)
        assert model.num_components == 2
    finally:
        recorder.uninstall()
    assert pipeline.em_train is gmm.em_train is original
    totals = recorder.totals()
    assert totals["gmm.em_train"][2] == 1 and totals["gmm.accumulate_stats"][2] > 0


def test_metric_lists_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(metrics.PER_LAYER)
    values = metrics.layer_metrics(SpanRecorder(), 0)
    assert list(values) == [name for name, _ in metrics.PER_LAYER]
