"""Labelled synthetic speech for the wav workload.

Each utterance alternates silence gaps with voiced "words". A word is a run
of phone segments; every segment is a glottal pulse train passed through two
formant resonators, so the spectrum is a set of harmonics shaped by F1 and
F2. Vowels take their formants from a table of typical values; an accent
multiplies F1 and F2 of the discriminative vowels by its own factors, and
leaves the other vowels and the nasal filler alone. Gaps hold quiet
low-pass noise, so silence is low in both energy and spectral centroid.

Everything is drawn from numpy generators seeded by the caller, so the same
seed gives the same samples, labels and truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from accent_forge.pipeline import CorpusManifest, ManifestEntry, split_corpus
from accent_forge.signal import AudioBuffer, write_wav
from accent_forge.vowels import ARPABET_VOWELS, PhoneSegment, write_label_file

# typical adult (F1, F2) in Hz per Arpabet vowel
FORMANTS = {
    "aa": (730, 1090), "ae": (660, 1720), "ah": (640, 1190), "ao": (570, 840),
    "aw": (700, 1300), "ay": (660, 1500), "eh": (530, 1840), "er": (490, 1350),
    "ey": (480, 2000), "ih": (390, 1990), "iy": (270, 2290), "ow": (500, 900),
    "oy": (550, 1100), "uh": (440, 1020), "uw": (300, 870),
}
NASAL = ("n", (280, 1700))
_BANDWIDTHS = (90.0, 120.0)


@dataclass
class AudioSpec:
    num_accents: int = 7
    sample_rate_hz: int = 16000
    speech_fraction: float = 0.8
    discriminative_vowels: tuple = ("aa", "ae", "ah", "eh", "ey", "ih", "iy", "uw")
    formant_shift: float = 0.2
    formant_jitter: float = 0.03
    nasal_fraction: float = 0.15
    segment_ms: tuple = (70, 160)
    word_segments: tuple = (8, 14)
    speech_rms: float = 0.08
    silence_rms: float = 0.002
    seed: int = 1


def accent_factors(spec, rng):
    """(accents x vowels x 2) multiplicative F1/F2 factors; 1 off the subset.

    On each discriminative vowel and formant the accents take evenly spaced
    levels in [-shift, +shift] in a seeded order, so every seed poses a task
    of about the same difficulty.
    """
    levels = np.linspace(-1.0, 1.0, spec.num_accents)
    factors = np.ones((spec.num_accents, len(ARPABET_VOWELS), 2))
    for t, vowel in enumerate(ARPABET_VOWELS):
        if vowel in spec.discriminative_vowels:
            for f in range(2):
                factors[:, t, f] = 1.0 + spec.formant_shift * rng.permutation(levels)
    return factors


def _resonator(freq_hz, bandwidth_hz, fs):
    r = np.exp(-np.pi * bandwidth_hz / fs)
    theta = 2.0 * np.pi * freq_hz / fs
    return [1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r]


def _voiced(num_samples, formants, f0_hz, fs, rng):
    period = fs / f0_hz
    excitation = np.zeros(num_samples)
    pulses = np.arange(rng.uniform(0, period), num_samples, period).astype(int)
    excitation[pulses] = 1.0
    excitation += 0.02 * rng.standard_normal(num_samples)
    out = excitation
    for freq, bw in zip(formants, _BANDWIDTHS):
        b, a = _resonator(freq, bw, fs)
        out = lfilter(b, a, out)
    return out / max(np.sqrt(np.mean(out * out)), 1e-12)


def _silence(num_samples, rng):
    noise = rng.standard_normal(num_samples)
    smooth = lfilter([0.05], [1.0, -0.95], lfilter([0.05], [1.0, -0.95], noise))
    return smooth / max(np.sqrt(np.mean(smooth * smooth)), 1e-12)


def _split_total(total, count, rng):
    """count positive integer parts summing to total, each within 0.6..1.4 of even."""
    weights = rng.uniform(0.6, 1.4, size=count)
    parts = np.floor(total * weights / weights.sum()).astype(int)
    parts[-1] += total - parts.sum()
    return parts


def synthesize_utterance(duration_sec, accent, factors, spec, rng):
    """Samples plus (start_sample, end_sample, label) segments covering them.

    Speech takes round(speech_fraction * length) samples exactly; the rest is
    split into gaps before, between and after the words.
    """
    fs = spec.sample_rate_hz
    total = int(round(duration_sec * fs))
    speech_total = int(round(total * spec.speech_fraction))
    mean_word = (np.mean(spec.word_segments) * np.mean(spec.segment_ms)) * fs / 1000.0
    num_words = max(1, int(round(speech_total / mean_word)))
    words = _split_total(speech_total, num_words, rng)
    gaps = _split_total(total - speech_total, num_words + 1, rng)
    f0 = rng.uniform(100.0, 180.0)

    samples = np.empty(total)
    segments = []
    cursor = 0
    for w in range(num_words + 1):
        gap = int(gaps[w])
        samples[cursor:cursor + gap] = spec.silence_rms * _silence(gap, rng)
        segments.append((cursor, cursor + gap, "sil"))
        cursor += gap
        if w == num_words:
            break
        lo, hi = spec.word_segments
        pieces = _split_total(int(words[w]), int(rng.integers(lo, hi + 1)), rng)
        for length in pieces:
            length = int(length)
            if rng.random() < spec.nasal_fraction:
                label, formants = NASAL
                formants = np.asarray(formants, dtype=np.float64)
            else:
                t = int(rng.integers(len(ARPABET_VOWELS)))
                label = ARPABET_VOWELS[t]
                formants = np.asarray(FORMANTS[label], dtype=np.float64) * factors[accent, t]
            formants = formants * (1.0 + spec.formant_jitter * rng.standard_normal(2))
            gain = spec.speech_rms * rng.uniform(0.7, 1.3)
            seg_f0 = f0 * rng.uniform(0.9, 1.1)
            samples[cursor:cursor + length] = gain * _voiced(length, formants, seg_f0, fs, rng)
            segments.append((cursor, cursor + length, label))
            cursor += length
    return samples, segments, speech_total / total


def generate_audio_corpus(spec, out_dir, utterances_per_accent, seconds_by_split):
    """Write wavs, HTK label files and a split manifest; return (manifest, truth).

    The split is drawn first with split_corpus, so each utterance's length can
    follow its split (seconds_by_split maps train/dev/test to seconds).
    """
    corpus = out_dir / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    accents = ["accent%d" % (i + 1) for i in range(spec.num_accents)]
    entries = [
        ManifestEntry("corpus/%s_%04d.wav" % (a, j), "corpus/%s_%04d.lab" % (a, j), a)
        for a in accents for j in range(utterances_per_accent)
    ]
    manifest = split_corpus(CorpusManifest(entries=entries, base_dir=out_dir), spec.seed)
    seeds = np.random.SeedSequence(spec.seed).spawn(len(entries) + 1)
    factors = accent_factors(spec, np.random.default_rng(seeds[0]))
    truth = {"accents": accents, "factors": factors.tolist(), "utterances": []}
    fs = spec.sample_rate_hz
    for index, entry in enumerate(manifest.entries):
        rng = np.random.default_rng(seeds[index + 1])
        samples, segments, fraction = synthesize_utterance(
            seconds_by_split[entry.split], accents.index(entry.accent), factors, spec, rng
        )
        write_wav(manifest.resolve(entry.audio), AudioBuffer(samples, fs))
        write_label_file(
            manifest.resolve(entry.label),
            [PhoneSegment(s / fs, e / fs, label) for s, e, label in segments],
        )
        truth["utterances"].append({
            "audio": entry.audio,
            "speech_fraction": fraction,
            "segments": [[s, e, label] for s, e, label in segments],
        })
    manifest.save(out_dir / "manifest.tsv")
    return manifest, truth
