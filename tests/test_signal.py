"""Tests for audio ingestion, framing, and dual-threshold silence removal."""

import wave

import numpy as np
import pytest

from accent_forge.errors import UnsupportedAudioError
from accent_forge.pipeline import synthesize_tone_silence
from accent_forge.signal import (
    AudioBuffer,
    _bridge_short_gaps,
    _drop_short_runs,
    FramePlan,
    centroid_from_spectrum,
    energy_rate,
    estimate_thresholds,
    frame_signal,
    mask_to_segments,
    read_wav,
    remove_silence,
    segments_to_mask,
    segments_to_text,
    spectral_centroid,
    write_wav,
)


def _write_pcm16(path, samples_int16, rate=16000, channels=1):
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        data = np.asarray(samples_int16, dtype="<i2")
        if channels > 1:
            data = np.repeat(data[:, None], channels, axis=1)
        handle.writeframes(data.tobytes())


class TestReadWav:
    def test_linear_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        _write_pcm16(path, [16384, -32768, 0, 32767])
        audio = read_wav(path)
        assert audio.samples[0] == 0.5
        assert audio.samples[1] == -1.0
        assert audio.samples[2] == 0.0
        assert audio.sample_rate_hz == 16000

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        _write_pcm16(path, [0, 1, 2], channels=2)
        with pytest.raises(UnsupportedAudioError, match="channel count"):
            read_wav(path)

    def test_bad_rate_rejected(self, tmp_path):
        path = tmp_path / "rate.wav"
        _write_pcm16(path, [0, 1, 2], rate=44100)
        with pytest.raises(UnsupportedAudioError, match="sample rate"):
            read_wav(path)

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"definitely not RIFF")
        with pytest.raises(UnsupportedAudioError):
            read_wav(path)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        audio = AudioBuffer(rng.uniform(-0.5, 0.5, 400), 8000)
        path = tmp_path / "rt.wav"
        write_wav(path, audio)
        back = read_wav(path)
        np.testing.assert_allclose(back.samples, audio.samples, atol=1.0 / 32768)


class TestFraming:
    def test_hop_positions(self):
        frames = frame_signal(np.arange(10.0), FramePlan(4, 2))
        assert frames.shape == (4, 4)
        np.testing.assert_array_equal(frames[:, 0], [0, 2, 4, 6])

    def test_exact_fit(self):
        frames = frame_signal(np.arange(4.0), FramePlan(4, 2))
        assert frames.shape == (1, 4)

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            frame_signal(np.arange(3.0), FramePlan(4, 2))

    def test_invalid_plan(self):
        with pytest.raises(ValueError):
            FramePlan(4, 5)


class TestEnergyRate:
    def test_unit_magnitude(self):
        assert energy_rate([1, -1, 1, -1]) == 1.0

    def test_silence(self):
        assert energy_rate(np.zeros(100)) == 0.0

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(42)
        frame = rng.standard_normal(160)
        direct = sum(abs(v) ** 2 for v in frame) / 160.0
        assert abs(energy_rate(frame) - direct) < 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal(64)
        assert energy_rate(frame) == pytest.approx(
            energy_rate(frame[rng.permutation(64)]), abs=1e-12
        )

    def test_empty_frame(self):
        with pytest.raises(ValueError):
            energy_rate([])


class TestSpectralCentroid:
    def test_single_bin(self):
        mags = np.zeros(16)
        mags[4] = 1.0  # bin k=5 (1-based)
        assert centroid_from_spectrum(mags) == pytest.approx(6.0)

    def test_flat_spectrum(self):
        assert centroid_from_spectrum(np.ones(4)) == pytest.approx(3.5)

    def test_sinusoid_against_dft_oracle(self):
        # zero-padded 160-sample sinusoid at bin 12 of a 256-point DFT:
        # the rectangular-window leakage tail is part of the oracle value
        n = np.arange(160)
        frame = np.sin(2 * np.pi * 12 * n / 256)
        got = spectral_centroid(frame, nfft=256)
        dft = np.array(
            [np.sum(frame * np.exp(-2j * np.pi * kk * n / 256)) for kk in range(129)]
        )
        mags = np.abs(dft)[1:]
        oracle = np.sum((np.arange(1, 129) + 1) * mags) / mags.sum()
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_full_length_sinusoid_near_bin(self):
        # no padding: all energy in bin 12, centroid lands at 13
        n = np.arange(256)
        frame = np.sin(2 * np.pi * 12 * n / 256)
        assert abs(spectral_centroid(frame, nfft=256) - 13.0) < 0.5

    def test_scaling_invariant(self):
        rng = np.random.default_rng(3)
        frame = rng.standard_normal(200)
        assert spectral_centroid(frame) == pytest.approx(
            spectral_centroid(7.5 * frame), rel=1e-12
        )

    def test_zero_frame(self):
        assert spectral_centroid(np.zeros(100)) == 0.0

    def test_empty_frame(self):
        with pytest.raises(ValueError):
            spectral_centroid([])


class TestThresholds:
    def test_bimodal_formula(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            0.01 + 0.001 * rng.standard_normal(500),
            1.00 + 0.001 * rng.standard_normal(500),
        ])
        t = estimate_thresholds(values, weight=5.0)
        assert t == pytest.approx((5 * 0.01 + 1.0) / 6.0, abs=0.03)

    def test_unimodal_median(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(1000)
        assert estimate_thresholds(values, 5.0) == pytest.approx(np.median(values))

    def test_large_weight_limit(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            0.01 + 0.001 * rng.standard_normal(500),
            1.00 + 0.001 * rng.standard_normal(500),
        ])
        t = estimate_thresholds(values, weight=1e9)
        assert t == pytest.approx(0.01, abs=0.03)

    def test_too_few_values(self):
        with pytest.raises(ValueError, match="at least 10"):
            estimate_thresholds(np.arange(9.0), 5.0)

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            estimate_thresholds(np.arange(20.0), 0.0)


def _frame_truth(truth_samples, plan, num_frames):
    centers = plan.hop_samples * np.arange(num_frames) + plan.frame_len_samples // 2
    mask = np.zeros(num_frames, dtype=bool)
    for start, end in truth_samples:
        mask |= (centers >= start) & (centers < end)
    return mask


class TestRemoveSilence:
    def test_recovers_burst_boundaries(self):
        audio, truth = synthesize_tone_silence(
            duration_sec=8.0, speech_fraction=0.6, num_bursts=4, seed=13
        )
        plan = FramePlan.from_ms(audio.sample_rate_hz)
        vad = remove_silence(audio, plan)
        assert len(vad.segments) == 4
        for (seg_s, seg_e), (true_s, true_e) in zip(vad.segments, truth):
            assert abs(seg_s - true_s / plan.hop_samples) <= 2
            assert abs(seg_e - true_e / plan.hop_samples) <= 2

    def test_all_speech_kept_whole(self):
        rng = np.random.default_rng(21)
        audio = AudioBuffer(0.4 * rng.uniform(-1, 1, 16000), 16000)
        plan = FramePlan.from_ms(16000)
        vad = remove_silence(audio, plan)
        assert vad.segments == [(0, len(vad.speech_mask))]
        assert vad.compression_ratio == 1.0

    def test_compression_ratio_85_percent(self):
        audio, _ = synthesize_tone_silence(
            duration_sec=10.0, speech_fraction=0.85, num_bursts=5, seed=2
        )
        plan = FramePlan.from_ms(audio.sample_rate_hz)
        vad = remove_silence(audio, plan)
        assert abs(vad.compression_ratio - 0.85) < 0.03

    def test_segments_reconstruct_mask(self):
        audio, _ = synthesize_tone_silence(duration_sec=6.0, speech_fraction=0.5, seed=9)
        plan = FramePlan.from_ms(audio.sample_rate_hz)
        vad = remove_silence(audio, plan)
        rebuilt = segments_to_mask(vad.segments, len(vad.speech_mask))
        np.testing.assert_array_equal(rebuilt, vad.speech_mask)
        assert mask_to_segments(rebuilt) == vad.segments

    def test_concatenation_retains_speech(self):
        # appending silence must not cost more than min_segment_frames of speech
        rng = np.random.default_rng(30)
        speech, _ = synthesize_tone_silence(
            duration_sec=4.0, speech_fraction=0.999, num_bursts=1, seed=31
        )
        plan = FramePlan.from_ms(speech.sample_rate_hz)
        alone = remove_silence(speech, plan)
        silence = 1e-4 * rng.standard_normal(4 * speech.sample_rate_hz)
        both = AudioBuffer(np.concatenate([speech.samples, silence]), speech.sample_rate_hz)
        concat = remove_silence(both, plan, min_segment_frames=5)
        kept_alone = int(np.count_nonzero(alone.speech_mask))
        kept_concat = int(np.count_nonzero(concat.speech_mask[: len(alone.speech_mask)]))
        assert kept_concat >= kept_alone - 5

    def test_frame_accuracy(self):
        audio, truth = synthesize_tone_silence(
            duration_sec=8.0, speech_fraction=0.7, num_bursts=5, seed=17
        )
        plan = FramePlan.from_ms(audio.sample_rate_hz)
        vad = remove_silence(audio, plan)
        want = _frame_truth(truth, plan, len(vad.speech_mask))
        assert np.mean(want == vad.speech_mask) >= 0.9


def _runs_scalar(mask, value):
    """Half-open (start, end) runs where mask == value, one frame at a time (oracle)."""
    mask = np.asarray(mask, dtype=bool)
    out = []
    start = None
    for i, m in enumerate(mask):
        if (m == value) and start is None:
            start = i
        elif (m != value) and start is not None:
            out.append((start, i))
            start = None
    if start is not None:
        out.append((start, len(mask)))
    return out


def _bridge_short_gaps_scalar(mask, min_frames):
    mask = mask.copy()
    speech = _runs_scalar(mask, True)
    for (_, prev_end), (next_start, _) in zip(speech[:-1], speech[1:]):
        if next_start - prev_end < min_frames:
            mask[prev_end:next_start] = True
    return mask


def _drop_short_runs_scalar(mask, min_frames):
    mask = mask.copy()
    for start, end in _runs_scalar(mask, True):
        if end - start < min_frames:
            mask[start:end] = False
    return mask


def _edge_and_random_masks():
    rng = np.random.default_rng(44)
    masks = [np.zeros(0, dtype=bool), np.zeros(1, dtype=bool), np.ones(1, dtype=bool),
             np.zeros(37, dtype=bool), np.ones(37, dtype=bool)]
    for length in (2, 3, 10, 200, 2000):
        for p_flip in (0.02, 0.2, 0.5, 0.9):
            flips = rng.random(length) < p_flip
            masks.append(np.logical_xor.accumulate(flips) ^ (rng.random() < 0.5))
    return masks


class TestRunScan:
    def test_segments_match_scalar_scan(self):
        for mask in _edge_and_random_masks():
            got = mask_to_segments(mask)
            assert got == _runs_scalar(mask, True)
            assert all(type(v) is int for run in got for v in run)

    def test_bridge_and_drop_match_scalar_scan(self):
        for mask in _edge_and_random_masks():
            for min_frames in (0, 1, 2, 5, 50):
                np.testing.assert_array_equal(
                    _bridge_short_gaps(mask, min_frames),
                    _bridge_short_gaps_scalar(mask, min_frames),
                )
                np.testing.assert_array_equal(
                    _drop_short_runs(mask, min_frames),
                    _drop_short_runs_scalar(mask, min_frames),
                )

    def test_list_and_int_masks(self):
        assert mask_to_segments([0, 1, 1, 0, 2]) == [(1, 3), (4, 5)]
        assert mask_to_segments([]) == []


class TestSegmentText:
    def test_three_decimal_lines(self):
        plan = FramePlan(400, 160)  # 25 ms / 10 ms at 16 kHz
        text = segments_to_text([(0, 10), (20, 25)], plan, 16000)
        lines = text.strip().split("\n")
        assert lines[0] == "0.000\t0.115"
        assert lines[1] == "0.200\t0.265"


class TestTrimAudio:
    def test_trimmed_duration_matches_segments(self, tmp_path):
        from accent_forge.signal import trim_audio

        audio, _ = synthesize_tone_silence(duration_sec=6.0, speech_fraction=0.5, seed=40)
        plan = FramePlan.from_ms(audio.sample_rate_hz)
        vad = remove_silence(audio, plan)
        trimmed = trim_audio(audio, vad, plan)
        expected = sum(
            (e - 1 - s) * plan.hop_samples + plan.frame_len_samples
            for s, e in vad.segments
        )
        assert len(trimmed.samples) == expected
        # trimmed output survives a WAV round trip
        out = tmp_path / "trimmed.wav"
        write_wav(out, trimmed)
        back = read_wav(out)
        assert len(back.samples) == expected
