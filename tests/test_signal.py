"""Tests for audio ingestion, framing, and dual-threshold silence removal."""

import os
import pickle
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

import accent_forge
from accent_forge import signal
from accent_forge.errors import ConfigError, UnsupportedAudioError
from accent_forge.pipeline import PipelineConfig
from accent_forge.signal import (
    FFT_BLOCK,
    AudioBuffer,
    _bridge_short_gaps,
    _drop_short_runs,
    _histogram_modes,
    FramePlan,
    frame_blocks,
    frame_signal,
    mask_to_segments,
    read_wav,
    remove_silence,
    segments_to_text,
    write_wav,
)


def synthesize_tone_silence(
    duration_sec=8.0,
    speech_fraction=0.85,
    sample_rate_hz=16000,
    num_bursts=5,
    tone_hz=None,
    burst_amp=0.3,
    noise_amp=1e-4,
    seed=0,
):
    """Tone bursts over a tiny noise floor, with known burst boundaries.

    The tone sits at 0.35 * fs, well above the white-noise spectral
    centroid, so both VAD criteria agree on the bursts. Returns the
    AudioBuffer and the ground-truth (start_sample, end_sample) list.
    """
    rng = np.random.default_rng(seed)
    total = int(round(duration_sec * sample_rate_hz))
    if tone_hz is None:
        tone_hz = 0.35 * sample_rate_hz
    samples = noise_amp * rng.standard_normal(total)
    speech_total = int(round(total * speech_fraction))
    silence_total = total - speech_total
    gap_weights = rng.uniform(0.6, 1.4, size=num_bursts + 1)
    gaps = np.floor(silence_total * gap_weights / gap_weights.sum()).astype(int)
    burst_weights = rng.uniform(0.6, 1.4, size=num_bursts)
    bursts = np.floor(speech_total * burst_weights / burst_weights.sum()).astype(int)
    bursts[-1] += speech_total - bursts.sum()

    truth = []
    cursor = 0
    t_index = np.arange(total)
    for i in range(num_bursts):
        cursor += gaps[i]
        start = cursor
        end = min(start + bursts[i], total)
        phase = 2.0 * np.pi * tone_hz / sample_rate_hz
        samples[start:end] += burst_amp * np.sin(phase * t_index[start:end])
        truth.append((int(start), int(end)))
        cursor = end
    return AudioBuffer(samples, sample_rate_hz), truth


# scalar oracles of the per-frame statistics remove_silence computes in one batch

def energy_rate(frame):
    """Mean squared magnitude of the frame samples."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size == 0:
        raise ValueError("energy of an empty frame is undefined")
    return float(np.mean(np.abs(frame) ** 2))


def centroid_from_spectrum(mags):
    """Centroid of a one-sided magnitude spectrum with the DC bin removed.

    Bin k (1-based) is weighted by k + 1, so a single active bin k yields
    k + 1 and a flat spectrum over K bins yields (K + 3) / 2.
    """
    mags = np.asarray(mags, dtype=np.float64)
    total = mags.sum()
    if total <= 0.0:
        return 0.0
    k = np.arange(1, len(mags) + 1, dtype=np.float64)
    return float(np.sum((k + 1.0) * mags) / total)


def spectral_centroid(frame, nfft=None):
    """Spectral centroid of one frame, zero padded to the next power of two.

    All-zero frames return 0.0, which the VAD treats as non-speech.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.size == 0:
        raise ValueError("spectral centroid of an empty frame is undefined")
    if not np.any(frame):
        return 0.0
    if nfft is None:
        nfft = 1 << (len(frame) - 1).bit_length()
    mags = np.abs(np.fft.rfft(frame, nfft))[1:]
    return centroid_from_spectrum(mags)


def whole_utterance_statistics(frames, nfft):
    """remove_silence's (energy, totals, centroid) from one (frames x bins)
    spectrum of the whole utterance, with the centroid numerators taken over
    the frames of nonzero total only (oracle)."""
    energy = np.mean(frames * frames, axis=1)
    mags = np.abs(np.fft.rfft(frames, nfft, axis=1))[:, 1:]
    totals = mags.sum(axis=1)
    weights = np.arange(2, mags.shape[1] + 2, dtype=np.float64)
    centroid = np.zeros(len(frames))
    nonzero = totals > 0.0
    centroid[nonzero] = (mags[nonzero] @ weights) / totals[nonzero]
    return energy, totals, centroid


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

    @pytest.mark.parametrize("cut_bytes, found", [(200, 900), (201, 899)])
    def test_truncated_data_chunk_rejected(self, tmp_path, cut_bytes, found):
        # cut at a sample boundary, and in the middle of a sample
        path = tmp_path / "cut.wav"
        _write_pcm16(path, np.arange(1000))
        path.write_bytes(path.read_bytes()[:-cut_bytes])
        with pytest.raises(UnsupportedAudioError,
                           match="truncated data chunk in .*cut.wav: 1000 frames declared, "
                                 "%d found" % found):
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

    def test_frames_are_a_read_only_view_of_the_samples(self):
        samples = np.arange(10.0)
        frames = frame_signal(samples, FramePlan(4, 2))
        assert np.shares_memory(frames, samples)
        assert not frames.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frames[0, 0] = 1.0

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            frame_signal(np.arange(3.0), FramePlan(4, 2))

    def test_invalid_plan(self):
        with pytest.raises(ValueError):
            FramePlan(4, 5)


class TestFrameBlocks:
    def test_blocks_tile_the_frames_and_no_block_is_short(self):
        # a short block would take BLAS's small-matrix kernels, and a block
        # start off the groups of 4 rows would move dgemv's sums
        assert FFT_BLOCK % 4 == 0
        for num_frames in range(1, 5 * FFT_BLOCK + 2):
            blocks = frame_blocks(num_frames)
            assert [b.start for b in blocks] == list(range(0, len(blocks) * FFT_BLOCK, FFT_BLOCK))
            assert [b.stop for b in blocks] == [b.start for b in blocks[1:]] + [num_frames]
            sizes = [b.stop - b.start for b in blocks]
            if num_frames < FFT_BLOCK:
                assert sizes == [num_frames]
            else:
                assert all(FFT_BLOCK <= size < 2 * FFT_BLOCK for size in sizes)


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


def _two_level_audio():
    """16 kHz random-sign samples: 500 hops at frame energy 0.01, then 500 at 1.0."""
    amps = np.repeat([0.1, 1.0], 500 * 160)
    return AudioBuffer(amps * np.random.default_rng(5).choice([-1.0, 1.0], amps.size), 16000)


class TestVadStatistics:
    def test_batched_statistics_match_scalar_oracles(self):
        zero_frames = 0
        for rate in (8000, 16000):
            tone, _ = synthesize_tone_silence(duration_sec=3.0, sample_rate_hz=rate,
                                              num_bursts=3, noise_amp=0.0, seed=rate)
            noisy_tone, _ = synthesize_tone_silence(duration_sec=3.0, sample_rate_hz=rate,
                                                    num_bursts=2, seed=rate + 1)
            noise = np.random.default_rng(rate).standard_normal(2 * rate)
            noise[rate // 2:rate] = 0.0
            for audio in (tone, noisy_tone, AudioBuffer(noise, rate)):
                plan = FramePlan.from_ms(rate)
                vad = remove_silence(audio, plan)
                frames = frame_signal(audio.samples, plan)
                zero_frames += int(np.sum(~np.any(frames, axis=1)))
                np.testing.assert_allclose(
                    vad.frame_energy, [energy_rate(f) for f in frames], rtol=1e-12, atol=0)
                np.testing.assert_allclose(vad.frame_centroid,
                                           [spectral_centroid(f) for f in frames],
                                           rtol=1e-12, atol=0)
        assert zero_frames > 0

    def test_blocks_equal_the_whole_utterance_oracle(self, tmp_path):
        cases = _vad_cases_at_one_blas_thread(tmp_path)
        assert len(cases) == 2 * 2 * len(_BLOCK_EDGE_FRAMES)
        for (rate, num_frames, zeros), got, want in cases:
            assert len(got[0]) == num_frames
            assert got[0].tobytes() == want[0].tobytes()  # energies
            assert got[2:4] == want[2:4]  # segments and the energy threshold
            assert want[3] is not None and want[4] is not None
            if zeros:
                # the oracle's numerators skip the all-zero frames, which moves
                # the other frames' rows in BLAS's row groups and so their last bits
                assert np.count_nonzero(got[1] == 0.0) > 0
                np.testing.assert_allclose(got[1], want[1], rtol=1e-15, atol=0)
                assert got[4] == pytest.approx(want[4], rel=1e-15, abs=0)
            else:
                assert got[1].tobytes() == want[1].tobytes()  # centroids
                assert got[4] == want[4]

    def test_memory_bounded_by_a_block_of_frames(self):
        # 300 s at 16 kHz: the whole-utterance spectra took about 177 MiB
        amps = np.repeat([0.01, 0.5], 150 * 16000)
        audio = AudioBuffer(amps * np.random.default_rng(7).standard_normal(amps.size), 16000)
        tracemalloc.start()
        try:
            vad = remove_silence(audio, FramePlan.from_ms(16000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vad.speech_mask) == 29998
        assert peak < 8 * 2 ** 20, peak


# frame counts around the block edges
_BLOCK_EDGE_FRAMES = (FFT_BLOCK - 1, FFT_BLOCK, FFT_BLOCK + 1, 2 * FFT_BLOCK - 1,
                      2 * FFT_BLOCK, 2 * FFT_BLOCK + 1, 3 * FFT_BLOCK + 57)


def _vad_block_cases():
    """((rate, frames, has zero frames), blocked, oracle) per utterance of
    _BLOCK_EDGE_FRAMES frames; blocked and oracle are remove_silence's (energy,
    centroid, segments, energy threshold, centroid threshold), the oracle's from
    whole_utterance_statistics. The utterances alternate 200 ms of loud white
    noise with 200 ms of quiet low-passed noise, so both statistics are
    bimodal; in half of them a 250 ms stretch is zeroed."""
    cases = []
    for rate in (8000, 16000):
        plan = FramePlan.from_ms(rate)
        for num_frames in _BLOCK_EDGE_FRAMES:
            num_samples = plan.sample_range(0, num_frames)[1]
            white = np.random.default_rng(num_frames).standard_normal(num_samples)
            loud = (np.arange(num_samples) // (rate // 5)) % 2 == 1
            quiet = 0.02 * np.convolve(white, np.ones(6) / 6, mode="same")
            for zeros in (False, True):
                samples = np.where(loud, 0.5 * white, quiet)
                if zeros:
                    samples[num_samples // 3:num_samples // 3 + rate // 4] = 0.0
                audio = AudioBuffer(samples, rate)
                results = [remove_silence(audio, plan)]
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(signal, "_frame_statistics", whole_utterance_statistics)
                    results.append(remove_silence(audio, plan))
                cases.append(((rate, num_frames, zeros),) + tuple(
                    (r.frame_energy, r.frame_centroid, r.segments, r.energy_threshold,
                     r.centroid_threshold) for r in results))
    return cases


def _vad_cases_at_one_blas_thread(tmp_path):
    """_vad_block_cases() computed in a fresh process with 1 BLAS thread, as the
    benchmark runs: OpenBLAS splits a matrix-vector product's rows between its
    threads, and where it splits moves the oracle's last bits."""
    env = dict(os.environ, PYTHONPATH=str(Path(accent_forge.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = tmp_path / "cases.pkl"
    script = (
        "import pickle, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_signal import _vad_block_cases\n"
        "with open(sys.argv[2], 'wb') as handle:\n"
        "    pickle.dump(_vad_block_cases(), handle)\n"
    )
    subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent), str(out)],
                   env=env, check=True, timeout=120)
    with open(out, "rb") as handle:
        return pickle.load(handle)


class TestThresholds:
    def test_bimodal_formula(self):
        vad = remove_silence(_two_level_audio(), FramePlan.from_ms(16000), energy_weight=5.0)
        m1, m2 = _histogram_modes(vad.frame_energy)
        assert vad.energy_threshold == pytest.approx((5 * m1 + m2) / 6.0, rel=1e-12)
        assert vad.energy_threshold == pytest.approx((5 * 0.01 + 1.0) / 6.0, abs=0.03)

    def test_unimodal_statistic_sets_no_threshold(self):
        rng = np.random.default_rng(6)
        vad = remove_silence(AudioBuffer(rng.standard_normal(16000), 16000),
                             FramePlan.from_ms(16000))
        assert vad.energy_threshold is None and vad.centroid_threshold is None
        assert vad.speech_mask.all()

    def test_large_weight_limit(self):
        vad = remove_silence(_two_level_audio(), FramePlan.from_ms(16000), energy_weight=1e9)
        m1, _ = _histogram_modes(vad.frame_energy)
        assert vad.energy_threshold == pytest.approx(m1, rel=1e-6)
        assert 0.01 < vad.energy_threshold < 0.1  # the low mode, not the midpoint

    def test_too_few_values(self):
        plan = FramePlan(4, 2)
        assert plan.num_frames(21) == 9
        with pytest.raises(ValueError, match="at least 10"):
            remove_silence(AudioBuffer(np.ones(21), 8000), plan)

    def test_bad_weight(self):
        for key in ("energy_weight", "centroid_weight"):
            for weight in (0.0, -0.5, -1.0, float("nan")):
                cfg = PipelineConfig()
                setattr(cfg.signal, key, weight)
                with pytest.raises(ConfigError, match="must be positive"):
                    cfg.validate()


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
        rebuilt = np.zeros(len(vad.speech_mask), dtype=bool)
        for start, end in vad.segments:
            rebuilt[start:end] = True
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


class TestSampleRange:
    def test_retained_samples_match_segments(self, tmp_path):
        audio, _ = synthesize_tone_silence(duration_sec=6.0, speech_fraction=0.5, seed=40)
        plan = FramePlan.from_ms(audio.sample_rate_hz)
        vad = remove_silence(audio, plan)
        assert len(vad.segments) > 1
        ranges = [plan.sample_range(s, e) for s, e in vad.segments]
        # stage_vad's duration_after_sec: each segment's frames span
        # (frames - 1) hops plus one frame
        expected = sum(
            (e - 1 - s) * plan.hop_samples + plan.frame_len_samples
            for s, e in vad.segments
        )
        assert sum(e - s for s, e in ranges) == expected
        assert all(type(v) is int for r in ranges for v in r)
        assert all(a[1] <= b[0] for a, b in zip(ranges[:-1], ranges[1:]))
        # each range frames back to exactly its segment's frames
        frames = frame_signal(audio.samples, plan)
        for (s, e), (s0, s1) in zip(vad.segments, ranges):
            np.testing.assert_array_equal(frame_signal(audio.samples[s0:s1], plan),
                                          frames[s:e])
        # the speech portions survive a WAV round trip
        out = tmp_path / "trimmed.wav"
        write_wav(out, AudioBuffer(np.concatenate([audio.samples[s:e] for s, e in ranges]),
                                   audio.sample_rate_hz))
        assert len(read_wav(out).samples) == expected

    def test_mask_round_trip(self):
        plan = FramePlan(400, 160)
        assert plan.sample_range(0, 1) == (0, 400)
        assert plan.sample_range(20, 25) == (3200, 4240)
        mask = np.zeros(40, dtype=bool)
        for start, end in [(0, 10), (20, 25), (39, 40)]:
            mask[start:end] = True
        assert mask_to_segments(mask) == [(0, 10), (20, 25), (39, 40)]
