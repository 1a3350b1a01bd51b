"""Audio ingestion, framing, and dual-threshold silence removal.

A frame is kept as speech when both its short-time energy rate and its
spectral centroid exceed thresholds estimated from the bimodal histograms
of those statistics over the whole utterance.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedAudioError

SUPPORTED_SAMPLE_RATES = (8000, 16000)

DEFAULT_ENERGY_WEIGHT = 5.0
DEFAULT_CENTROID_WEIGHT = 2.0
DEFAULT_MIN_SEGMENT_FRAMES = 5

# frames per block of the per-frame spectra in remove_silence and plp_static;
# a block holds fewer than 2 * FFT_BLOCK frames (frame_blocks), so each
# (block x FFT bins) temporary stays under about 1 MB whatever the utterance
# length. A multiple of 4: OpenBLAS's dgemv sums rows in groups of 4, so a
# frame's centroid numerator keeps its bits only where it keeps its place.
FFT_BLOCK = 128


@dataclass
class AudioBuffer:
    """Mono PCM samples scaled to [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise UnsupportedAudioError(
                "unsupported channel count: expected a 1-D mono sample array"
            )
        if self.sample_rate_hz not in SUPPORTED_SAMPLE_RATES:
            raise UnsupportedAudioError(
                "unsupported sample rate %r (supported: %s)"
                % (self.sample_rate_hz, SUPPORTED_SAMPLE_RATES)
            )

    @property
    def duration_sec(self):
        return len(self.samples) / float(self.sample_rate_hz)


@dataclass
class FramePlan:
    """Frame length and hop, both in samples."""

    frame_len_samples: int
    hop_samples: int

    def __post_init__(self):
        if self.frame_len_samples < 1 or self.hop_samples < 1:
            raise ValueError("frame length and hop must be positive")
        if self.hop_samples > self.frame_len_samples:
            raise ValueError("hop must not exceed the frame length")

    @classmethod
    def from_ms(cls, sample_rate_hz, frame_ms=25.0, hop_ms=10.0):
        return cls(
            frame_len_samples=int(round(sample_rate_hz * frame_ms / 1000.0)),
            hop_samples=int(round(sample_rate_hz * hop_ms / 1000.0)),
        )

    def num_frames(self, num_samples):
        if num_samples < self.frame_len_samples:
            return 0
        return (num_samples - self.frame_len_samples) // self.hop_samples + 1

    def sample_range(self, start_frame, end_frame):
        """Half-open sample span covered by frames [start_frame, end_frame)."""
        return (start_frame * self.hop_samples,
                (end_frame - 1) * self.hop_samples + self.frame_len_samples)


@dataclass
class VadResult:
    """Per-frame VAD statistics plus the final speech decision."""

    frame_energy: np.ndarray
    frame_centroid: np.ndarray
    speech_mask: np.ndarray
    segments: list = field(default_factory=list)
    energy_threshold: float | None = None
    centroid_threshold: float | None = None

    @property
    def compression_ratio(self):
        """Retained fraction of the input (frame-count based)."""
        if len(self.speech_mask) == 0:
            return 0.0
        return float(np.count_nonzero(self.speech_mask)) / len(self.speech_mask)


def read_wav(path):
    """Read a RIFF/WAVE file into an AudioBuffer.

    Only PCM 16-bit mono at 8 or 16 kHz is accepted; samples are scaled to
    [-1, 1] by dividing by 32768.
    """
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            if channels != 1:
                raise UnsupportedAudioError(
                    "unsupported channel count %d in %s (mono required)" % (channels, path)
                )
            width = handle.getsampwidth()
            if width != 2:
                raise UnsupportedAudioError(
                    "unsupported sample width %d-bit in %s (16-bit PCM required)"
                    % (8 * width, path)
                )
            comptype = handle.getcomptype()
            if comptype != "NONE":
                raise UnsupportedAudioError(
                    "unsupported encoding %r in %s (uncompressed PCM required)"
                    % (comptype, path)
                )
            rate = handle.getframerate()
            if rate not in SUPPORTED_SAMPLE_RATES:
                raise UnsupportedAudioError(
                    "unsupported sample rate %d in %s (supported: %s)"
                    % (rate, path, SUPPORTED_SAMPLE_RATES)
                )
            declared = handle.getnframes()
            raw = handle.readframes(declared)
    except wave.Error as exc:
        raise UnsupportedAudioError("unsupported encoding in %s: %s" % (path, exc)) from exc
    if len(raw) != 2 * declared:
        raise UnsupportedAudioError(
            "truncated data chunk in %s: %d frames declared, %d found"
            % (path, declared, len(raw) // 2)
        )
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioBuffer(samples, rate)


def write_wav(path, audio):
    """Write an AudioBuffer as PCM16 mono RIFF/WAVE."""
    pcm = np.clip(np.round(audio.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(audio.sample_rate_hz)
        handle.writeframes(pcm.tobytes())


def frame_signal(samples, plan):
    """Slice a 1-D sample array into overlapping frames (trailing partial dropped).

    Frame i starts at i * hop_samples. Returns a read-only (num_frames,
    frame_len) strided view of the samples; no sample is copied.
    """
    n = plan.frame_len_samples
    if len(samples) < n:
        raise ValueError(
            "signal of %d samples is shorter than one frame (%d samples)" % (len(samples), n)
        )
    return np.lib.stride_tricks.sliding_window_view(samples, n)[::plan.hop_samples]


def next_pow2(n):
    """The smallest power of two >= n: the FFT length of an n-sample frame."""
    return 1 << max(n - 1, 0).bit_length()


# _histogram_modes' bin count, smoothing width in bins and second-mode tests
_HIST_BINS = 50
_HIST_SMOOTH = 3
_HIST_HEIGHT_RATIO = 0.1
_HIST_VALLEY_RATIO = 0.3
_HIST_MIN_SEPARATION = 5
_HIST_MASS_FRACTION = 0.1


def _histogram_modes(values):
    """Positions of two genuinely separated smoothed-histogram modes.

    The tallest local maximum is always a mode. A second mode must be at
    least _HIST_HEIGHT_RATIO of the first and _HIST_MIN_SEPARATION bins away
    from it, hold at least _HIST_MASS_FRACTION of the samples near its peak,
    and be separated from the first by a valley dipping below
    _HIST_VALLEY_RATIO of the smaller peak; sampling bumps on a unimodal
    histogram fail those requirements. Returns the (up to two) positions
    sorted ascending.
    """
    values = np.asarray(values, dtype=np.float64)
    counts, edges = np.histogram(values, bins=_HIST_BINS)
    centers = 0.5 * (edges[:-1] + edges[1:])
    kernel = np.ones(_HIST_SMOOTH) / float(_HIST_SMOOTH)
    sm = np.convolve(counts.astype(np.float64), kernel, mode="same")
    peaks = []
    for i in range(len(sm)):
        left = sm[i - 1] if i > 0 else -np.inf
        right = sm[i + 1] if i < len(sm) - 1 else -np.inf
        if sm[i] > 0 and sm[i] >= left and sm[i] > right:
            peaks.append((sm[i], i))
    if not peaks:
        return []
    peaks.sort(key=lambda p: (-p[0], p[1]))
    main_height, main_idx = peaks[0]
    for height, idx in peaks[1:]:
        if height < _HIST_HEIGHT_RATIO * main_height:
            continue
        if abs(idx - main_idx) < _HIST_MIN_SEPARATION:
            continue
        mass = counts[max(0, idx - _HIST_SMOOTH):idx + _HIST_SMOOTH + 1].sum()
        if mass < _HIST_MASS_FRACTION * values.size:
            continue
        lo, hi = sorted((main_idx, idx))
        valley = sm[lo + 1:hi].min()
        if valley < _HIST_VALLEY_RATIO * min(height, main_height):
            return sorted((centers[main_idx], centers[idx]))
    return [centers[main_idx]]


def _run_bounds(mask):
    """Start and end (half-open) index arrays of the True runs of a mask."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2]


def _bridge_short_gaps(mask, min_frames):
    """Fill non-speech gaps shorter than min_frames between speech runs."""
    mask = mask.copy()
    starts, ends = _run_bounds(mask)
    short = starts[1:] - ends[:-1] < min_frames
    for start, end in zip(ends[:-1][short], starts[1:][short]):
        mask[start:end] = True
    return mask


def _drop_short_runs(mask, min_frames):
    mask = mask.copy()
    starts, ends = _run_bounds(mask)
    short = ends - starts < min_frames
    for start, end in zip(starts[short], ends[short]):
        mask[start:end] = False
    return mask


def mask_to_segments(mask):
    """Speech mask -> sorted, disjoint half-open (start_frame, end_frame) list."""
    starts, ends = _run_bounds(mask)
    return list(zip(starts.tolist(), ends.tolist()))


def frame_blocks(num_frames):
    """Slices that cover range(num_frames) in blocks of FFT_BLOCK frames.

    The last block also takes the remainder, so it holds FFT_BLOCK to
    2 * FFT_BLOCK - 1 frames, or a whole shorter utterance. A short tail
    block would take other BLAS kernels (a GEMM of few rows, a one-row
    product), whose sums differ in the last bits; this way each frame's
    row-wise products equal those over the whole utterance at once.
    """
    starts = list(range(0, max(num_frames - FFT_BLOCK, 0) + 1, FFT_BLOCK))
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [num_frames])]


def _frame_statistics(frames, nfft):
    """Energy rate, magnitude-spectrum total and spectral centroid of each frame.

    The spectra are taken one frame_blocks block at a time, so no (frames x
    bins) array is held whole. Every statistic is row-wise; a frame's centroid is
    its weighted magnitude sum over its total, or 0 where the total is not > 0.
    """
    num_frames = len(frames)
    weights = np.arange(2, nfft // 2 + 2, dtype=np.float64)
    energy = np.empty(num_frames)
    totals = np.empty(num_frames)
    moments = np.empty(num_frames)
    for rows in frame_blocks(num_frames):
        block = frames[rows]
        energy[rows] = np.mean(block * block, axis=1)
        mags = np.abs(np.fft.rfft(block, nfft, axis=1))[:, 1:]
        totals[rows] = mags.sum(axis=1)
        moments[rows] = mags @ weights
    centroid = np.divide(moments, totals, out=np.zeros(num_frames), where=totals > 0.0)
    return energy, totals, centroid


def remove_silence(
    audio,
    plan,
    energy_weight=DEFAULT_ENERGY_WEIGHT,
    centroid_weight=DEFAULT_CENTROID_WEIGHT,
    min_segment_frames=DEFAULT_MIN_SEGMENT_FRAMES,
):
    """Dual-threshold VAD over framed audio.

    A frame is speech when its energy rate (mean squared sample) and spectral
    centroid (of its magnitude spectrum, zero padded to a power of two, DC
    dropped, bin k weighted k + 1; 0 for an all-zero frame, which is never
    speech) both exceed their histogram-mode thresholds. A statistic whose histogram shows fewer
    than two modes imposes no constraint (there is nothing to separate), so
    uniformly loud input is kept whole. Speech gaps shorter than
    min_segment_frames are bridged, then speech runs shorter than
    min_segment_frames are dropped.
    """
    frames = frame_signal(audio.samples, plan)
    if len(frames) < 10:
        raise ValueError("silence removal needs at least 10 frames, got %d" % len(frames))
    energy, totals, centroid = _frame_statistics(frames, next_pow2(plan.frame_len_samples))
    nonzero = totals > 0.0

    mask = nonzero.copy()
    t_energy = None
    t_centroid = None
    e_modes = _histogram_modes(energy)
    if len(e_modes) == 2:
        t_energy = (energy_weight * e_modes[0] + e_modes[1]) / (energy_weight + 1.0)
        mask &= energy > t_energy
    c_modes = _histogram_modes(centroid[nonzero]) if np.any(nonzero) else []
    if len(c_modes) == 2:
        t_centroid = (centroid_weight * c_modes[0] + c_modes[1]) / (centroid_weight + 1.0)
        mask &= centroid > t_centroid

    mask = _bridge_short_gaps(mask, min_segment_frames)
    mask = _drop_short_runs(mask, min_segment_frames)
    return VadResult(
        frame_energy=energy,
        frame_centroid=centroid,
        speech_mask=mask,
        segments=mask_to_segments(mask),
        energy_threshold=None if t_energy is None else float(t_energy),
        centroid_threshold=None if t_centroid is None else float(t_centroid),
    )


def segments_to_text(segments, plan, sample_rate_hz):
    """One line per segment: `<start_sec>\\t<end_sec>` with 3 decimals."""
    rate = float(sample_rate_hz)
    lines = []
    for start_f, end_f in segments:
        start, end = plan.sample_range(start_f, end_f)
        lines.append("%.3f\t%.3f" % (start / rate, end / rate))
    return "\n".join(lines) + ("\n" if lines else "")
