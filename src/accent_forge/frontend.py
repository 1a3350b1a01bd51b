"""Cepstral frontend: PLP-style static features, deltas, MVN, feature warping.

The static recipe per frame: Hamming window, power spectrum, Bark
critical-band integration, equal-loudness weighting, cube-root compression,
autocorrelation via inverse DFT, Levinson-Durbin linear prediction, and the
LP-to-cepstrum recursion.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import FormatError
from .signal import frame_blocks, next_pow2

FEATURE_MAGIC = b"AFF1"

_SPECTRUM_FLOOR = 1e-30
_MVN_FLOOR = 1e-10


@dataclass
class FrontendConfig:
    lp_order: int = 12
    num_ceps: int = 13
    num_filters: int = 21
    delta_window: int = 2
    warp_window_frames: int = 301
    mvn_before_warp: bool = True

    def __post_init__(self):
        if self.num_ceps > self.lp_order + 1:
            raise ValueError("num_ceps must be <= lp_order + 1")
        if self.warp_window_frames < 3 or self.warp_window_frames % 2 == 0:
            raise ValueError("warp window must be odd and >= 3")
        if self.num_filters < 3:
            raise ValueError("need at least 3 critical-band filters")
        if self.delta_window < 1:
            raise ValueError("delta window must be at least 1, got %d" % self.delta_window)


@dataclass
class FeatureMatrix:
    """K frames x M dims of features, plus frame hop and optional frame tags."""

    data: np.ndarray
    frame_hop_sec: float = 0.01
    tags: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("feature data must be 2-D (frames x dims)")
        if self.data.size and not np.all(np.isfinite(self.data)):
            raise ValueError("feature data contains NaN or Inf")
        if self.tags is not None:
            self.tags = np.asarray(self.tags, dtype=np.uint8)
            if self.tags.shape != (self.data.shape[0],):
                raise ValueError("tags must have one entry per frame")

    @property
    def num_frames(self):
        return self.data.shape[0]

    @property
    def dim(self):
        return self.data.shape[1]

    def head(self, max_frames):
        """The first max_frames frames, or all if fewer (the test-time duration cap)."""
        tags = None if self.tags is None else self.tags[:max_frames]
        return FeatureMatrix(self.data[:max_frames], self.frame_hop_sec, tags)


@dataclass
class MvnStats:
    mean: np.ndarray
    std: np.ndarray
    floored_dims: tuple = ()


def hz_to_bark(f):
    return 6.0 * np.arcsinh(np.asarray(f, dtype=np.float64) / 600.0)


def bark_filterbank(nfft, sample_rate_hz, num_filters):
    """Critical-band weights (num_filters x one-sided bins).

    Trapezoidal filters on the Bark axis with +10 dB/Bark and -25 dB/Bark
    skirts, band centers equally spaced from 0 to the Nyquist Bark.
    """
    nbins = nfft // 2 + 1
    bin_barks = hz_to_bark(np.arange(nbins) * sample_rate_hz / float(nfft))
    nyq_bark = float(hz_to_bark(sample_rate_hz / 2.0))
    step = nyq_bark / (num_filters - 1)
    weights = np.zeros((num_filters, nbins))
    for i in range(num_filters):
        mid = i * step
        lo = bin_barks - mid - 0.5
        hi = bin_barks - mid + 0.5
        weights[i] = 10.0 ** np.minimum(0.0, np.minimum(hi, -2.5 * lo))
    return weights


def equal_loudness(freqs_hz):
    """Equal-loudness weighting at the given frequencies."""
    fsq = np.asarray(freqs_hz, dtype=np.float64) ** 2
    return (fsq / (fsq + 1.6e5)) ** 2 * (fsq + 1.44e6) / (fsq + 9.61e6)


def _levinson_rows(r, order):
    """Levinson-Durbin recursion over every row of a (K x N) array, N > order.

    Returns (coeffs, gains): coeffs[k] = [1, a1..ap] is the prediction
    polynomial A(z) = 1 + sum a_j z^-j of row k and gains[k] its final
    prediction-error power. The loop runs over the order, not the rows. The
    inner products go through np.vecdot on C-contiguous operands, which
    sums in the same order as the BLAS ddot of a per-row np.dot, so every
    row comes out bit for bit as a one-row recursion would give it.
    """
    if r.shape[1] < order + 1:
        raise ValueError("autocorrelation too short for LP order %d" % order)
    a = np.zeros((r.shape[0], order + 1))
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    if np.any(err <= 0):
        raise ValueError("non-positive zero-lag autocorrelation")
    for i in range(1, order + 1):
        dot = np.vecdot(
            np.ascontiguousarray(a[:, 1:i]), np.ascontiguousarray(r[:, i - 1:0:-1])
        )
        k = -(r[:, i] + dot) / err
        a[:, 1:i + 1] = a[:, 1:i + 1] + k[:, None] * a[:, i - 1::-1]
        err *= 1.0 - k * k
        err[err <= 0] = _SPECTRUM_FLOOR
    return a, err


def _lp_to_cepstrum_rows(a, gains, num_ceps):
    """Cepstra (K x num_ceps) of the all-pole models gains[k] / A_k(z).

    c[0] = log(gain); c[n] = -a[n] - (1/n) sum_{k=1}^{n-1} k c[k] a[n-k],
    summed left to right for all rows at once.
    """
    order = a.shape[1] - 1
    c = np.zeros((a.shape[0], num_ceps))
    c[:, 0] = np.log(gains)
    for n in range(1, num_ceps):
        acc = np.zeros(a.shape[0])
        for k in range(max(1, n - order), n):
            acc += k * c[:, k] * a[:, n - k]
        c[:, n] = (-a[:, n] if n <= order else 0.0) - acc / n
    return c


def plp_static(frames, sample_rate_hz, cfg=None):
    """Static cepstra (K x num_ceps) from speech frames.

    Frames must be a rectangular (K x N) array of post-VAD speech samples.
    """
    if cfg is None:
        cfg = FrontendConfig()
    try:
        frames = np.asarray(frames, dtype=np.float64)
    except ValueError as exc:
        raise ValueError("frames must form a rectangular (K x N) array") from exc
    if frames.ndim != 2:
        raise ValueError("frames must form a rectangular (K x N) array")
    num_frames, frame_len = frames.shape
    if num_frames < 1:
        raise ValueError("need at least one frame")

    nfft = next_pow2(frame_len)
    window = np.hamming(frame_len)
    fbank = bark_filterbank(nfft, sample_rate_hz, cfg.num_filters).T
    nyq_bark = float(hz_to_bark(sample_rate_hz / 2.0))
    centers_bark = np.arange(cfg.num_filters) * (nyq_bark / (cfg.num_filters - 1))
    loudness = equal_loudness(600.0 * np.sinh(centers_bark / 6.0))

    # one block of frames at a time, so that only the (frames x filters)
    # autocorrelations are held whole
    autocorr = np.empty((num_frames, cfg.num_filters))
    for rows in frame_blocks(num_frames):
        power = np.abs(np.fft.rfft(frames[rows] * window, nfft, axis=1)) ** 2
        bands = np.maximum(power @ fbank * loudness, _SPECTRUM_FLOOR) ** 0.33
        # edge bands are unreliable as integrated; replace with their neighbors
        bands[:, 0] = bands[:, 1]
        bands[:, -1] = bands[:, -2]
        # treat the compressed band spectrum as a power spectrum of a short
        # sequence: inverse DFT of the even extension gives its autocorrelation
        even = np.concatenate([bands, bands[:, -2:0:-1]], axis=1)
        autocorr[rows] = np.fft.ifft(even, axis=1).real[:, : cfg.num_filters]

    coeffs, gains = _levinson_rows(autocorr, cfg.lp_order)
    return _lp_to_cepstrum_rows(coeffs, gains, cfg.num_ceps)


def _regression_deltas(data, window):
    num = np.zeros_like(data)
    k = data.shape[0]
    padded = np.vstack([data[:1]] * window + [data] + [data[-1:]] * window)
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    for n in range(1, window + 1):
        num += n * (padded[window + n: window + n + k] - padded[window - n: window - n + k])
    return num / denom


def append_deltas(data, window=2):
    """Append regression deltas and delta-deltas (dim -> 3x dim)."""
    if window < 1:
        raise ValueError("delta window must be at least 1, got %d" % window)
    if data.shape[0] < 2 * window + 1:
        raise ValueError(
            "need at least %d frames for delta window %d, got %d"
            % (2 * window + 1, window, data.shape[0])
        )
    d1 = _regression_deltas(data, window)
    d2 = _regression_deltas(d1, window)
    return np.hstack([data, d1, d2])


def mvn(data):
    """Per-utterance, per-dimension zero mean / unit variance.

    Returns the normalized features plus the statistics used. Variances
    below _MVN_FLOOR are floored, and MvnStats.floored_dims names them.
    """
    if data.shape[0] < 2:
        raise ValueError("MVN needs at least 2 frames")
    mean = data.mean(axis=0)
    var = data.var(axis=0)
    floored = tuple(int(i) for i in np.nonzero(var < _MVN_FLOOR)[0])
    var = np.maximum(var, _MVN_FLOOR)
    std = np.sqrt(var)
    return (data - mean) / std, MvnStats(mean=mean, std=std, floored_dims=floored)


# window centres per block of feature_warp's comparisons, which bounds the
# (dims x block x window) boolean temporary whatever the utterance length
_WARP_BLOCK = 256


def _count_below(windows, centres):
    """How many entries of each window (..., B, L) lie below its centre (..., B).

    The sum runs in the narrowest unsigned type that holds L, which is
    about three times as fast as summing the bytes into np.intp.
    """
    less = windows < centres[..., None]
    return less.view(np.uint8).sum(axis=-1, dtype=np.min_scalar_type(windows.shape[-1]))


def _frame_places(data):
    """pos[d, t]: frame t's place in (value, frame index) order within column d.

    Only a column that holds equal values needs the slower stable argsort
    for that order. The places come in the narrowest unsigned type, which
    keeps feature_warp's window comparisons cheap.
    """
    columns = np.ascontiguousarray(data.T)
    order = np.argsort(columns, axis=1)
    ranked = np.take_along_axis(columns, order, axis=1)
    ties = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    order[ties] = np.argsort(columns[ties], axis=1, kind="stable")
    place = np.arange(data.shape[0], dtype=np.min_scalar_type(data.shape[0]))
    pos = np.empty(columns.shape, dtype=place.dtype)
    np.put_along_axis(pos, order, place[None, :], axis=1)
    return pos


def feature_warp(data, window=301):
    """Short-term Gaussianization (feature warping).

    Each value is replaced by the standard-normal quantile of its rank
    within a sliding window of length L: Phi^-1((r - 0.5) / L). Windows are
    shifted (not shrunk) at the utterance edges; ties rank earlier frames
    lower. If the utterance is shorter than the window, L shrinks to the
    largest odd length available. The result is C-contiguous.
    """
    num_frames, dim = data.shape
    length = min(window, num_frames)
    if length % 2 == 0:
        length -= 1
    if length < 1:
        raise ValueError("empty feature matrix")
    if np.isnan(data).any():
        raise ValueError("cannot warp NaN features")
    # within any window "ranks below t" is pos[j] < pos[t]: smaller values,
    # and equal values of earlier frames
    pos = _frame_places(data)
    half = length // 2
    num_inner = num_frames - 2 * half
    below = np.empty((dim, num_frames), dtype=np.min_scalar_type(length))
    # the edge frames share the first and the last window
    below[:, :half] = _count_below(pos[:, None, :length], pos[:, :half])
    below[:, half + num_inner:] = _count_below(pos[:, None, -length:], pos[:, half + num_inner:])
    # every column at once, over blocks of centred windows
    windows = np.lib.stride_tricks.sliding_window_view(pos, length, axis=1)
    for start in range(0, num_inner, _WARP_BLOCK):
        stop = min(start + _WARP_BLOCK, num_inner)
        below[:, half + start:half + stop] = _count_below(
            windows[:, start:stop], pos[:, half + start:half + stop])
    # rank r = below + 1, so the quantile is Phi^-1((below + 0.5) / L)
    quantiles = ndtri((np.arange(length) + 0.5) / length)
    return np.ascontiguousarray(quantiles[below].T)


def write_feature_archive(path, feat):
    """Binary feature archive: AFF1, u32 K, u32 M, f64 hop, f64 data, u8 tags."""
    with open(path, "wb") as handle:
        handle.write(FEATURE_MAGIC)
        handle.write(struct.pack("<II", feat.num_frames, feat.dim))
        handle.write(struct.pack("<d", feat.frame_hop_sec))
        handle.write(np.ascontiguousarray(feat.data, dtype="<f8").tobytes())
        if feat.tags is not None:
            handle.write(feat.tags.astype(np.uint8).tobytes())


def read_feature_archive(path):
    """An AFF1 archive; FormatError if it is not what write_feature_archive writes."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != FEATURE_MAGIC:
            raise FormatError(
                "bad magic %r in %s (expected %r)" % (magic, path, FEATURE_MAGIC)
            )
        header = handle.read(16)
        if len(header) != 16:
            raise FormatError("truncated feature archive header in %s" % path)
        num_frames, dim = struct.unpack("<II", header[:8])
        hop = struct.unpack("<d", header[8:])[0]
        rest = handle.read()
    body_len = num_frames * dim * 8
    if len(rest) < body_len:
        raise FormatError("truncated feature data in %s" % path)
    num_tags = len(rest) - body_len
    if num_tags not in (0, num_frames):
        raise FormatError(
            "%d bytes after the feature data in %s; the tag block must be absent "
            "or one byte per frame (%d)" % (num_tags, path, num_frames)
        )
    data = np.frombuffer(rest, dtype="<f8", count=num_frames * dim).reshape(num_frames, dim)
    tags = np.frombuffer(rest, dtype=np.uint8, offset=body_len).copy() if num_tags else None
    try:
        return FeatureMatrix(data.copy(), hop, tags)
    except ValueError as exc:
        raise FormatError("%s in %s" % (exc, path)) from None
