"""Tests for the PLP frontend, deltas, MVN, warping, and the archive format."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from accent_forge import frontend
from accent_forge.errors import FormatError
from accent_forge.frontend import (
    FeatureMatrix,
    FrontendConfig,
    append_deltas,
    feature_warp,
    mvn,
    plp_static,
    read_feature_archive,
    write_feature_archive,
)
from accent_forge.signal import FFT_BLOCK, FramePlan, frame_signal

_SPECTRUM_FLOOR = 1e-30


def levinson(r, order):
    """Scalar Levinson-Durbin recursion (oracle): one autocorrelation row.

    Returns (a, gain) where a = [1, a1..ap] is the prediction polynomial
    A(z) = 1 + sum a_k z^-k and gain is the final prediction-error power.
    """
    r = np.asarray(r, dtype=np.float64)
    if len(r) < order + 1:
        raise ValueError("autocorrelation too short for LP order %d" % order)
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    if err <= 0:
        raise ValueError("non-positive zero-lag autocorrelation")
    for i in range(1, order + 1):
        acc = r[i] + np.dot(a[1:i], r[i - 1:0:-1])
        k = -acc / err
        a[1:i + 1] = a[1:i + 1] + k * a[i - 1::-1][:i]
        err *= 1.0 - k * k
        if err <= 0:
            err = _SPECTRUM_FLOOR
    return a, float(err)


def lp_to_cepstrum(a, gain, num_ceps):
    """Scalar LP-to-cepstrum recursion (oracle) for one all-pole model."""
    order = len(a) - 1
    c = np.zeros(num_ceps)
    c[0] = np.log(gain)
    for n in range(1, num_ceps):
        acc = 0.0
        for k in range(1, n):
            if n - k <= order:
                acc += k * c[k] * a[n - k]
        c[n] = (-a[n] if n <= order else 0.0) - acc / n
    return c


def _batch_levinson(autocorr, order):
    """Frame-by-frame loop over the scalar recursion (oracle)."""
    coeffs = np.empty((autocorr.shape[0], order + 1))
    gains = np.empty(autocorr.shape[0])
    for i in range(autocorr.shape[0]):
        coeffs[i], gains[i] = levinson(autocorr[i], order)
    return coeffs, gains


def _cepstra_per_frame(coeffs, gains, num_ceps):
    return np.array([lp_to_cepstrum(a, g, num_ceps) for a, g in zip(coeffs, gains)])


def _plp_static_oracle(frames, sample_rate_hz, cfg=None):
    """plp_static with its spectra taken over all frames at once and its LP back
    end run one frame at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontend, "frame_blocks", lambda num_frames: [slice(0, num_frames)])
        mp.setattr(frontend, "_levinson_rows", _batch_levinson)
        mp.setattr(frontend, "_lp_to_cepstrum_rows", _cepstra_per_frame)
        return plp_static(frames, sample_rate_hz, cfg)


def _feature_warp_oracle(data, window):
    """Feature warping by gathering a K x L copy of every window (oracle)."""
    num_frames, dim = data.shape
    length = min(window, num_frames)
    if length % 2 == 0:
        length -= 1
    half = length // 2
    starts = np.clip(np.arange(num_frames) - half, 0, num_frames - length)
    win_idx = starts[:, None] + np.arange(length)[None, :]
    pos = np.arange(num_frames)[:, None]
    out = np.empty_like(data)
    for d in range(dim):
        col = data[:, d]
        windows = col[win_idx]
        center = col[:, None]
        less = np.count_nonzero(windows < center, axis=1)
        ties_before = np.count_nonzero((windows == center) & (win_idx < pos), axis=1)
        ranks = 1 + less + ties_before
        out[:, d] = ndtri((ranks - 0.5) / length)
    return out


def _levinson_one(r, order):
    coeffs, gains = frontend._levinson_rows(np.asarray(r, dtype=np.float64)[None, :], order)
    return coeffs[0], gains[0]


class TestLevinson:
    def test_order_one_by_hand(self):
        a, gain = _levinson_one([1.0, 0.5], 1)
        np.testing.assert_allclose(a, [1.0, -0.5])
        assert gain == pytest.approx(0.75)

    def test_matches_normal_equations(self):
        # oracle: solve the Toeplitz normal equations directly
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4096)
        order = 6
        r = np.array([np.dot(x[: len(x) - k], x[k:]) for k in range(order + 1)]) / len(x)
        a, gain = _levinson_one(r, order)
        toeplitz = np.array([[r[abs(i - j)] for j in range(order)] for i in range(order)])
        predictor = np.linalg.solve(toeplitz, r[1: order + 1])
        np.testing.assert_allclose(a[1:], -predictor, atol=1e-10)
        gain_oracle = r[0] - predictor @ r[1: order + 1]
        assert gain == pytest.approx(gain_oracle, rel=1e-10)

    def test_cepstrum_recursion_analytic(self):
        # ln(1 / (1 - 0.5 z^-1)) has c_n = 0.5^n / n
        c = frontend._lp_to_cepstrum_rows(np.array([[1.0, -0.5]]), np.array([1.0]), 6)[0]
        want = [0.0] + [0.5 ** n / n for n in range(1, 6)]
        np.testing.assert_allclose(c, want, atol=1e-12)

    def test_rows_bitwise_equal_scalar_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((300, 64))
        r = np.stack([np.correlate(row, row, "full")[63:63 + 21] for row in x])
        # rows whose recursion hits the err <= 0 floor at order one: a
        # constant signal (k = -1) and a reflection coefficient of -2
        r[7] = 1.0
        r[11] = 2.0 ** np.arange(21)
        for order in (1, 2, 5, 12, 20):
            coeffs, gains = frontend._levinson_rows(r, order)
            want_coeffs, want_gains = _batch_levinson(r, order)
            assert np.array_equal(coeffs, want_coeffs)
            assert np.array_equal(gains, want_gains)
            ceps = frontend._lp_to_cepstrum_rows(coeffs, gains, min(13, order + 1))
            assert np.array_equal(ceps, _cepstra_per_frame(coeffs, gains, min(13, order + 1)))
        assert _batch_levinson(r, 12)[1][7] == _SPECTRUM_FLOOR
        assert _batch_levinson(r, 12)[1][11] == _SPECTRUM_FLOOR

    def test_cepstra_beyond_order_bitwise(self):
        rng = np.random.default_rng(22)
        coeffs = np.hstack([np.ones((50, 1)), 0.3 * rng.standard_normal((50, 4))])
        gains = rng.uniform(0.1, 2.0, 50)
        ceps = frontend._lp_to_cepstrum_rows(coeffs, gains, 13)
        assert np.array_equal(ceps, _cepstra_per_frame(coeffs, gains, 13))

    def test_non_positive_zero_lag_rejected(self):
        r = np.array([[1.0, 0.5, 0.1], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="non-positive zero-lag"):
            frontend._levinson_rows(r, 2)

    def test_short_autocorrelation_rejected(self):
        with pytest.raises(ValueError, match="too short for LP order 3"):
            frontend._levinson_rows(np.ones((4, 3)), 3)


class TestPlpStatic:
    def test_white_noise_shape(self):
        rng = np.random.default_rng(0)
        frames = 0.1 * rng.standard_normal((400, 400))
        feats = plp_static(frames, 16000)
        assert feats.shape == (400, 13)
        assert np.all(np.isfinite(feats))
        # white noise is flat before the perceptual weighting; the
        # equal-loudness tilt lands in the first few cepstra, everything
        # beyond them averages out to ~0
        mean = feats.mean(axis=0)
        assert np.abs(mean[0]) > 0.05
        assert np.abs(mean[6:]).max() < 0.05

    def test_scaling_shifts_only_c0(self):
        rng = np.random.default_rng(1)
        frames = 0.1 * rng.standard_normal((10, 400))
        base = plp_static(frames, 16000)
        scaled = plp_static(2.0 * frames, 16000)
        diff = scaled - base
        np.testing.assert_allclose(diff[:, 0], 0.33 * np.log(4.0), atol=1e-8)
        assert np.abs(diff[:, 1:]).max() < 1e-8

    @pytest.mark.parametrize("num_frames", [1, 2, 97, FFT_BLOCK - 1, FFT_BLOCK, FFT_BLOCK + 1,
                                            2 * FFT_BLOCK + 1])
    def test_bitwise_equal_per_frame_oracle(self, num_frames):
        rng = np.random.default_rng(num_frames)
        frames = 0.1 * rng.standard_normal((num_frames, 400))
        assert np.array_equal(plp_static(frames, 16000), _plp_static_oracle(frames, 16000))

    def test_memory_scales_with_frames_times_filters(self):
        # 300 s at 16 kHz; whole-utterance power spectra took about 209 MiB
        samples = 0.1 * np.random.default_rng(3).standard_normal(300 * 16000)
        frames = frame_signal(samples, FramePlan.from_ms(16000))  # a view: no copy
        num_filters = FrontendConfig().num_filters
        tracemalloc.start()
        try:
            feats = plp_static(frames, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feats.shape == (29998, 13)
        # six (frames x filters) float arrays, plus one block's spectra
        assert peak < 6 * 8 * len(frames) * num_filters + 8 * 2 ** 20, peak

    def test_bitwise_equal_on_tones_silence_and_8k(self):
        t = np.arange(200) / 8000.0
        frames = np.vstack([
            np.zeros(200),
            np.full(200, 0.3),
            np.sin(2 * np.pi * 1000.0 * t),
            np.sin(2 * np.pi * 440.0 * t) + 1e-9 * np.arange(200),
        ])
        cfg = FrontendConfig(lp_order=20, num_ceps=13)
        for c in (None, cfg):
            assert np.array_equal(plp_static(frames, 8000, c),
                                  _plp_static_oracle(frames, 8000, c))

    def test_lp_order_beyond_filters_rejected(self):
        cfg = FrontendConfig(lp_order=25, num_filters=21)
        with pytest.raises(ValueError, match="too short for LP order 25"):
            plp_static(np.ones((3, 400)), 16000, cfg)

    def test_ragged_frames_rejected(self):
        with pytest.raises(ValueError, match="rectangular"):
            plp_static(np.array([np.zeros(3), np.zeros(4)], dtype=object), 16000)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            FrontendConfig(num_ceps=14, lp_order=12)
        with pytest.raises(ValueError):
            FrontendConfig(warp_window_frames=300)
        with pytest.raises(ValueError, match="delta window must be at least 1"):
            FrontendConfig(delta_window=0)


class TestDeltas:
    def test_constant_sequence_zero(self):
        feats = append_deltas(np.ones((10, 3)), window=2)
        assert feats.shape == (10, 9)
        np.testing.assert_array_equal(feats[:, 3:], 0.0)

    def test_linear_ramp_unit_slope(self):
        data = np.arange(12.0)[:, None]
        feats = append_deltas(data, window=2)
        np.testing.assert_allclose(feats[2:-2, 1], 1.0, atol=1e-12)

    def test_matches_direct_regression_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((50, 13))
        window = 2
        feats = append_deltas(data, window)

        def oracle_delta(x):
            k, m = x.shape
            out = np.zeros_like(x)
            denom = 2 * sum(n * n for n in range(1, window + 1))
            for t in range(k):
                acc = np.zeros(m)
                for n in range(1, window + 1):
                    hi = x[min(t + n, k - 1)]
                    lo = x[max(t - n, 0)]
                    acc += n * (hi - lo)
                out[t] = acc / denom
            return out

        d1 = oracle_delta(data)
        d2 = oracle_delta(d1)
        np.testing.assert_allclose(feats[:, 13:26], d1, atol=1e-12)
        np.testing.assert_allclose(feats[:, 26:], d2, atol=1e-12)

    def test_offset_moves_only_statics(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((20, 4))
        a = append_deltas(data, 2)
        b = append_deltas(data + 3.5, 2)
        np.testing.assert_allclose(b[:, :4] - a[:, :4], 3.5, atol=1e-12)
        np.testing.assert_allclose(b[:, 4:], a[:, 4:], atol=1e-12)

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="at least 5 frames"):
            append_deltas(np.ones((4, 2)), window=2)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one(self, window):
        with pytest.raises(ValueError, match="delta window must be at least 1"):
            append_deltas(np.ones((10, 2)), window)


class TestMvn:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(5)
        feats, _ = mvn(rng.normal(3.0, 2.5, (400, 6)))
        np.testing.assert_allclose(feats.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(feats.var(axis=0), 1.0, atol=1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        once, _ = mvn(rng.standard_normal((100, 3)))
        twice, _ = mvn(once)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_constant_column_floored(self):
        data = np.ones((50, 2))
        data[:, 1] = np.arange(50.0)
        feats, stats = mvn(data)
        assert stats.floored_dims == (0,)
        np.testing.assert_array_equal(feats[:, 0], 0.0)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            mvn(np.ones((1, 2)))


class TestFeatureWarp:
    def test_window_max_quantile(self):
        data = np.arange(301.0)[:, None]
        warped = feature_warp(data, 301)
        assert warped[300, 0] == pytest.approx(ndtri(300.5 / 301), abs=1e-12)

    def test_window_median_is_zero(self):
        data = np.arange(301.0)[:, None]
        warped = feature_warp(data, 301)
        assert warped[150, 0] == pytest.approx(0.0, abs=1e-12)

    def test_ks_statistic_small(self):
        rng = np.random.default_rng(11)
        data = rng.gamma(2.0, 1.5, size=(3000, 3))  # decidedly non-normal input
        warped = feature_warp(data, 301)
        for d in range(3):
            assert kstest(warped[:, d], "norm").statistic < 0.05

    def test_monotone_invariance_bitwise(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((500, 3))
        a = feature_warp(data, 101)
        b = feature_warp(np.expm1(data) * 2.0, 101)
        assert np.array_equal(a, b)

    def test_short_utterance_window_shrinks(self):
        data = np.arange(9.0)[:, None]
        warped = feature_warp(data, 301)
        assert warped.shape == (9, 1)
        assert warped[4, 0] == pytest.approx(0.0, abs=1e-12)

    def test_ties_rank_earlier_frame_lower(self):
        data = np.zeros((5, 1))
        warped = feature_warp(data, 5)
        ranks = [1, 2, 3, 4, 5]
        want = [ndtri((r - 0.5) / 5) for r in ranks]
        np.testing.assert_allclose(warped[:, 0], want, atol=1e-12)


    @pytest.mark.parametrize("window", [3, 5, 101, 301])
    @pytest.mark.parametrize("extra", [-40, -1, 0, 1, 2, 57])
    def test_bitwise_equal_gather_oracle(self, window, extra):
        # K < L (window shrinks, odd and even K), K == L, K - 1 == L, K > L
        num_frames = max(window + extra, 1)
        rng = np.random.default_rng(window * 100 + extra + 40)
        data = rng.standard_normal((num_frames, 4))
        data[:, 1] = np.round(data[:, 1], 1)  # heavy ties
        data[:, 2] = np.where(rng.random(num_frames) < 0.5, -0.0, 0.0)
        data[:, 3] = np.round(data[:, 3]) * np.where(rng.random(num_frames) < 0.5, -1.0, 1.0)
        got = feature_warp(data, window)
        assert got.tobytes() == _feature_warp_oracle(data, window).tobytes()
        # mvn after the warp sums over this layout, so it must stay C order
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("num_frames", [1, 2, 3, 4])
    def test_tiny_utterances_match_oracle(self, num_frames):
        data = np.array([[0.5, 0.0], [0.5, -0.0], [-1.0, 0.0], [2.0, -0.0]])[:num_frames]
        for window in (3, 301):
            got = feature_warp(data, window)
            assert np.array_equal(got, _feature_warp_oracle(data, window))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            feature_warp(np.array([[0.0], [np.nan], [1.0]]), 3)


class TestArchive:
    def test_roundtrip_with_tags(self, tmp_path):
        rng = np.random.default_rng(13)
        feats = FeatureMatrix(
            rng.standard_normal((40, 7)),
            frame_hop_sec=0.01,
            tags=rng.integers(0, 16, 40).astype(np.uint8),
        )
        path = tmp_path / "f.aff"
        write_feature_archive(path, feats)
        back = read_feature_archive(path)
        np.testing.assert_array_equal(back.data, feats.data)
        np.testing.assert_array_equal(back.tags, feats.tags)
        assert back.frame_hop_sec == feats.frame_hop_sec

    def test_roundtrip_without_tags(self, tmp_path):
        feats = FeatureMatrix(np.zeros((3, 2)))
        path = tmp_path / "g.aff"
        write_feature_archive(path, feats)
        assert read_feature_archive(path).tags is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.aff"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="AFF1"):
            read_feature_archive(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "trunc.aff"
        feats = FeatureMatrix(np.zeros((10, 4)))
        write_feature_archive(path, feats)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError, match="truncated"):
            read_feature_archive(path)

    def test_short_tag_block(self, tmp_path):
        path = tmp_path / "short_tags.aff"
        feats = FeatureMatrix(np.zeros((10, 4)), tags=np.arange(10, dtype=np.uint8))
        write_feature_archive(path, feats)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="7 bytes after the feature data") as err:
            read_feature_archive(path)
        assert path.name in str(err.value)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trailing.aff"
        write_feature_archive(path, FeatureMatrix(np.zeros((10, 4))))
        path.write_bytes(path.read_bytes() + b"\x01\x02\x03\x04")
        with pytest.raises(FormatError, match="4 bytes after the feature data") as err:
            read_feature_archive(path)
        assert path.name in str(err.value)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            FeatureMatrix(np.array([[np.nan, 1.0]]))


def test_frontend_deterministic():
    rng = np.random.default_rng(14)
    frames = rng.standard_normal((40, 400)) * 0.2
    cfg = FrontendConfig()

    def chain():
        feats = plp_static(frames, 16000, cfg)
        feats = append_deltas(feats, cfg.delta_window)
        feats, _ = mvn(feats)
        return feature_warp(feats, 31)

    assert np.array_equal(chain(), chain())
