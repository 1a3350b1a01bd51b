"""Tests for the PLP frontend, deltas, MVN, warping, and the archive format."""

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from accent_forge.errors import FormatError
from accent_forge.frontend import (
    FeatureMatrix,
    FrontendConfig,
    append_deltas,
    feature_warp,
    levinson,
    lp_to_cepstrum,
    mvn,
    plp_static,
    read_feature_archive,
    write_feature_archive,
)


class TestLevinson:
    def test_order_one_by_hand(self):
        a, gain = levinson([1.0, 0.5], 1)
        np.testing.assert_allclose(a, [1.0, -0.5])
        assert gain == pytest.approx(0.75)

    def test_matches_normal_equations(self):
        # oracle: solve the Toeplitz normal equations directly
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4096)
        order = 6
        r = np.array([np.dot(x[: len(x) - k], x[k:]) for k in range(order + 1)]) / len(x)
        a, gain = levinson(r, order)
        toeplitz = np.array([[r[abs(i - j)] for j in range(order)] for i in range(order)])
        predictor = np.linalg.solve(toeplitz, r[1: order + 1])
        np.testing.assert_allclose(a[1:], -predictor, atol=1e-10)
        gain_oracle = r[0] - predictor @ r[1: order + 1]
        assert gain == pytest.approx(gain_oracle, rel=1e-10)

    def test_cepstrum_recursion_analytic(self):
        # ln(1 / (1 - 0.5 z^-1)) has c_n = 0.5^n / n
        c = lp_to_cepstrum(np.array([1.0, -0.5]), 1.0, 6)
        want = [0.0] + [0.5 ** n / n for n in range(1, 6)]
        np.testing.assert_allclose(c, want, atol=1e-12)


class TestPlpStatic:
    def test_white_noise_shape(self):
        rng = np.random.default_rng(0)
        frames = 0.1 * rng.standard_normal((400, 400))
        feats = plp_static(frames, 16000)
        assert feats.data.shape == (400, 13)
        assert np.all(np.isfinite(feats.data))
        # white noise is flat before the perceptual weighting; the
        # equal-loudness tilt lands in the first few cepstra, everything
        # beyond them averages out to ~0
        mean = feats.data.mean(axis=0)
        assert np.abs(mean[0]) > 0.05
        assert np.abs(mean[6:]).max() < 0.05

    def test_scaling_shifts_only_c0(self):
        rng = np.random.default_rng(1)
        frames = 0.1 * rng.standard_normal((10, 400))
        base = plp_static(frames, 16000).data
        scaled = plp_static(2.0 * frames, 16000).data
        diff = scaled - base
        np.testing.assert_allclose(diff[:, 0], 0.33 * np.log(4.0), atol=1e-8)
        assert np.abs(diff[:, 1:]).max() < 1e-8

    def test_ragged_frames_rejected(self):
        with pytest.raises(ValueError, match="rectangular"):
            plp_static(np.array([np.zeros(3), np.zeros(4)], dtype=object), 16000)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            FrontendConfig(num_ceps=14, lp_order=12)
        with pytest.raises(ValueError):
            FrontendConfig(warp_window_frames=300)


class TestDeltas:
    def test_constant_sequence_zero(self):
        feats = append_deltas(np.ones((10, 3)), window=2)
        assert feats.data.shape == (10, 9)
        np.testing.assert_array_equal(feats.data[:, 3:], 0.0)

    def test_linear_ramp_unit_slope(self):
        data = np.arange(12.0)[:, None]
        feats = append_deltas(data, window=2)
        np.testing.assert_allclose(feats.data[2:-2, 1], 1.0, atol=1e-12)

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
        np.testing.assert_allclose(feats.data[:, 13:26], d1, atol=1e-12)
        np.testing.assert_allclose(feats.data[:, 26:], d2, atol=1e-12)

    def test_offset_moves_only_statics(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((20, 4))
        a = append_deltas(data, 2).data
        b = append_deltas(data + 3.5, 2).data
        np.testing.assert_allclose(b[:, :4] - a[:, :4], 3.5, atol=1e-12)
        np.testing.assert_allclose(b[:, 4:], a[:, 4:], atol=1e-12)

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="at least 5 frames"):
            append_deltas(np.ones((4, 2)), window=2)


class TestMvn:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(5)
        feats, _ = mvn(rng.normal(3.0, 2.5, (400, 6)))
        np.testing.assert_allclose(feats.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(feats.data.var(axis=0), 1.0, atol=1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        once, _ = mvn(rng.standard_normal((100, 3)))
        twice, _ = mvn(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-10)

    def test_constant_column_floored(self):
        data = np.ones((50, 2))
        data[:, 1] = np.arange(50.0)
        feats, stats = mvn(data)
        assert stats.floored_dims == (0,)
        np.testing.assert_array_equal(feats.data[:, 0], 0.0)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            mvn(np.ones((1, 2)))


class TestFeatureWarp:
    def test_window_max_quantile(self):
        data = np.arange(301.0)[:, None]
        warped = feature_warp(FeatureMatrix(data), 301)
        assert warped.data[300, 0] == pytest.approx(ndtri(300.5 / 301), abs=1e-12)

    def test_window_median_is_zero(self):
        data = np.arange(301.0)[:, None]
        warped = feature_warp(FeatureMatrix(data), 301)
        assert warped.data[150, 0] == pytest.approx(0.0, abs=1e-12)

    def test_ks_statistic_small(self):
        rng = np.random.default_rng(11)
        data = rng.gamma(2.0, 1.5, size=(3000, 3))  # decidedly non-normal input
        warped = feature_warp(FeatureMatrix(data), 301)
        for d in range(3):
            assert kstest(warped.data[:, d], "norm").statistic < 0.05

    def test_monotone_invariance_bitwise(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((500, 3))
        a = feature_warp(FeatureMatrix(data), 101)
        b = feature_warp(FeatureMatrix(np.expm1(data) * 2.0), 101)
        assert np.array_equal(a.data, b.data)

    def test_short_utterance_window_shrinks(self):
        data = np.arange(9.0)[:, None]
        warped = feature_warp(FeatureMatrix(data), 301)
        assert warped.data.shape == (9, 1)
        assert warped.data[4, 0] == pytest.approx(0.0, abs=1e-12)

    def test_ties_rank_earlier_frame_lower(self):
        data = np.zeros((5, 1))
        warped = feature_warp(FeatureMatrix(data), 5)
        ranks = [1, 2, 3, 4, 5]
        want = [ndtri((r - 0.5) / 5) for r in ranks]
        np.testing.assert_allclose(warped.data[:, 0], want, atol=1e-12)


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
        return feature_warp(feats, 31).data

    assert np.array_equal(chain(), chain())
