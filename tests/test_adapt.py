"""Tests for MAP adaptation of UBM parameters."""

import math

import numpy as np
import pytest

from accent_forge.adapt import AdaptConfig, map_adapt
from accent_forge.classify import hellinger_gmm
from accent_forge.gmm import DiagGmm, accumulate_stats


def _ubm():
    return DiagGmm([0.5, 0.5], [[-3.0], [3.0]], [[1.0], [1.0]], label="ubm")


class TestMapAdapt:
    def test_unoccupied_component_unchanged(self):
        ubm = _ubm()
        # all mass stays well right of the midpoint, so the -3 component's
        # posterior occupancy underflows to ~0
        rng = np.random.default_rng(0)
        frames = rng.uniform(3.3, 3.9, (400, 1))
        adapted = map_adapt(ubm, frames, AdaptConfig())
        assert abs(adapted.means[0, 0] - (-3.0)) < 1e-6
        assert abs(adapted.variances[0, 0] - 1.0) < 1e-5
        assert adapted.means[1, 0] != 3.0

    def test_zero_relevance_means_equal_data_mean(self):
        ubm = _ubm()
        rng = np.random.default_rng(1)
        frames = rng.normal(2.5, 1.0, (300, 1))
        cfg = AdaptConfig(relevance_mean=0.0, adapt_weights=False, adapt_vars=False)
        adapted = map_adapt(ubm, frames, cfg)
        stats = accumulate_stats(ubm, frames)
        expected = stats.sum_x / stats.n[:, None]
        occupied = stats.n > 0
        np.testing.assert_array_equal(adapted.means[occupied], expected[occupied])

    def test_infinite_relevance_reproduces_ubm(self):
        ubm = _ubm()
        rng = np.random.default_rng(2)
        frames = rng.normal(0.0, 2.0, (500, 1))
        cfg = AdaptConfig(
            relevance_weight=math.inf, relevance_mean=math.inf, relevance_var=math.inf
        )
        adapted = map_adapt(ubm, frames, cfg)
        assert np.abs(adapted.weights - ubm.weights).max() < 1e-10
        assert np.abs(adapted.means - ubm.means).max() < 1e-10
        assert np.abs(adapted.variances - ubm.variances).max() < 1e-10

    def test_weights_sum_to_one(self):
        ubm = _ubm()
        rng = np.random.default_rng(3)
        frames = rng.normal(1.0, 2.0, (237, 1))
        adapted = map_adapt(ubm, frames, AdaptConfig())
        assert abs(adapted.weights.sum() - 1.0) < 1e-10

    def test_component_pulled_toward_local_data(self):
        ubm = _ubm()
        rng = np.random.default_rng(4)
        frames = rng.normal(3.4, 0.8, (600, 1))
        adapted = map_adapt(ubm, frames, AdaptConfig())
        assert 3.0 < adapted.means[1, 0] <= 3.5

    def test_convex_combination_property(self):
        rng = np.random.default_rng(5)
        ubm = DiagGmm(
            np.full(3, 1 / 3), rng.normal(0, 2, (3, 2)), rng.uniform(0.5, 2, (3, 2))
        )
        frames = rng.normal(0.5, 1.5, (400, 2))
        stats = accumulate_stats(ubm, frames)
        adapted = map_adapt(ubm, frames, AdaptConfig())
        occupied = stats.n > 0
        e_x = stats.sum_x / np.where(occupied, stats.n, 1.0)[:, None]
        lo = np.minimum(ubm.means, e_x)
        hi = np.maximum(ubm.means, e_x)
        assert np.all(adapted.means[occupied] >= lo[occupied] - 1e-12)
        assert np.all(adapted.means[occupied] <= hi[occupied] + 1e-12)
        # variance endpoints stated on the pre-flooring second moment
        e_x2 = stats.sum_x2 / np.where(occupied, stats.n, 1.0)[:, None]
        second_ubm = ubm.variances + ubm.means ** 2
        lo2 = np.minimum(second_ubm, e_x2)
        hi2 = np.maximum(second_ubm, e_x2)
        second_adapted = adapted.variances + adapted.means ** 2
        # recompute without the -mu_hat^2 shift: alpha combination of second moments
        alpha = stats.n / (stats.n + 16.0)
        combo = alpha[:, None] * e_x2 + (1 - alpha[:, None]) * second_ubm
        assert np.all(combo >= lo2 - 1e-12) and np.all(combo <= hi2 + 1e-12)
        assert second_adapted.shape == combo.shape

    def test_all_disabled_is_identity(self):
        ubm = _ubm()
        rng = np.random.default_rng(6)
        frames = rng.normal(0, 1, (100, 1))
        cfg = AdaptConfig(adapt_weights=False, adapt_means=False, adapt_vars=False)
        adapted = map_adapt(ubm, frames, cfg)
        np.testing.assert_array_equal(adapted.weights, ubm.weights)
        np.testing.assert_array_equal(adapted.means, ubm.means)
        np.testing.assert_array_equal(adapted.variances, ubm.variances)

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            map_adapt(_ubm(), np.zeros((0, 1)), AdaptConfig())

    @staticmethod
    def _ubm2d(rng):
        return DiagGmm(
            np.full(4, 0.25), rng.normal(0, 3, (4, 2)), np.ones((4, 2)), label="ubm"
        )

    def test_identical_data_identical_models(self):
        rng = np.random.default_rng(8)
        ubm = self._ubm2d(rng)
        frames = rng.normal(1.0, 1.0, (150, 2))
        x = map_adapt(ubm, frames, AdaptConfig())
        y = map_adapt(ubm, frames.copy(), AdaptConfig())
        np.testing.assert_array_equal(x.means, y.means)
        np.testing.assert_array_equal(x.weights, y.weights)
        np.testing.assert_array_equal(x.variances, y.variances)

    def test_disjoint_data_far_apart(self):
        rng = np.random.default_rng(9)
        ubm = self._ubm2d(rng)
        cfg = AdaptConfig(relevance_mean=2.0)
        left = map_adapt(ubm, rng.normal(-6.0, 0.6, (500, 2)), cfg)
        right = map_adapt(ubm, rng.normal(6.0, 0.6, (500, 2)), cfg)
        h = hellinger_gmm(left, right, num_samples=20000, seed=0)
        assert h > 0.5

