"""Bayesian (MAP) adaptation of a universal background model.

Per-component adaptation coefficients alpha = n / (n + relevance)
interpolate between the background parameters and the data statistics;
adapted weights are rescaled so they sum to one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gmm import DiagGmm, accumulate_stats

DEFAULT_RELEVANCE = 16.0
_VARIANCE_FLOOR = 1e-6


@dataclass
class AdaptConfig:
    relevance_weight: float = DEFAULT_RELEVANCE
    relevance_mean: float = DEFAULT_RELEVANCE
    relevance_var: float = DEFAULT_RELEVANCE
    adapt_weights: bool = True
    adapt_means: bool = True
    adapt_vars: bool = True

    def __post_init__(self):
        for name in ("relevance_weight", "relevance_mean", "relevance_var"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative" % name)


def _alpha(n, relevance):
    denom = n + relevance
    return np.divide(n, denom, out=np.zeros_like(n), where=denom > 0)


def map_adapt(ubm, data, cfg=None):
    """MAP-adapt one model from the UBM on the given frames.

    Disabled parameter families copy the UBM values; components that
    received no posterior mass are unchanged. Adapted variances are floored
    (a warning reports how many needed it).
    """
    if cfg is None:
        cfg = AdaptConfig()
    if data.shape[0] < 1:
        raise ValueError("adaptation needs at least one frame")
    stats = accumulate_stats(ubm, data)
    n = stats.n
    total = float(stats.total_frames)
    occupied = n > 0
    safe_n = np.where(occupied, n, 1.0)
    e_x = stats.sum_x / safe_n[:, None]
    e_x2 = stats.sum_x2 / safe_n[:, None]
    e_x[~occupied] = ubm.means[~occupied]
    e_x2[~occupied] = ubm.variances[~occupied] + ubm.means[~occupied] ** 2

    if cfg.adapt_weights:
        a_w = _alpha(n, cfg.relevance_weight)
        weights = a_w * n / total + (1.0 - a_w) * ubm.weights
        weights = weights / weights.sum()  # scale factor keeps the sum at 1
    else:
        weights = ubm.weights.copy()

    if cfg.adapt_means:
        a_m = _alpha(n, cfg.relevance_mean)[:, None]
        means = a_m * e_x + (1.0 - a_m) * ubm.means
    else:
        means = ubm.means.copy()

    if cfg.adapt_vars:
        a_v = _alpha(n, cfg.relevance_var)[:, None]
        variances = a_v * e_x2 + (1.0 - a_v) * (ubm.variances + ubm.means ** 2) - means ** 2
        low = variances < _VARIANCE_FLOOR
        if np.any(low):
            warnings.warn(
                "%d adapted variances floored at %g" % (int(low.sum()), _VARIANCE_FLOOR),
                stacklevel=2,
            )
            variances = np.maximum(variances, _VARIANCE_FLOOR)
    else:
        variances = ubm.variances.copy()

    return DiagGmm(weights, means, variances, label=ubm.label)

