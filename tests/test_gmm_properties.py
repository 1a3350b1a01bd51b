"""Property tests of the GMM scoring kernel and EM on random diagonal mixtures."""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from accent_forge import gmm  # noqa: E402
from accent_forge.gmm import DiagGmm, em_train, log_component_densities  # noqa: E402


@st.composite
def mixtures(draw, max_components=8, max_dim=4):
    """A random diagonal mixture and a seeded frame sample drawn partly from it."""
    k = draw(st.integers(1, max_components))
    d = draw(st.integers(1, max_dim))
    unit = st.floats(0.05, 1.0)
    weights = np.array(draw(st.lists(unit, min_size=k, max_size=k)))
    means = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=k * d, max_size=k * d)))
    variances = np.array(draw(st.lists(st.floats(0.05, 10.0), min_size=k * d, max_size=k * d)))
    g = DiagGmm(weights / weights.sum(), means.reshape(k, d), variances.reshape(k, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picks = rng.choice(k, size=300, p=g.weights)
    frames = g.means[picks] + rng.standard_normal((300, d)) * np.sqrt(g.variances[picks])
    frames[:20] = rng.normal(0.0, 60.0, (20, d))  # far tails, where densities underflow
    return g, frames


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(mixtures())
def test_posteriors_sum_to_one(case):
    g, frames = case
    _, post = gmm._score_frames(g, frames, posteriors=True)
    assert np.all(post >= 0.0)
    np.testing.assert_allclose(post.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(mixtures())
def test_frame_logsumexp_between_max_and_max_plus_log_k(case):
    g, frames = case
    joint = log_component_densities(g, frames) + np.log(g.weights)
    frame_ll = gmm._logsumexp_rows(joint)
    top = joint.max(axis=1)
    assert np.all(frame_ll >= top)
    assert np.all(frame_ll <= top + math.log(g.num_components) + 1e-12 * (1.0 + np.abs(top)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mixtures(max_components=4, max_dim=3), st.sampled_from([1, 2, 4]))
def test_em_stage_loglik_non_decreasing(case, target):
    _, frames = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, history = em_train(frames, target, em_iters_per_stage=4, final_em_iters=6,
                              return_history=True)
    for stage in history:
        ll = stage["loglik"]
        for before, after in zip(ll, ll[1:]):
            assert after >= before - 1e-8 * abs(before)
