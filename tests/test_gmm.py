"""Tests for diagonal GMM scoring, statistics, and EM training."""

import decimal
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import accent_forge
from accent_forge import gmm
from accent_forge.errors import FormatError
from accent_forge.gmm import (
    DiagGmm,
    accumulate_stats,
    em_train,
    frame_logpdf,
    log_component_densities,
    loglik,
    read_model,
    write_model,
)


# Scalar and scipy-based oracles for the scoring kernel.

def log_densities(g, data):
    """(N x K) log N(x; mean_k, var_k) of every frame under every component of g:
    the kernel's matmul with rows of g's densities alone, [-1/(2 var), mean/var, c],
    c = -(D log 2pi + sum log var + sum mean^2/var)/2, without log weights or shift."""
    inv_var = 1.0 / g.variances
    scaled_means = g.means * inv_var
    const = -0.5 * (g.dim * math.log(2.0 * math.pi) + np.sum(np.log(g.variances), axis=1)
                    + np.sum(g.means * scaled_means, axis=1))
    return log_component_densities(np.hstack([-0.5 * inv_var, scaled_means, const[:, None]]),
                                   data)


def component_density(g, i, x):
    """Density of one component at one point (computed in the log domain)."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if not 0 <= i < g.num_components:
        raise ValueError("component index %d out of range" % i)
    return float(np.exp(log_densities(g, x)[0, i]))


def _joint(g, data):
    """(K x N) log of weight times density, component-major as the kernel lays it out."""
    with np.errstate(divide="ignore"):
        return log_densities(g, data).T + np.log(g.weights)[:, None]


def responsibilities(g, data):
    """(K x N) posteriors through scipy's logsumexp over the component axis."""
    joint = _joint(g, data)
    joint -= logsumexp(joint, axis=0, keepdims=True)
    post = np.exp(joint)
    post /= post.sum(axis=0, keepdims=True)
    return post


def score_one(g, frames, posteriors=False):
    """The block kernel on a one-model stack: (N,) log-likelihoods and the (K x N) posteriors."""
    frame_ll, post = gmm._score_block(gmm.GmmStack([g]), frames, posteriors)
    return frame_ll[0], post


def posterior_alignment(g, x):
    """Pr(i | x) for a single frame through the kernel; entries sum to 1."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return score_one(g, x, posteriors=True)[1][:, 0]


def unchunked_frame_logpdf(g, data):
    """Frame log-likelihoods from one (K x N) block of all frames, out of place.

    The kernel's shifted arithmetic in the same order, without its chunks and
    its in-place temporaries: one product of [-1/(2 var), mean/var,
    c + log w - M] component rows with [x^2, x, 1] frame columns, then
    log(sum exp) + M, M = max_k(log w_k - (D log 2pi + sum log var_k)/2). Its
    frames all lie near the model, so none needs the kernel's max path.
    """
    inv_var = 1.0 / g.variances
    scaled_means = g.means * inv_var
    norm = g.dim * math.log(2.0 * math.pi) + np.sum(np.log(g.variances), axis=1)
    with np.errstate(divide="ignore"):
        log_weights = np.log(g.weights)
    shift = np.max(log_weights - 0.5 * norm)
    const = -0.5 * (norm + np.sum(g.means * scaled_means, axis=1)) + log_weights - shift
    coefs = np.hstack([-0.5 * inv_var, scaled_means, const[:, None]])
    cols = np.hstack([data * data, data, np.ones((data.shape[0], 1))])
    total = np.exp(coefs @ cols.T).sum(axis=0)
    assert np.all(total >= gmm._TOTAL_FLOOR)
    return np.log(total) + shift


def scipy_loglik(g, data):
    return float(np.sum(logsumexp(_joint(g, data), axis=0)))


def scipy_stats(g, data, chunk=8192):
    """Kahan-compensated sufficient statistics from the scipy-based posteriors."""
    totals = [np.zeros(g.num_components), np.zeros(g.means.shape), np.zeros(g.means.shape)]
    comps = [np.zeros_like(t) for t in totals]
    for start in range(0, data.shape[0], chunk):
        block = data[start:start + chunk]
        post = responsibilities(g, block)
        terms = (post.sum(axis=1), post @ block, post @ (block * block))
        for total, comp, term in zip(totals, comps, terms):
            y = term - comp
            t = total + y
            comp[...] = (t - total) - y
            total[...] = t
    return gmm.GmmStats(*totals, total_frames=data.shape[0], loglik=np.nan)


def two_pass_em(data, target_components, em_iters_per_stage=5, final_em_iters=10,
                floor_scale=1e-6):
    """EM by binary splitting through scipy, with a separate log-likelihood pass."""
    floor = floor_scale * np.maximum(data.var(axis=0), 1e-12)
    weights = np.ones(1)
    means = data.mean(axis=0)[None, :]
    variances = np.maximum(data.var(axis=0), floor)[None, :]
    history = [{"components": 1, "loglik": []}]
    current = 1
    while current < target_components:
        offset = 0.1 * np.sqrt(variances)
        means = np.vstack([means + offset, means - offset])
        variances = np.vstack([variances, variances])
        weights = np.concatenate([weights, weights]) / 2.0
        current *= 2
        stage_ll = []
        iters = final_em_iters if current == target_components else em_iters_per_stage
        for _ in range(iters):
            g = DiagGmm(weights, means, variances)
            stats = scipy_stats(g, data)
            stage_ll.append(scipy_loglik(g, data))
            weights, means, variances = gmm._maximize(stats, floor, means, variances)
        stage_ll.append(scipy_loglik(DiagGmm(weights, means, variances), data))
        history.append({"components": current, "loglik": stage_ll})
    return DiagGmm(weights, means, variances), history


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_ulps_close(actual, desired):
    """Agreement to within a few ulps: what scoring the same frames in blocks of
    another shape keeps, since BLAS may take another product path for it."""
    np.testing.assert_allclose(actual, desired, rtol=1e-13, atol=1e-12)


# Feature dims of the cross-shape tests. From 32 dims on, OpenBLAS takes
# shape-dependent product paths, and blocks of other shapes differ in last bits.
CROSS_SHAPE_DIMS = (5, 39)


def _random_gmm(rng, components, dim, label=""):
    weights = rng.uniform(0.5, 2.0, components)
    weights /= weights.sum()
    return DiagGmm(
        weights,
        rng.normal(0.0, 3.0, (components, dim)),
        rng.uniform(0.4, 2.5, (components, dim)),
        label=label,
    )


class TestComponentDensity:
    def test_standard_normal_peak(self):
        g = DiagGmm([1.0], [[0.0]], [[1.0]])
        assert component_density(g, 0, [0.0]) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_two_dim_product(self):
        g = DiagGmm([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        assert component_density(g, 0, [0.0, 0.0]) == pytest.approx(1 / (2 * math.pi))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        g = _random_gmm(rng, 3, 5)
        x = rng.standard_normal(5)
        logs = log_densities(g, x[None, :])[0]
        for i in range(3):
            quad = np.sum((x - g.means[i]) ** 2 / g.variances[i])
            norm = (2 * math.pi) ** (5 / 2) * math.sqrt(np.prod(g.variances[i]))
            direct = math.log(1.0 / norm) - 0.5 * quad
            assert logs[i] == pytest.approx(direct, abs=1e-12)

    def test_dim_mismatch(self):
        g = DiagGmm([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="dim"):
            component_density(g, 0, [0.0])


class TestLoglik:
    def test_single_component_at_mean(self):
        g = DiagGmm([1.0], [[1.5]], [[2.0]])
        want = math.log(1 / math.sqrt(2 * math.pi * 2.0))
        assert loglik(g, np.array([[1.5]])) == pytest.approx(want)

    def test_duplicated_frames_double(self):
        rng = np.random.default_rng(1)
        g = _random_gmm(rng, 4, 3)
        frames = rng.standard_normal((50, 3))
        single = loglik(g, frames)
        double = loglik(g, np.vstack([frames, frames]))
        assert double == pytest.approx(2 * single, rel=1e-12)

    def test_matches_bruteforce_mixture_sum(self):
        rng = np.random.default_rng(2)
        g = _random_gmm(rng, 3, 4)
        frames = rng.standard_normal((100, 4))
        total = 0.0
        for x in frames:
            mix = 0.0
            for i in range(3):
                quad = np.sum((x - g.means[i]) ** 2 / g.variances[i])
                norm = (2 * math.pi) ** 2 * math.sqrt(np.prod(g.variances[i]))
                mix += g.weights[i] * math.exp(-0.5 * quad) / norm
            total += math.log(mix)
        assert loglik(g, frames) == pytest.approx(total, abs=1e-9)

    def test_frame_and_component_permutation_invariance(self):
        rng = np.random.default_rng(3)
        g = _random_gmm(rng, 4, 2)
        frames = rng.standard_normal((30, 2))
        base = loglik(g, frames)
        assert loglik(g, frames[rng.permutation(30)]) == pytest.approx(base, rel=1e-12)
        perm = rng.permutation(4)
        shuffled = DiagGmm(g.weights[perm], g.means[perm], g.variances[perm])
        assert loglik(shuffled, frames) == pytest.approx(base, rel=1e-12)

    def test_empty_rejected(self):
        g = DiagGmm([1.0], [[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="empty"):
            loglik(g, np.zeros((0, 1)))


def _decimal_posteriors(weights, means, variances, x, prec=200):
    """Arbitrary-precision oracle for one-dimensional mixture posteriors."""
    decimal.getcontext().prec = prec
    dec = decimal.Decimal
    joint = []
    for w, mu, var in zip(weights, means, variances):
        quad = (dec(x) - dec(mu)) ** 2 / (2 * dec(var))
        norm = (2 * dec(math.pi) * dec(var)).sqrt()
        joint.append(dec(w) * (-quad).exp() / norm)
    total = sum(joint)
    return [float(j / total) for j in joint]


class TestPosterior:
    def test_single_component(self):
        g = DiagGmm([1.0], [[2.0]], [[1.0]])
        np.testing.assert_array_equal(posterior_alignment(g, [0.3]), [1.0])

    def test_symmetric_midpoint(self):
        g = DiagGmm([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
        np.testing.assert_allclose(posterior_alignment(g, [0.0]), [0.5, 0.5], atol=1e-12)

    def test_far_tail_matches_highprecision_oracle(self):
        weights = [0.3, 0.7]
        means = [0.0, 5.0]
        variances = [1.0, 2.0]
        g = DiagGmm(weights, [[m] for m in means], [[v] for v in variances])
        x = 60.0  # deep in every tail; naive densities underflow
        post = posterior_alignment(g, [x])
        assert post.sum() == pytest.approx(1.0, abs=1e-12)
        oracle = _decimal_posteriors(weights, means, variances, x)
        np.testing.assert_allclose(post, oracle, atol=1e-12)

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(4)
        g = _random_gmm(rng, 6, 3)
        for _ in range(50):
            x = rng.normal(0, 20, 3)
            assert posterior_alignment(g, x).sum() == pytest.approx(1.0, abs=1e-12)


def _fuzz_components(rng):
    """A random component-major (K x N) array with the cases scipy's logsumexp treats
    specially: ties at a frame's maximum, -inf components and frames, +inf and NaN."""
    n = int(rng.integers(1, 40))
    k = int(rng.choice([1, 2, 3, 4, 7, 8, 9, 16, 64, 256]))
    x = rng.normal(0.0, rng.choice([1e-3, 1.0, 30.0, 1e3]), (k, n)) - rng.uniform(0.0, 500.0)
    if rng.random() < 0.3:
        x = np.round(x * 2.0) / 2.0  # ties at the frame maximum
    if rng.random() < 0.3:
        x[rng.integers(0, k)] = -np.inf
    if rng.random() < 0.2:
        x[:, rng.integers(0, n)] = -np.inf
    if rng.random() < 0.1:
        x[rng.integers(0, k), rng.integers(0, n)] = np.inf
    if rng.random() < 0.1:
        x[rng.integers(0, k), rng.integers(0, n)] = -np.inf
    if rng.random() < 0.1:
        x[rng.integers(0, k), rng.integers(0, n)] = np.nan
    return x


def peak(x):
    """Each model's largest finite value of a (K x N) or (S x K x N) array, 0 if none:
    a shift that bounds every finite log joint density the model holds."""
    top = np.where(np.isfinite(x), x, -np.inf).max(axis=(-2, -1))
    return np.where(np.isfinite(top), top, 0.0)


def kernel_logsumexp(x, shift, posteriors=False):
    """_score_block's log-sum-exp of a (K x N) or (S x K x N) array x of log joint
    densities, over its component axis, the second to last, with `shift` (one
    value, or one per model) as each model's bound M >= its largest finite x.

    The kernel runs with x - M in place of its product of rows and frames; the
    frame block holds each frame's index, so the max path's second product gets
    the columns of the frames it asks for. With posteriors, the (S*K x N)
    posteriors come too.
    """
    s, k, n = (1,) * (3 - x.ndim) + x.shape
    unit = DiagGmm(np.full(k, 1.0 / k), np.zeros((k, 1)), np.ones((k, 1)))
    stack = gmm.GmmStack([unit] * s)
    stack.shift = np.broadcast_to(np.asarray(shift, dtype=np.float64), (s,)).copy()
    shifted = (x.reshape(s, k, n) - stack.shift[:, None, None]).reshape(s * k, n)

    def injected(rows, frames):
        return shifted[:, frames[:, 0].astype(np.intp)].T

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gmm, "log_component_densities", injected)
        frame_ll, post = gmm._score_block(stack, np.arange(n, dtype=np.float64)[:, None],
                                          posteriors)
    frame_ll = frame_ll.reshape(x.shape[:-2] + (n,))
    return (frame_ll, post) if posteriors else frame_ll


def assert_logsumexp_contract(ours, x, shift):
    """ours against scipy's logsumexp of x over the second to last axis.

    A finite result lies within 2 eps (|shift| + |max| + log K + 1), on the
    shifted path and on the max path alike: both reduce x - shift and add the
    shift back. Any other result equals scipy's exactly.
    """
    shift = np.broadcast_to(np.asarray(shift, dtype=np.float64)[..., None], ours.shape)
    want = logsumexp(x, axis=-2)
    finite = np.isfinite(want)
    np.testing.assert_array_equal(ours[~finite], want[~finite])
    top = np.abs(x.max(axis=-2)[finite])
    eps2 = 2.0 * np.finfo(np.float64).eps
    bound = eps2 * np.abs(shift[finite]) + eps2 * (top + math.log(x.shape[-2]) + 1.0)
    assert np.all(np.abs(ours[finite] - want[finite]) <= bound)


class TestLogsumexpRows:
    """The kernel's log-sum-exp over the component axis, the second to last."""

    def test_within_bound_of_scipy_on_fuzz(self):
        rng = np.random.default_rng(19)
        slack = np.random.default_rng(191)  # the fuzz arrays come from rng alone
        paths = [0, 0]
        for _ in range(600):
            x = _fuzz_components(rng)
            shift = peak(x) + slack.choice([0.0, slack.uniform(0.0, 100.0)])
            ours = kernel_logsumexp(x, shift)
            assert_logsumexp_contract(ours, x, shift)
            with np.errstate(all="ignore"):
                total = np.exp(x - shift).sum(axis=0)
            paths[0] += int(np.sum(total >= gmm._TOTAL_FLOOR))
            paths[1] += int(np.sum(total < gmm._TOTAL_FLOOR))
            # an (S x K x N) stack reduces each model's K components on its own
            stack = np.stack([x, x[::-1], np.roll(x, 1, axis=1)])
            shifts = shift + np.array([0.0, 1.5, slack.uniform(0.0, 700.0)])
            stacked = kernel_logsumexp(stack, shifts)
            assert_logsumexp_contract(stacked, stack, shifts)
            assert _same_bits(stacked[0], ours)
        assert min(paths) > 1000  # both paths ran, on thousands of frames each
        # each component count, with tied, +-inf and NaN component values
        for k in (1, 4, 7, 8, 9, 64, 256):
            x = rng.normal(-50.0, 20.0, (k, 300))
            x[:, :50] = np.round(x[:, :50] / 8.0) * 8.0  # ties at the frame maximum
            x[rng.integers(0, k), 50:100] = np.inf
            x[:, 100:110] = -np.inf
            x[rng.integers(0, k), 110:150] = -np.inf
            x[rng.integers(0, k), 150:160] = np.nan
            x[:, 160:170] = x[:1, 160:170]  # every component tied
            assert_logsumexp_contract(kernel_logsumexp(x, peak(x)), x, peak(x))

    @pytest.mark.parametrize("row, want", [
        ([-np.inf, -np.inf, -np.inf], -np.inf),
        ([0.0, np.inf, 1.0], np.inf),
        ([2.0, 2.0, 2.0], 2.0 + math.log(3.0)),
        ([-1.5], -1.5),
        ([1.7e308, 1.7e308, -np.inf], 1.7e308),
        ([np.nan, 0.0, np.inf], np.nan),
    ])
    def test_special_rows(self, row, want):
        x = np.array([row]).T  # one frame's components
        assert_logsumexp_contract(kernel_logsumexp(x, peak(x)), x, peak(x))
        assert kernel_logsumexp(x, peak(x))[0] == pytest.approx(want, nan_ok=True)

    def test_nan_row_beside_tied_row(self):
        # a NaN frame has no maximum; the tied frame beside it still sums two terms
        x = np.array([[np.nan, 0.0], [1.0, 1.0]]).T
        out = kernel_logsumexp(x, peak(x))
        assert_logsumexp_contract(out, x, peak(x))
        assert out[1] == pytest.approx(1.0 + math.log(2.0))

    def test_kernel_posteriors_match_scipy_reference(self):
        rng = np.random.default_rng(20)
        for components in (1, 4, 16, 64):
            g = _random_gmm(rng, components, 3)
            frames = rng.normal(0.0, 5.0, (500, 3))
            frame_ll, post = score_one(g, frames, posteriors=True)
            np.testing.assert_allclose(post, responsibilities(g, frames), rtol=1e-12)
            np.testing.assert_allclose(frame_ll, logsumexp(_joint(g, frames), axis=0),
                                       rtol=1e-12)
            assert _same_bits(frame_logpdf(g, frames), frame_ll)
            assert score_one(g, frames)[1] is None


def _count_products(monkeypatch):
    """Patch log_component_densities to record each call's row count; returns the list."""
    calls = []

    def counting(rows, data):
        calls.append(data.shape[0])
        return log_component_densities(rows, data)

    monkeypatch.setattr(gmm, "log_component_densities", counting)
    return calls


class TestMaxPath:
    """Frames too far below a model's bound M_s for the shifted sum, which the kernel
    reduces again from their own maximum, against the scipy oracles."""

    def test_frames_60_sigma_out(self, monkeypatch):
        rng = np.random.default_rng(21)
        g = _random_gmm(rng, 4, 3)
        near = rng.normal(0.0, 2.0, (5, 3))
        sign = rng.choice([-1.0, 1.0], (6, 3))
        far = g.means[np.arange(6) % 4] + 60.0 * sign * np.sqrt(g.variances[np.arange(6) % 4])
        frames = np.vstack([near, far])
        calls = _count_products(monkeypatch)
        frame_ll, post = score_one(g, frames, posteriors=True)
        assert calls == [11, 6]  # the far frames alone are scored again
        np.testing.assert_allclose(frame_ll, logsumexp(_joint(g, frames), axis=0), rtol=1e-12)
        np.testing.assert_allclose(post, responsibilities(g, frames), rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(post.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_non_finite_frames_beside_finite_ones(self):
        rng = np.random.default_rng(22)
        x = rng.normal(-30.0, 5.0, (4, 8))
        x[:, 1] = -np.inf
        x[2, 3] = np.nan
        x[0, 5] = np.inf
        x[:, 6] -= 2000.0  # finite, but below the shifted path's floor
        frame_ll, post = kernel_logsumexp(x, peak(x), posteriors=True)
        want = logsumexp(x, axis=0)
        assert _same_bits(frame_ll[[1, 3, 5]], want[[1, 3, 5]])
        assert frame_ll[1] == -np.inf and np.isnan(frame_ll[3]) and frame_ll[5] == np.inf
        assert_logsumexp_contract(frame_ll, x, peak(x))
        finite = [0, 2, 4, 6, 7]
        reference = np.exp(x[:, finite] - want[finite])
        np.testing.assert_allclose(post[:, finite], reference / reference.sum(axis=0),
                                   rtol=1e-12)

    def test_spiky_model_beside_broad_ones_equals_it_alone(self, monkeypatch):
        rng = np.random.default_rng(23)
        dim = 5
        broad = [_random_gmm(rng, 4, dim) for _ in range(3)]
        spiky = DiagGmm(np.full(4, 0.25), rng.normal(0.0, 1.0, (4, dim)),
                        rng.uniform(1e-7, 1e-6, (4, dim)))
        models = broad[:2] + [spiky] + broad[2:]
        near = spiky.means[rng.integers(0, 4, 40)] + 1e-3 * rng.standard_normal((40, dim))
        frames = np.vstack([near, rng.normal(0.0, 3.0, (60, dim))])[rng.permutation(100)]
        stack = gmm.GmmStack(models)
        shifted = log_component_densities(stack.rows, frames).T.reshape(4, 4, -1)
        total = np.exp(shifted).sum(axis=1)
        assert np.sum(total[2] >= gmm._TOTAL_FLOOR) == 40  # near frames: shifted path
        assert np.all(total[[0, 1, 3]] >= gmm._TOTAL_FLOOR)
        calls = _count_products(monkeypatch)
        scores = gmm._score_models(stack, frames)
        assert calls == [100, 60]
        for i, model in enumerate(models):
            assert_ulps_close(scores[i], frame_logpdf(model, frames))
            # at variances near 1e-7 the expanded product's terms reach 1e7, so the
            # kernel's product and the oracle's, whose constants differ, part by ~1e-9
            np.testing.assert_allclose(scores[i], logsumexp(_joint(model, frames), axis=0),
                                       rtol=1e-12, atol=1e-8)

    def test_zero_weight_component_has_zero_posteriors(self):
        rng = np.random.default_rng(24)
        base = _random_gmm(rng, 4, 3)
        g = DiagGmm([0.0, 0.5, 0.25, 0.25], base.means, base.variances)
        frames = np.vstack([rng.normal(0.0, 2.0, (20, 3)),
                            base.means[0] + 60.0 * np.sqrt(base.variances[0]),
                            base.means[1] - 60.0 * np.sqrt(base.variances[1])])
        for models, row in (([g], 0), ([base, g, base], 4)):
            frame_ll, post = gmm._score_block(gmm.GmmStack(models), frames, posteriors=True)
            assert np.all(post[row] == 0.0)
            np.testing.assert_allclose(post[row:row + 4], responsibilities(g, frames),
                                       rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(frame_ll[row // 4], logsumexp(_joint(g, frames), axis=0),
                                       rtol=1e-12)


class TestStats:
    def test_single_component_totals(self):
        g = DiagGmm([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((40, 2))
        stats = accumulate_stats(g, frames)
        assert stats.n[0] == pytest.approx(40.0, abs=1e-10)
        np.testing.assert_allclose(stats.sum_x[0], frames.sum(axis=0), atol=1e-10)
        np.testing.assert_allclose(stats.sum_x2[0], (frames ** 2).sum(axis=0), atol=1e-10)

    def test_additivity(self):
        rng = np.random.default_rng(6)
        g = _random_gmm(rng, 3, 2)
        a = rng.standard_normal((70, 2))
        b = rng.standard_normal((30, 2))
        joint = accumulate_stats(g, np.vstack([a, b]))
        sa = accumulate_stats(g, a)
        sb = accumulate_stats(g, b)
        np.testing.assert_allclose(joint.n, sa.n + sb.n, atol=1e-9)
        np.testing.assert_allclose(joint.sum_x, sa.sum_x + sb.sum_x, atol=1e-9)
        np.testing.assert_allclose(joint.sum_x2, sa.sum_x2 + sb.sum_x2, atol=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        g = _random_gmm(rng, 3, 2)
        frames = rng.standard_normal((25, 2))
        stats = accumulate_stats(g, frames)
        n = np.zeros(3)
        sum_x = np.zeros((3, 2))
        sum_x2 = np.zeros((3, 2))
        for x in frames:
            post = posterior_alignment(g, x)
            for i in range(3):
                n[i] += post[i]
                sum_x[i] += post[i] * x
                sum_x2[i] += post[i] * x * x
        np.testing.assert_allclose(stats.n, n, atol=1e-10)
        np.testing.assert_allclose(stats.sum_x, sum_x, atol=1e-10)
        np.testing.assert_allclose(stats.sum_x2, sum_x2, atol=1e-10)

    def test_chunk_size_invariance(self):
        rng = np.random.default_rng(17)
        g = _random_gmm(rng, 5, 3)
        frames = rng.normal(0.0, 3.0, (1000, 3))
        small = accumulate_stats(g, frames, chunk=16)
        large = accumulate_stats(g, frames, chunk=8192)
        for name in ("n", "sum_x", "sum_x2"):
            np.testing.assert_allclose(getattr(small, name), getattr(large, name),
                                       rtol=1e-10, atol=1e-10)
        assert small.loglik == pytest.approx(large.loglik, rel=1e-10)

    def test_loglik_is_the_pass_log_likelihood(self):
        rng = np.random.default_rng(18)
        g = _random_gmm(rng, 4, 2)
        frames = rng.standard_normal((300, 2))
        assert accumulate_stats(g, frames).loglik == loglik(g, frames)
        assert accumulate_stats(g, frames, chunk=7).loglik == pytest.approx(
            loglik(g, frames), rel=1e-12)

    def test_total_frames_invariant(self):
        rng = np.random.default_rng(8)
        g = _random_gmm(rng, 4, 2)
        frames = rng.standard_normal((120, 2))
        stats = accumulate_stats(g, frames, chunk=16)
        assert stats.n.sum() == pytest.approx(120.0, abs=1e-8)


class TestEmTrain:
    def test_single_gaussian_closed_form(self):
        rng = np.random.default_rng(9)
        frames = rng.normal(2.0, 1.5, (500, 3))
        model = em_train(frames, 1)
        np.testing.assert_allclose(model.means[0], frames.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(model.variances[0], frames.var(axis=0), atol=1e-10)
        assert model.weights[0] == 1.0

    def test_recovers_known_mixture(self):
        rng = np.random.default_rng(10)
        frames = np.concatenate(
            [rng.normal(-3.0, 1.0, 3000), rng.normal(3.0, 1.0, 3000)]
        )[:, None]
        model = em_train(frames, 2, em_iters_per_stage=100, final_em_iters=100)
        means = np.sort(model.means[:, 0])
        np.testing.assert_allclose(means, [-3.0, 3.0], atol=0.1)
        np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=0.05)

    def test_loglik_monotone_per_stage(self):
        rng = np.random.default_rng(11)
        frames = rng.standard_normal((2000, 3)) + rng.choice(
            [-2.0, 0.0, 2.0], size=(2000, 1)
        )
        _, history = em_train(frames, 8, return_history=True)
        for stage in history:
            ll = stage["loglik"]
            for before, after in zip(ll, ll[1:]):
                assert after >= before - 1e-8 * abs(before)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        frames = rng.standard_normal((600, 2))
        a = em_train(frames, 4)
        b = em_train(frames, 4)
        for name in ("weights", "means", "variances"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("frames_n", [700, 9000])
    def test_matches_two_pass_reference(self, frames_n):
        rng = np.random.default_rng(15)
        frames = rng.standard_normal((frames_n, 3)) + rng.choice([-3.0, 0.0, 3.0], (frames_n, 1))
        model, history = em_train(frames, 8, em_iters_per_stage=3, final_em_iters=4,
                                  return_history=True)
        ref, ref_history = two_pass_em(frames, 8, em_iters_per_stage=3, final_em_iters=4)
        for name in ("weights", "means", "variances"):
            np.testing.assert_allclose(getattr(model, name), getattr(ref, name), rtol=1e-12)
        assert [h["components"] for h in history] == [h["components"] for h in ref_history]
        for stage, ref_stage in zip(history, ref_history):
            np.testing.assert_allclose(stage["loglik"], ref_stage["loglik"], rtol=1e-12)

    def test_one_density_pass_per_iteration(self, monkeypatch):
        calls = []

        def counting(g, data):
            calls.append(data.shape[0])
            return log_component_densities(g, data)

        monkeypatch.setattr(gmm, "log_component_densities", counting)
        rng = np.random.default_rng(16)
        frames = rng.standard_normal((2000, 2)) + rng.choice([-2.0, 2.0], (2000, 1))
        _, history = em_train(frames, 8, return_history=True)
        iters = [len(stage["loglik"]) - 1 for stage in history[1:]]
        assert iters == [5, 5, 10]
        # loglik scores in 256-row chunks, so count the rows scored, not the calls
        assert sum(calls) == 2000 * sum(n + 1 for n in iters)

    def test_no_history_pass_without_history(self, monkeypatch):
        rng = np.random.default_rng(17)
        frames = rng.standard_normal((2000, 3)) + rng.choice([-2.0, 2.0], (2000, 1))
        with_history, history = em_train(frames, 8, return_history=True)
        calls = []

        def counting(g, data):
            calls.append(data.shape[0])
            return log_component_densities(g, data)

        monkeypatch.setattr(gmm, "log_component_densities", counting)
        model = em_train(frames, 8)
        iters = sum(len(stage["loglik"]) - 1 for stage in history[1:])
        assert calls == [2000] * iters
        for name in ("weights", "means", "variances"):
            assert getattr(model, name).tobytes() == getattr(with_history, name).tobytes()

    @pytest.mark.parametrize("return_history", [False, True])
    def test_peak_memory_is_bounded(self, return_history):
        """No pass holds a (frames x components) block: here one is 51 MB."""
        rng = np.random.default_rng(18)
        frames = rng.standard_normal((200_000, 5))
        tracemalloc.start()
        try:
            em_train(frames, 32, em_iters_per_stage=1, final_em_iters=1,
                     return_history=return_history)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * frames.nbytes + 8 * 2**20

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="cannot fit"):
            em_train(np.zeros((3, 2)), 4)

    def test_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of 2"):
            em_train(np.zeros((100, 2)), 3)

    def test_low_data_warning(self):
        rng = np.random.default_rng(13)
        with pytest.warns(UserWarning, match="recommended"):
            em_train(rng.standard_normal((30, 2)), 4)


class TestScoreModels:
    """Stacked scoring of S models against each model scored on its own.

    The two agree to within a few ulps, at 5 dims and at 39; a stack's row
    sums, a repeated call and a one-model stack are exact.
    """

    @pytest.mark.parametrize("k", [1, 2, 4, 32])
    @pytest.mark.parametrize("s", [2, 7])
    def test_bit_equal_to_per_model_scoring(self, k, s):
        rng = np.random.default_rng(100 * k + s)
        for dim in CROSS_SHAPE_DIMS:
            models = [_random_gmm(rng, k, dim) for _ in range(s)]
            stack = gmm.GmmStack(models)
            for n in (1, 2, 255, 256, 257, 513, 2000):
                frames = rng.normal(0.0, 3.0, (n, dim))
                scores = gmm._score_models(stack, frames)
                assert scores.shape == (s, n) and scores.flags.c_contiguous
                assert gmm._score_models(stack, frames).tobytes() == scores.tobytes()
                totals = scores.sum(axis=1)
                for i, model in enumerate(models):
                    assert float(np.sum(scores[i])) == float(totals[i]), (dim, n, i)
                    assert_ulps_close(scores[i], frame_logpdf(model, frames))
                    assert_ulps_close(totals[i], loglik(model, frames))

    def test_small_chunks_and_a_zero_weight(self):
        rng = np.random.default_rng(7)
        models = [_random_gmm(rng, 4, 3) for _ in range(3)]
        models[1] = DiagGmm([0.0, 0.5, 0.25, 0.25], models[1].means, models[1].variances)
        frames = rng.normal(0.0, 2.0, (41, 3))
        for chunk in (2, 3, 40):
            scores = gmm._score_models(gmm.GmmStack(models), frames, chunk=chunk)
            for i, model in enumerate(models):
                assert_ulps_close(scores[i], frame_logpdf(model, frames))

    def test_one_density_pass_per_chunk(self, monkeypatch):
        calls = []

        def counting(g, data):
            calls.append(data.shape)
            return log_component_densities(g, data)

        monkeypatch.setattr(gmm, "log_component_densities", counting)
        rng = np.random.default_rng(8)
        models = [_random_gmm(rng, 4, 2) for _ in range(7)]
        gmm._score_models(gmm.GmmStack(models), rng.standard_normal((600, 2)))
        assert calls == [(256, 2), (256, 2), (88, 2)]

    def test_rows_built_once_per_stack(self, monkeypatch):
        built = []

        def counting(models):
            built.append(len(models))
            return stack_rows(models)

        stack_rows = gmm._stack_rows
        monkeypatch.setattr(gmm, "_stack_rows", counting)
        rng = np.random.default_rng(8)
        models = [_random_gmm(rng, 4, 2) for _ in range(7)]
        stack = gmm.GmmStack(models)
        frames = rng.standard_normal((600, 2))
        gmm._score_models(stack, frames)
        gmm._score_models(stack, frames, chunk=7)
        gmm._score_block(stack, frames, posteriors=True)
        assert built == [7]
        accumulate_stats(models[0], frames, chunk=100)  # one stack for all six chunks
        assert built == [7, 1]

    def test_shapes_must_agree(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="share component count and dim"):
            gmm.GmmStack([_random_gmm(rng, 2, 3), _random_gmm(rng, 4, 3)])
        with pytest.raises(ValueError, match="does not match model dim 3"):
            gmm._score_models(gmm.GmmStack([_random_gmm(rng, 2, 3)] * 2), np.zeros((0, 4)))

    def test_empty_frames(self):
        rng = np.random.default_rng(10)
        models = [_random_gmm(rng, 2, 3)] * 3
        assert gmm._score_models(gmm.GmmStack(models), np.zeros((0, 3))).shape == (3, 0)


class TestChunkedScoring:
    """frame_logpdf and loglik score in row chunks of at most 256 rows.

    The result agrees with one unchunked pass to within a few ulps, at 5
    dims and at 39; loglik is exactly the sum of frame_logpdf.
    """

    @pytest.mark.parametrize("k", [1, 4, 32])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 5000])
    def test_bit_equal_to_unchunked_oracle_one_chunk_at_a_time(self, monkeypatch, n, k):
        rng = np.random.default_rng(10 * n + k)
        rows = []

        def counting(model, data):
            rows.append(data.shape[0])
            return log_component_densities(model, data)

        monkeypatch.setattr(gmm, "log_component_densities", counting)
        for dim in CROSS_SHAPE_DIMS:
            g = _random_gmm(rng, k, dim)
            frames = rng.normal(0.0, 3.0, (n, dim))
            want = unchunked_frame_logpdf(g, frames)
            rows.clear()
            got = frame_logpdf(g, frames)
            assert max(rows) <= 256 and sum(rows) == n
            assert_ulps_close(got, want)
            assert got.tobytes() == gmm._score_models(gmm.GmmStack([g]), frames)[0].tobytes()
            rows.clear()
            total = loglik(g, frames)
            assert max(rows) <= 256 and sum(rows) == n
            assert total == float(np.sum(got))
            assert_ulps_close(total, float(np.sum(want)))


def _score_models_digest(threads, dim):
    """sha256 of _score_models' bytes for 2,000 x dim frames against 7 models of 32
    components, computed in a fresh process with `threads` BLAS threads."""
    src_dir = Path(accent_forge.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    script = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from accent_forge.gmm import DiagGmm, GmmStack, _score_models\n"
        "dim = int(sys.argv[1])\n"
        "rng = np.random.default_rng(dim)\n"
        "models = [DiagGmm(rng.dirichlet(np.ones(32)), rng.normal(0.0, 3.0, (32, dim)),\n"
        "                  rng.uniform(0.4, 2.5, (32, dim))) for _ in range(7)]\n"
        "frames = rng.normal(0.0, 3.0, (2000, dim))\n"
        "print(hashlib.sha256(_score_models(GmmStack(models), frames).tobytes()).hexdigest())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(dim)], env=env, check=True,
                          timeout=120, stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip()


class TestBlasThreadDeterminism:
    @pytest.mark.parametrize("dim", [5, 20])
    def test_score_models_identical_at_one_and_two_blas_threads(self, dim):
        one, two = (_score_models_digest(threads, dim) for threads in ("1", "2"))
        assert len(one) == 64 and one == two


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        model = _random_gmm(rng, 4, 3, label="accent-x")
        path = tmp_path / "m.agm"
        write_model(path, model)
        back = read_model(path)
        assert back.label == "accent-x"
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.means, model.means)
        np.testing.assert_array_equal(back.variances, model.variances)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.agm"
        path.write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(FormatError, match="AGM1"):
            read_model(path)

    def test_non_utf8_label(self, tmp_path):
        path = tmp_path / "latin1.agm"
        path.write_bytes(gmm.MODEL_MAGIC + struct.pack("<III", 1, 1, 1) + b"\xe9"
                         + np.array([1.0, 0.0, 1.0], dtype="<f8").tobytes())
        with pytest.raises(FormatError, match="label in .*latin1.agm is not UTF-8"):
            read_model(path)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiagGmm([0.5, 0.4], [[0.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(ValueError, match="positive"):
            DiagGmm([1.0], [[0.0]], [[0.0]])
