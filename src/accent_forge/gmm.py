"""Diagonal-covariance Gaussian mixtures: scoring, alignment, EM training.

All density math runs in the log domain; mixture sums use log-sum-exp.
The universal background model is trained by binary splitting: fit one
Gaussian, repeatedly split every component (mean +- 0.1 sigma), and run a
few EM iterations per stage until the target component count is reached.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

MODEL_MAGIC = b"AGM1"

_LOG_2PI = float(np.log(2.0 * np.pi))
# EM floors each variance at this fraction of its dimension's data variance
_FLOOR_SCALE = 1e-6
# a frame whose shifted mixture sum falls below this is reduced again from its own
# maximum: below it, log(total) would rest on subnormal or underflowed terms
_TOTAL_FLOOR = float(np.exp(-600.0))


@dataclass
class DiagGmm:
    """Mixture weights, means, and diagonal variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        n = self.weights.shape[0]
        if self.means.shape[0] != n or self.variances.shape != self.means.shape:
            raise ValueError("weights, means and variances must agree on component count")
        if self.means.ndim != 2:
            raise ValueError("means must be (components x dim)")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")
        for arr in (self.weights, self.means, self.variances):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters contain NaN or Inf")

    @property
    def num_components(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


@dataclass
class GmmStats:
    """Zeroth/first/second-order sufficient statistics per component.

    loglik is the total log-likelihood of the frames under the model that
    produced the statistics.
    """

    n: np.ndarray
    sum_x: np.ndarray
    sum_x2: np.ndarray
    total_frames: int
    loglik: float


def _check_dim(dim, data):
    if data.shape[1] != dim:
        raise ValueError("feature dim %d does not match model dim %d" % (data.shape[1], dim))


def log_component_densities(rows, data):
    """(N x R) log densities of every frame under R component rows.

    One matmul of each component's [-1/(2 var), mean/var, c] row with each
    frame's [x^2, x, 1] column; with c = -(D log 2pi + sum log var +
    sum mean^2/var)/2 that is log N(x; mean, var), and a GmmStack's rows fold
    log w - M_s into c. The product is computed component-major, as (R x N),
    and returned as its transpose view; .T of the result is the C-contiguous
    (R x N) block.
    """
    d = (rows.shape[1] - 1) // 2
    _check_dim(d, data)
    cols = np.empty((data.shape[0], 2 * d + 1))
    np.multiply(data, data, out=cols[:, :d])
    cols[:, d:2 * d] = data
    cols[:, -1] = 1.0
    return (rows @ cols.T).T


def frame_logpdf(g, data):
    """Per-frame mixture log density, log sum_i w_i p_i(x), scored by _score_models."""
    return _score_models(GmmStack([g]), data)[0]


def _stack_rows(models):
    """The (S*K x 2D+1) component rows of S same-shaped models and the (S,) bounds.

    Row k of model s is [-1/(2 var), mean/var, c + log w_k - M_s], whose product
    with a frame's [x^2, x, 1] is the component's log joint density less M_s.
    M_s = max_k(log w_k - (D log 2pi + sum log var_k)/2) is model s's peak log
    joint density: no frame's log joint density under model s exceeds it.
    """
    means = np.vstack([m.means for m in models])
    variances = np.vstack([m.variances for m in models])
    with np.errstate(divide="ignore"):
        log_weights = np.concatenate([np.log(m.weights) for m in models])
    d = means.shape[1]
    inv_var = 1.0 / variances
    rows = np.empty((means.shape[0], 2 * d + 1))
    np.multiply(-0.5, inv_var, out=rows[:, :d])
    np.multiply(means, inv_var, out=rows[:, d:2 * d])
    norm = d * _LOG_2PI + np.sum(np.log(variances), axis=1)
    shift = (log_weights - 0.5 * norm).reshape(len(models), -1).max(axis=1)
    rows[:, -1] = -0.5 * (norm + np.sum(means * rows[:, d:2 * d], axis=1)) + log_weights
    rows[:, -1] -= np.repeat(shift, models[0].num_components)
    return rows, shift


class GmmStack:
    """S diagonal GMMs of one shape, held as one block of S*K component rows.

    `rows` and `shift` come from _stack_rows, once per stack. Scoring
    multiplies the rows with each block of frames and adds shift[s] back to
    model s's log-sum-exp.
    """

    def __init__(self, models):
        self.models = tuple(models)
        if not self.models:
            raise ValueError("a model stack needs at least one model")
        shape = self.models[0].means.shape
        if any(m.means.shape != shape for m in self.models):
            raise ValueError("stacked models must share component count and dim")
        self.dim = shape[1]
        self.rows, self.shift = _stack_rows(self.models)


def _log_sum_exp(by_model, offset, posteriors):
    """log(sum_k exp(by_model)) + offset over the K axis of an (S x K x rows) block.

    exp runs in place; with posteriors, the block is then divided by its sums.
    """
    np.exp(by_model, out=by_model)
    total = by_model.sum(axis=1)
    if posteriors:
        by_model /= total[:, None, :]
    return np.log(total) + offset, total


def _score_block(stack, block, posteriors=False):
    """(S x rows) log-likelihoods of a frame block under a GmmStack's S models.

    The one density pass behind every mixture score: one matmul of the
    stack's rows, laid out component-major as (S*K x rows), whose entries are
    log joint densities less their model's bound M_s, so none is above 0 and
    exp cannot overflow. Then exp in place, the sum `total` over each model's
    K rows, and log(total) + M_s. A model's frame whose total is below
    _TOTAL_FLOOR, or is not finite, is reduced again from a second product of
    its frame: its maximum over K (`top`, 0 where not finite) is taken out,
    exp, sum, log(total) + top + M_s. With posteriors, the (S*K x rows)
    posteriors come too, the exponentials divided by their total, so each
    model's K rows sum to 1 per frame.
    """
    s, k = len(stack.models), stack.models[0].num_components
    joint = log_component_densities(stack.rows, block).T
    by_model = joint.reshape(s, k, -1)
    with np.errstate(all="ignore"):  # only frames whose result is +-inf or NaN warn
        frame_ll, total = _log_sum_exp(by_model, stack.shift[:, None], posteriors)
        redo = ~((total >= _TOTAL_FLOOR) & (total < np.inf))
        far = np.flatnonzero(redo.any(axis=0))
        if far.size:
            again = log_component_densities(stack.rows, block[far]).T.reshape(s, k, -1)
            top = again.max(axis=1)
            top[~np.isfinite(top)] = 0.0
            again -= top[:, None, :]
            redo = redo[:, far]
            again_ll = _log_sum_exp(again, top + stack.shift[:, None], posteriors)[0]
            frame_ll[:, far] = np.where(redo, again_ll, frame_ll[:, far])
            if posteriors:
                by_model[:, :, far] = np.where(redo[:, None, :], again, by_model[:, :, far])
    return frame_ll, joint if posteriors else None


def _score_models(stack, data, chunk=256):
    """(S x N) per-frame log-likelihoods of a GmmStack's S models.

    _score_block runs once per chunk of `chunk` rows, which keeps the block
    in cache and bounds its memory. The same inputs give the same bytes, and
    the result is C-contiguous, so row s sums to loglik(stack.models[s], data).
    Row s agrees with that model scored alone, or in other chunks, to within a
    few ulps: BLAS may take another product path for another block shape.
    """
    _check_dim(stack.dim, data)
    frame_ll = np.empty((len(stack.models), data.shape[0]))
    for start in range(0, data.shape[0], chunk):
        frame_ll[:, start:start + chunk] = _score_block(stack, data[start:start + chunk])[0]
    return frame_ll


def loglik(g, data):
    """Total log-likelihood of a frame sequence (frames independent)."""
    if data.shape[0] < 1:
        raise ValueError("log-likelihood of an empty feature matrix is undefined")
    return float(np.sum(frame_logpdf(g, data)))


def accumulate_stats(g, data, chunk=8192):
    """Posterior-weighted sufficient statistics, Kahan-compensated per chunk.

    The same pass yields the model's log-likelihood of the frames, as
    GmmStats.loglik.
    """
    _check_dim(g.dim, data)
    stack = GmmStack([g])
    totals = [np.zeros(g.num_components), np.zeros(g.means.shape), np.zeros(g.means.shape)]
    comps = [np.zeros_like(total) for total in totals]
    frame_ll = np.empty((1, data.shape[0]))
    for start in range(0, data.shape[0], chunk):
        block = data[start:start + chunk]
        frame_ll[:, start:start + chunk], post = _score_block(stack, block, posteriors=True)
        terms = (post.sum(axis=1), post @ block, post @ (block * block))
        for total, comp, term in zip(totals, comps, terms):
            y = term - comp
            t = total + y
            comp[...] = (t - total) - y
            total[...] = t
    return GmmStats(*totals, total_frames=data.shape[0], loglik=float(np.sum(frame_ll)))


def _maximize(stats, floor, old_means, old_variances):
    """M-step from sufficient statistics; components with no mass keep old params."""
    n = stats.n
    weights = np.maximum(n, 0.0) / float(stats.total_frames)
    weights /= weights.sum()
    dead = n <= 1e-10
    safe_n = np.where(dead, 1.0, n)
    means = stats.sum_x / safe_n[:, None]
    variances = np.maximum(stats.sum_x2 / safe_n[:, None] - means * means, floor)
    means[dead] = old_means[dead]
    variances[dead] = old_variances[dead]
    return weights, means, variances


def em_train(
    data,
    target_components,
    em_iters_per_stage=5,
    final_em_iters=10,
    return_history=False,
    label="",
):
    """EM-trained mixture grown by binary splitting.

    target_components must be a power of two. The per-stage log-likelihood
    sequence is non-decreasing (up to the variance floor). The split
    initialization is deterministic. Each EM iteration makes one density pass:
    the log-likelihood it records comes from the E-step's statistics. Only
    with return_history does each split stage end with one more, chunked
    pass that scores the stage's final model; the model is the same either
    way.
    """
    if target_components < 1 or target_components & (target_components - 1):
        raise ValueError("target component count must be a power of 2")
    if data.shape[0] < target_components:
        raise ValueError(
            "cannot fit %d components on %d frames" % (target_components, data.shape[0])
        )
    if data.shape[0] < 10 * target_components:
        warnings.warn(
            "only %d frames for %d components; at least 10x is recommended"
            % (data.shape[0], target_components),
            stacklevel=2,
        )
    floor = _FLOOR_SCALE * np.maximum(data.var(axis=0), 1e-12)

    weights = np.ones(1)
    means = data.mean(axis=0)[None, :]
    variances = np.maximum(data.var(axis=0), floor)[None, :]
    history = [{"components": 1, "loglik": []}]
    while len(weights) < target_components:
        offset = 0.1 * np.sqrt(variances)
        means = np.vstack([means + offset, means - offset])
        variances = np.vstack([variances, variances])
        weights = np.concatenate([weights, weights]) / 2.0
        stage_ll = []
        iters = final_em_iters if len(weights) == target_components else em_iters_per_stage
        for _ in range(iters):
            stats = accumulate_stats(DiagGmm(weights, means, variances), data)
            stage_ll.append(stats.loglik)
            weights, means, variances = _maximize(stats, floor, means, variances)
        if return_history:
            stage_ll.append(loglik(DiagGmm(weights, means, variances), data))
            history.append({"components": len(weights), "loglik": stage_ll})

    model = DiagGmm(weights, means, variances, label=label)
    if return_history:
        return model, history
    return model


def write_model(path, g):
    """AGM1 model file: u32 N, u32 M, label, weights, means, variances."""
    label = g.label.encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MODEL_MAGIC)
        handle.write(struct.pack("<III", g.num_components, g.dim, len(label)))
        handle.write(label)
        handle.write(np.ascontiguousarray(g.weights, dtype="<f8").tobytes())
        handle.write(np.ascontiguousarray(g.means, dtype="<f8").tobytes())
        handle.write(np.ascontiguousarray(g.variances, dtype="<f8").tobytes())


def read_model(path):
    """An AGM1 model file; FormatError if it is not exactly what write_model writes."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != MODEL_MAGIC:
            raise FormatError("bad magic %r in %s (expected %r)" % (magic, path, MODEL_MAGIC))
        header = handle.read(12)
        if len(header) != 12:
            raise FormatError("truncated model header in %s" % path)
        n, dim, label_len = struct.unpack("<III", header)
        rest = handle.read()
    body_len = (n + 2 * n * dim) * 8
    if len(rest) < label_len + body_len:
        raise FormatError("truncated model data in %s" % path)
    if len(rest) > label_len + body_len:
        raise FormatError("%d bytes after the variances in %s"
                          % (len(rest) - label_len - body_len, path))
    try:
        label = rest[:label_len].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("model label in %s is not UTF-8" % path) from None
    flat = np.frombuffer(rest, dtype="<f8", offset=label_len)
    weights = flat[:n].copy()
    means = flat[n:n + n * dim].reshape(n, dim).copy()
    variances = flat[n + n * dim:].reshape(n, dim).copy()
    try:
        return DiagGmm(weights, means, variances, label=label)
    except ValueError as exc:
        raise FormatError("%s in %s" % (exc, path)) from None
