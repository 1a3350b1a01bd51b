"""Dimension reduction: PCA and ML-trained HLDA.

Both fits read only per-class frame counts, means and centred scatters,
accumulated one utterance at a time. HLDA finds a square transform whose
leading rows carry class-dependent diagonal variances while the remaining
rows model class-independent nuisance directions; it is fit by cyclic
cofactor-based row updates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import FormatError

TRANSFORM_MAGIC = b"AFT1"

_VAR_FLOOR = 1e-8


@dataclass
class LinearTransform:
    """Affine map y = matrix @ splice(x, context) + offset."""

    matrix: np.ndarray
    offset: np.ndarray
    context: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.offset = np.asarray(self.offset, dtype=np.float64)
        if self.matrix.ndim != 2 or self.offset.shape != (self.matrix.shape[0],):
            raise ValueError("matrix must be (out_dim x in_dim) with matching offset")
        if not (np.all(np.isfinite(self.matrix)) and np.all(np.isfinite(self.offset))):
            raise ValueError("transform matrix or offset contains NaN or Inf")

    @property
    def in_dim(self):
        return self.matrix.shape[1]

    @property
    def out_dim(self):
        return self.matrix.shape[0]


def splice_frames(data, context):
    """Stack +-context neighbor frames onto each frame (edge replication)."""
    if context == 0:
        return data
    num_frames = data.shape[0]
    cols = []
    for off in range(-context, context + 1):
        idx = np.clip(np.arange(num_frames) + off, 0, num_frames - 1)
        cols.append(data[idx])
    return np.hstack(cols)


def _canonical_signs(rows):
    """Flip each row in place so that its largest-magnitude entry is positive."""
    for row in rows:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0:
            row *= -1.0
    return rows


@dataclass
class Moments:
    """A frame set's count, mean and centred scatter sum_x (x - mean)(x - mean)^T."""

    count: int
    mean: np.ndarray
    scatter: np.ndarray

    @classmethod
    def of(cls, data):
        mean = data.mean(axis=0)
        centered = data - mean
        # one operand array, so BLAS takes its symmetric path
        return cls(data.shape[0], mean, centered.T @ centered)

    def merge(self, other):
        """The moments of both frame sets, by Chan, Golub & LeVeque's pairwise
        update, which never forms sum x x^T - n mean mean^T."""
        count = self.count + other.count
        delta = other.mean - self.mean
        return Moments(count, self.mean + delta * (other.count / count),
                       self.scatter + other.scatter
                       + np.outer(delta, delta) * (self.count * other.count / count))


def class_moments(utterances):
    """{class: Moments} of labelled frames, read one utterance at a time.

    utterances: (frames, labels) items, labels one class for the whole
    utterance or one per frame. Each utterance's per-class moments are
    merged into the running ones, so no two utterances are held at once.
    """
    moments = {}
    for data, labels in utterances:
        labels = np.asarray(labels)
        if labels.ndim and labels.shape != (data.shape[0],):
            raise ValueError("labels must be one class or one per frame")
        if not data.shape[0]:
            continue
        for cid in np.unique(labels):
            part = Moments.of(data if labels.ndim == 0 else data[labels == cid])
            moments[cid] = moments[cid].merge(part) if cid in moments else part
    return moments


def fit_pca(blocks, out_dim):
    """Leading principal directions of frame blocks read one at a time;
    orthonormal rows, centered output."""
    moments = class_moments((block, 0) for block in blocks)
    if not moments:
        raise ValueError("need more frames than dimensions to fit PCA")
    (pooled,) = moments.values()
    in_dim = len(pooled.mean)
    if out_dim > in_dim:
        raise ValueError("PCA out_dim %d exceeds input dim %d" % (out_dim, in_dim))
    if pooled.count <= in_dim:
        raise ValueError("need more frames than dimensions to fit PCA")
    vals, vecs = scipy.linalg.eigh(pooled.scatter / (pooled.count - 1))
    order = np.argsort(vals)[::-1][:out_dim]
    rows = _canonical_signs(vecs[:, order].T.copy())
    return LinearTransform(
        rows, -rows @ pooled.mean, context=0, meta={"eigenvalues": vals[order].copy()}
    )


@dataclass
class _HldaStats:
    """The second-order statistics an HLDA fit reads, fixed for the whole fit."""

    total: int  # frames
    counts: np.ndarray  # (S,) frames per class
    class_covs: np.ndarray  # (S, d, d) class covariances
    total_cov: np.ndarray  # (d, d) total covariance
    total_inv: np.ndarray | None  # its inverse, or None if it is singular


def _hlda_statistics(moments):
    """The global mean, S_B and _HldaStats of {class: Moments}, classes in sorted order.

    S_B = (1/K) sum_s K_s (mu_s - mu)(mu_s - mu)^T and
    Sigma_total = (1/K) sum_s scatter_s + S_B.
    """
    classes = [moments[cid] for cid in sorted(moments)]
    counts = np.array([m.count for m in classes], dtype=np.int64)
    total = int(counts.sum())
    means = np.stack([m.mean for m in classes])
    mean = counts @ means / total
    s_b = sum(n * np.outer(d, d) for n, d in zip(counts, means - mean)) / total
    scatters = np.stack([m.scatter for m in classes])
    total_cov = scatters.sum(axis=0) / total + s_b
    total_cov = 0.5 * (total_cov + total_cov.T)
    try:
        total_inv = np.linalg.inv(total_cov)
    except np.linalg.LinAlgError:  # exactly singular: the rejected rows stay put
        total_inv = None
    return mean, s_b, _HldaStats(total, counts, scatters / counts[:, None, None],
                                 total_cov, total_inv)


def _hlda_objective(mat, retained, stats):
    """K log|det A| - 1/2 sum_s K_s sum_{j<p} log var_sj - K/2 sum_{j>=p} log var_j."""
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0 and logdet == -np.inf:
        return -np.inf
    kept = mat[:retained]
    var = np.sum(kept @ stats.class_covs * kept, axis=-1)  # (S, retained)
    obj = stats.total * logdet - 0.5 * np.sum(
        stats.counts @ np.log(np.maximum(var, _VAR_FLOOR)))
    if retained < mat.shape[0]:
        rest = mat[retained:]
        var = np.sum(rest @ stats.total_cov * rest, axis=1)
        obj -= 0.5 * stats.total * np.sum(np.log(np.maximum(var, _VAR_FLOOR)))
    return float(obj)


def _row_objective(inner, var, weights, total):
    """The objective's terms in one row: K log|row . cof| - 1/2 sum weights log var,
    from the row's inner product with its cofactor column and its floored variances."""
    if inner == 0.0:
        return -np.inf
    return total * np.log(abs(inner)) - 0.5 * np.sum(weights * np.log(var))


def _retained_row(row, cof, stats):
    """The best of row and three fixed-point steps g^-1 cof, where
    g = sum_s (K_s / var_s) Sigma_s at the previous step; None if row stays best."""
    counts, covs = stats.counts, stats.class_covs
    dim = len(row)
    flat_covs = covs.reshape(len(counts), dim * dim)
    var = np.maximum(covs @ row @ row, _VAR_FLOOR)
    best, best_q = None, _row_objective(row @ cof, var, counts, stats.total)
    for _ in range(3):
        g = ((counts / var) @ flat_covs).reshape(dim, dim)
        try:
            solved = np.linalg.solve(g, cof)
        except np.linalg.LinAlgError:
            break
        denom = cof @ solved
        if denom <= 0:
            break
        candidate = solved * np.sqrt(stats.total / denom)
        var = np.maximum(covs @ candidate @ candidate, _VAR_FLOOR)
        q = _row_objective(candidate @ cof, var, counts, stats.total)
        if q > best_q:
            best, best_q = candidate, q
    return best


def _rejected_row(row, cof, stats):
    """The better of row and the step g^-1 cof with g = (K / var) Sigma_total,
    which is Sigma_total^-1 cof scaled to keep row's variance; None if row stays best."""
    if stats.total_inv is None:
        return None
    total, total_cov = stats.total, stats.total_cov
    var = max(row @ total_cov @ row, _VAR_FLOOR)
    direction = stats.total_inv @ cof
    denom = cof @ direction
    if denom <= 0:
        return None
    candidate = direction * np.sqrt(var / denom)
    q = _row_objective(candidate @ cof,
                       max(candidate @ total_cov @ candidate, _VAR_FLOOR), total, total)
    return candidate if q > _row_objective(row @ cof, var, total, total) else None


def _hlda_sweep(mat, retained, stats):
    """One cyclic pass of row updates over the square transform mat, in place.

    Row j's cofactor direction is column j of mat^-1. The inverse is taken
    once per sweep; replacing row j by new is the rank-one change
    mat + e_j (new - row)^T, so a Sherman-Morrison update keeps it current
    at O(d^2) per row.
    """
    inv = np.linalg.inv(mat)
    for j in range(mat.shape[0]):
        cof = inv[:, j].copy()
        row = mat[j]
        best = _retained_row(row, cof, stats) if j < retained else _rejected_row(row, cof, stats)
        if best is not None:
            delta = best - row
            inv -= np.outer(cof, (delta @ inv) / (1.0 + delta @ cof))
            mat[j] = best


def fit_hlda(utterances, retained_dim, context=1, max_iters=100, tol=1e-6):
    """Maximum-likelihood HLDA on spliced features, read one utterance at a time.

    utterances: (frames, labels) items as class_moments takes them; each
    utterance is spliced on its own, so splicing never crosses utterance
    boundaries. Returns the first retained_dim rows; meta records the
    objective sequence, convergence, and the full square transform.
    """
    moments = class_moments((splice_frames(frames, context), labels)
                            for frames, labels in utterances)
    if not moments:
        raise ValueError("need labelled frames to fit HLDA")
    mean, s_b, stats = _hlda_statistics(moments)
    dim = len(mean)
    if retained_dim > dim:
        raise ValueError("retained_dim %d exceeds spliced dim %d" % (retained_dim, dim))
    if np.any(stats.counts <= dim):
        raise ValueError("every class needs more frames than the spliced dim %d" % dim)

    # init: whiten the global covariance, then rotate so leading rows align
    # with the between-class spectrum of the whitened data
    vals, vecs = scipy.linalg.eigh(stats.total_cov)
    vals = np.maximum(vals, 1e-10)
    white = (vecs / np.sqrt(vals)).T[::-1]
    between_white = white @ s_b @ white.T
    bvals, bvecs = scipy.linalg.eigh(0.5 * (between_white + between_white.T))
    mat = _canonical_signs(bvecs[:, ::-1].T.copy()) @ white

    objective = [_hlda_objective(mat, retained_dim, stats)]
    converged = False
    for _ in range(max_iters):
        _hlda_sweep(mat, retained_dim, stats)
        objective.append(_hlda_objective(mat, retained_dim, stats))
        gain = objective[-1] - objective[-2]
        if gain <= tol * max(1.0, abs(objective[-2])):
            converged = True
            break

    rows = mat[:retained_dim].copy()
    return LinearTransform(
        rows,
        -rows @ mean,
        context=context,
        meta={
            "objective": objective,
            "converged": converged,
            "full_matrix": mat,
        },
    )


def apply_transform(transform, data):
    """Apply an affine transform, splicing context frames first if needed."""
    spliced = splice_frames(data, transform.context)
    if spliced.shape[1] != transform.in_dim:
        raise ValueError(
            "transform expects input dim %d, got %d (after context %d splicing)"
            % (transform.in_dim, spliced.shape[1], transform.context)
        )
    return spliced @ transform.matrix.T + transform.offset


def apply_chain(transforms, data):
    for transform in transforms:
        data = apply_transform(transform, data)
    return data


def write_transform_chain(path, transforms):
    """AFT1 records: u32 in_dim, u32 out_dim, u32 context, f64 matrix, f64 offset."""
    with open(path, "wb") as handle:
        for t in transforms:
            handle.write(TRANSFORM_MAGIC)
            handle.write(struct.pack("<III", t.in_dim, t.out_dim, t.context))
            handle.write(np.ascontiguousarray(t.matrix, dtype="<f8").tobytes())
            handle.write(np.ascontiguousarray(t.offset, dtype="<f8").tobytes())


def read_transform_chain(path):
    """AFT1 records; FormatError if they are not what write_transform_chain writes."""
    with open(path, "rb") as handle:
        blob = handle.read()
    transforms = []
    pos = 0
    while pos < len(blob):
        magic = blob[pos:pos + 4]
        if magic != TRANSFORM_MAGIC:
            raise FormatError(
                "bad magic %r in %s (expected %r)" % (magic, path, TRANSFORM_MAGIC)
            )
        header = blob[pos + 4:pos + 16]
        if len(header) != 12:
            raise FormatError("truncated transform header in %s" % path)
        in_dim, out_dim, context = struct.unpack("<III", header)
        pos += 16
        size = out_dim * (in_dim + 1)
        if len(blob) - pos < size * 8:
            raise FormatError("truncated transform data in %s" % path)
        flat = np.frombuffer(blob, dtype="<f8", count=size, offset=pos)
        matrix = flat[:out_dim * in_dim].reshape(out_dim, in_dim)
        try:
            transforms.append(LinearTransform(matrix.copy(), flat[out_dim * in_dim:].copy(),
                                              context))
        except ValueError as exc:
            raise FormatError("%s in %s" % (exc, path)) from None
        pos += size * 8
    return transforms
