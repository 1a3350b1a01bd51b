"""Dimension reduction: PCA, class-weighted scatter, LDA, and ML-trained HLDA.

HLDA finds a square transform whose leading rows carry class-dependent
diagonal variances while the remaining rows model class-independent
nuisance directions; it is fit by cyclic cofactor-based row updates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import FormatError
from .frontend import FeatureMatrix, feature_array

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


@dataclass
class ScatterPair:
    s_b: np.ndarray
    s_w: np.ndarray
    global_mean: np.ndarray
    class_means: np.ndarray
    class_counts: np.ndarray
    class_ids: np.ndarray


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


def fit_pca(feats, out_dim):
    """Leading principal directions, orthonormal rows, centered output."""
    data = feature_array(feats)
    num_frames, in_dim = data.shape
    if out_dim > in_dim:
        raise ValueError("PCA out_dim %d exceeds input dim %d" % (out_dim, in_dim))
    if num_frames <= in_dim:
        raise ValueError("need more frames than dimensions to fit PCA")
    mean = data.mean(axis=0)
    cov = np.cov(data, rowvar=False)
    vals, vecs = scipy.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:out_dim]
    rows = _canonical_signs(vecs[:, order].T.copy())
    return LinearTransform(
        rows, -rows @ mean, context=0, meta={"eigenvalues": vals[order].copy()}
    )


def _class_scatter(data, labels):
    """One pass over the classes of labelled frames.

    Returns the global mean, the class ids with their means and frame
    counts, each class's scatter sum_{x in s} (x - mu_s)(x - mu_s)^T, and
    S_B = (1/K) sum_s K_s (mu_s - mu)(mu_s - mu)^T.
    """
    class_ids = np.unique(labels)
    dim = data.shape[1]
    global_mean = data.mean(axis=0)
    class_means = np.zeros((len(class_ids), dim))
    counts = np.zeros(len(class_ids), dtype=np.int64)
    scatters = []
    s_b = np.zeros((dim, dim))
    for i, cid in enumerate(class_ids):
        chunk = data[labels == cid]
        mu = chunk.mean(axis=0)
        cen = chunk - mu
        scatters.append(cen.T @ cen)  # one operand array, so BLAS takes its symmetric path
        diff = mu - global_mean
        s_b += chunk.shape[0] * np.outer(diff, diff)
        class_means[i] = mu
        counts[i] = chunk.shape[0]
    return global_mean, class_ids, class_means, counts, scatters, s_b / data.shape[0]


def scatter_matrices(feats, labels):
    """Class-weighted between/within scatter.

    S_W = (1/K) sum_s sum_{x in s} (x - mu_s)(x - mu_s)^T and
    S_B = (1/K) sum_s K_s (mu_s - mu)(mu_s - mu)^T, so S_B + S_W equals the
    total scatter.
    """
    data = feature_array(feats)
    labels = np.asarray(labels)
    if labels.shape != (data.shape[0],):
        raise ValueError("labels must have one entry per frame")
    global_mean, class_ids, class_means, counts, scatters, s_b = _class_scatter(data, labels)
    if len(class_ids) < 2:
        raise ValueError("need at least 2 classes")
    small = class_ids[counts < 2]
    if len(small):
        raise ValueError("class %r has fewer than 2 frames" % (small[0],))
    s_w = sum(scatters) / data.shape[0]
    s_w = 0.5 * (s_w + s_w.T)
    return ScatterPair(s_b, s_w, global_mean, class_means, counts, class_ids)


def fit_lda(sp, out_dim):
    """Fisher directions from eigen-decomposition of S_W^-1 S_B.

    Rows are normalized so w^T S_W w = 1 (solved via Cholesky symmetric
    reduction for stability).
    """
    num_classes = len(sp.class_counts)
    if out_dim > num_classes - 1:
        raise ValueError(
            "LDA out_dim %d exceeds class count - 1 (%d)" % (out_dim, num_classes - 1)
        )
    try:
        chol = scipy.linalg.cholesky(sp.s_w, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(
            "within-class scatter is singular; reduce dimensionality with PCA first"
        ) from exc
    half = scipy.linalg.solve_triangular(chol, sp.s_b, lower=True)
    reduced = scipy.linalg.solve_triangular(chol, half.T, lower=True)
    reduced = 0.5 * (reduced + reduced.T)
    vals, vecs = scipy.linalg.eigh(reduced)
    order = np.argsort(vals)[::-1][:out_dim]
    basis = scipy.linalg.solve_triangular(chol, vecs[:, order], lower=True, trans="T")
    rows = _canonical_signs(basis.T.copy())
    return LinearTransform(
        rows, -rows @ sp.global_mean, context=0, meta={"eigenvalues": vals[order].copy()}
    )


def _hlda_objective(mat, retained, total_cov, class_covs, counts):
    total = counts.sum()
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0 and logdet == -np.inf:
        return -np.inf
    obj = total * logdet
    proj_retained = mat[:retained]
    for cov, count in zip(class_covs, counts):
        var = np.einsum("ij,jk,ik->i", proj_retained, cov, proj_retained)
        obj -= 0.5 * count * np.sum(np.log(np.maximum(var, _VAR_FLOOR)))
    if retained < mat.shape[0]:
        proj_rest = mat[retained:]
        var = np.einsum("ij,jk,ik->i", proj_rest, total_cov, proj_rest)
        obj -= 0.5 * total * np.sum(np.log(np.maximum(var, _VAR_FLOOR)))
    return float(obj)


def _row_objective(row, cof, retained_row, total, total_cov, class_covs, counts):
    inner = float(row @ cof)
    if inner == 0.0:
        return -np.inf
    obj = total * np.log(abs(inner))
    if retained_row:
        for cov, count in zip(class_covs, counts):
            obj -= 0.5 * count * np.log(max(float(row @ cov @ row), _VAR_FLOOR))
    else:
        obj -= 0.5 * total * np.log(max(float(row @ total_cov @ row), _VAR_FLOOR))
    return obj


def fit_hlda(feats, labels, retained_dim, context=1, max_iters=100, tol=1e-6):
    """Maximum-likelihood HLDA on (optionally spliced) features.

    feats may be one FeatureMatrix/array or a list of per-utterance
    matrices; labels correspondingly one per-frame label array or a list of
    them (splicing never crosses utterance boundaries). Returns the first
    retained_dim rows; meta records the objective sequence, convergence,
    and the full square transform.
    """
    if isinstance(feats, (list, tuple)):
        if not isinstance(labels, (list, tuple)) or len(labels) != len(feats):
            raise ValueError("need one label array per utterance")
        spliced = [splice_frames(feature_array(f), context) for f in feats]
        data = np.vstack(spliced)
        labs = np.concatenate([np.broadcast_to(np.asarray(l), (s.shape[0],))
                               for l, s in zip(labels, spliced)])
    else:
        data = splice_frames(feature_array(feats), context)
        labs = np.asarray(labels)
    if labs.shape != (data.shape[0],):
        raise ValueError("labels must have one entry per frame")
    dim = data.shape[1]
    if retained_dim > dim:
        raise ValueError("retained_dim %d exceeds spliced dim %d" % (retained_dim, dim))

    mean, _, _, counts, scatters, s_b = _class_scatter(data, labs)
    if np.any(counts <= dim):
        raise ValueError("every class needs more frames than the spliced dim %d" % dim)
    total = data.shape[0]
    class_covs = [scatter / count for scatter, count in zip(scatters, counts)]
    centered = data - mean
    total_cov = centered.T @ centered / total
    total_cov = 0.5 * (total_cov + total_cov.T)
    del centered

    # init: whiten the global covariance, then rotate so leading rows align
    # with the between-class spectrum of the whitened data
    vals, vecs = scipy.linalg.eigh(total_cov)
    vals = np.maximum(vals, 1e-10)
    white = (vecs / np.sqrt(vals)).T[::-1]
    between_white = white @ s_b @ white.T
    bvals, bvecs = scipy.linalg.eigh(0.5 * (between_white + between_white.T))
    mat = _canonical_signs(bvecs[:, ::-1].T.copy()) @ white

    objective = [_hlda_objective(mat, retained_dim, total_cov, class_covs, counts)]
    converged = False
    for _ in range(max_iters):
        for j in range(dim):
            inv = np.linalg.inv(mat)
            cof = inv[:, j]
            row = mat[j]
            retained_row = j < retained_dim
            best_row = row
            best_q = _row_objective(row, cof, retained_row, total,
                                    total_cov, class_covs, counts)
            current = row
            for _inner in range(3 if retained_row else 1):
                if retained_row:
                    g = np.zeros((dim, dim))
                    for cov, count in zip(class_covs, counts):
                        var = max(float(current @ cov @ current), _VAR_FLOOR)
                        g += (count / var) * cov
                else:
                    var = max(float(current @ total_cov @ current), _VAR_FLOOR)
                    g = (total / var) * total_cov
                try:
                    solved = np.linalg.solve(g, cof)
                except np.linalg.LinAlgError:
                    break
                denom = float(cof @ solved)
                if denom <= 0:
                    break
                candidate = solved * np.sqrt(total / denom)
                q = _row_objective(candidate, cof, retained_row, total,
                                   total_cov, class_covs, counts)
                if q > best_q:
                    best_q = q
                    best_row = candidate
                current = candidate
            mat[j] = best_row
        objective.append(_hlda_objective(mat, retained_dim, total_cov, class_covs, counts))
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


def apply_transform(transform, feats):
    """Apply an affine transform, splicing context frames first if needed."""
    if isinstance(feats, FeatureMatrix):
        data = feats.data
        hop = feats.frame_hop_sec
        tags = feats.tags
    else:
        data = feature_array(feats)
        hop = 0.01
        tags = None
    spliced = splice_frames(data, transform.context)
    if spliced.shape[1] != transform.in_dim:
        raise ValueError(
            "transform expects input dim %d, got %d (after context %d splicing)"
            % (transform.in_dim, spliced.shape[1], transform.context)
        )
    out = spliced @ transform.matrix.T + transform.offset
    return FeatureMatrix(out, hop, tags)


def apply_chain(transforms, feats):
    for transform in transforms:
        feats = apply_transform(transform, feats)
    return feats


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
