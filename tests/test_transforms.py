"""Tests for PCA, scatter matrices, LDA, HLDA, and the transform format.

Class scatter on stacked frames, and LDA on it, live here as oracles: the
pipeline's fits read streamed statistics, and HLDA under equal class
covariances must agree with LDA.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from accent_forge import transforms
from accent_forge.errors import FormatError
from accent_forge.transforms import (
    LinearTransform,
    _canonical_signs,
    apply_chain,
    apply_transform,
    fit_hlda,
    fit_pca,
    read_transform_chain,
    splice_frames,
    write_transform_chain,
)


def stacked_class_scatter(data, labels):
    """Class ids, frame counts, means and centred scatters of stacked labelled
    frames, with the global mean and S_B = (1/K) sum_s K_s (mu_s - mu)(mu_s - mu)^T."""
    class_ids, counts = np.unique(labels, return_counts=True)
    global_mean = data.mean(axis=0)
    chunks = [data[labels == cid] for cid in class_ids]
    class_means = np.stack([chunk.mean(axis=0) for chunk in chunks])
    scatters = np.stack([(chunk - mu).T @ (chunk - mu) for chunk, mu in zip(chunks, class_means)])
    s_b = sum(n * np.outer(d, d) for n, d in zip(counts, class_means - global_mean)) / len(data)
    return class_ids, counts, class_means, scatters, global_mean, s_b


@dataclass
class ScatterPair:
    s_b: np.ndarray
    s_w: np.ndarray
    global_mean: np.ndarray
    class_means: np.ndarray
    class_counts: np.ndarray
    class_ids: np.ndarray


def scatter_matrices(data, labels):
    """Class-weighted between/within scatter.

    S_W = (1/K) sum_s sum_{x in s} (x - mu_s)(x - mu_s)^T and
    S_B = (1/K) sum_s K_s (mu_s - mu)(mu_s - mu)^T, so S_B + S_W equals the
    total scatter.
    """
    labels = np.asarray(labels)
    if labels.shape != (data.shape[0],):
        raise ValueError("labels must have one entry per frame")
    class_ids, counts, class_means, scatters, global_mean, s_b = stacked_class_scatter(
        data, labels)
    if len(class_ids) < 2:
        raise ValueError("need at least 2 classes")
    small = class_ids[counts < 2]
    if len(small):
        raise ValueError("class %r has fewer than 2 frames" % (small[0],))
    s_w = scatters.sum(axis=0) / data.shape[0]
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


class TestPca:
    def test_rank_one_line(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(500)
        data = np.column_stack([t, t]) + 1e-9 * rng.standard_normal((500, 2))
        pca = fit_pca([data], 1)
        direction = pca.matrix[0]
        np.testing.assert_allclose(np.abs(direction), [np.sqrt(0.5)] * 2, atol=1e-6)

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((800, 6))
        pca = fit_pca([data], 4)
        gram = pca.matrix @ pca.matrix.T
        assert np.abs(gram - np.eye(4)).max() < 1e-8

    def test_eigenvalue_recovery(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((10000, 3)) * np.sqrt([4.0, 1.0, 0.25])
        pca = fit_pca([data], 3)
        projected = apply_transform(pca, data)
        variances = projected.var(axis=0, ddof=1)
        np.testing.assert_allclose(variances, [4.0, 1.0, 0.25], rtol=0.05)

    def test_projected_variances_non_increasing(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((600, 5)) @ rng.standard_normal((5, 5))
        pca = fit_pca([data], 5)
        variances = apply_transform(pca, data).var(axis=0)
        assert np.all(np.diff(variances) <= 1e-9)

    def test_output_centered(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((300, 4)) + [5, -2, 3, 0]
        projected = apply_transform(fit_pca([data], 2), data)
        np.testing.assert_allclose(projected.mean(axis=0), 0.0, atol=1e-10)

    def test_out_dim_too_large(self):
        with pytest.raises(ValueError, match="exceeds input dim"):
            fit_pca([np.random.default_rng(5).standard_normal((50, 3))], 4)


class TestScatter:
    def test_two_point_classes(self):
        data = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        sp = scatter_matrices(data, np.array([0, 0, 1, 1]))
        assert sp.global_mean[0] == 0.0
        assert sp.s_w[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert sp.s_b[0, 0] == pytest.approx(1.0)

    def test_coincident_class_means(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((200, 2))
        data = np.vstack([a, a])
        labels = np.array([0] * 200 + [1] * 200)
        sp = scatter_matrices(data, labels)
        assert np.abs(sp.s_b).max() < 1e-12

    def test_scatter_identity(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((900, 4)) + np.repeat(
            rng.standard_normal((3, 4)) * 3, 300, axis=0
        )
        labels = np.repeat([0, 1, 2], 300)
        sp = scatter_matrices(data, labels)
        centered = data - data.mean(axis=0)
        total = centered.T @ centered / len(data)
        np.testing.assert_allclose(sp.s_b + sp.s_w, total, atol=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((100, 3))
        sp = scatter_matrices(data, rng.integers(0, 2, 100))
        assert np.abs(sp.s_w - sp.s_w.T).max() < 1e-10
        assert np.abs(sp.s_b - sp.s_b.T).max() < 1e-10

    def test_small_class_rejected(self):
        data = np.zeros((5, 2))
        with pytest.raises(ValueError, match="fewer than 2 frames"):
            scatter_matrices(data, np.array([0, 0, 0, 0, 1]))


def _two_gaussians(rng, mean_a, mean_b, n=3000, cov=None):
    dim = len(mean_a)
    cov = np.eye(dim) if cov is None else cov
    chol = np.linalg.cholesky(cov)
    a = rng.standard_normal((n, dim)) @ chol.T + mean_a
    b = rng.standard_normal((n, dim)) @ chol.T + mean_b
    return np.vstack([a, b]), np.repeat([0, 1], n)


class TestLda:
    def test_separated_gaussians_direction(self):
        rng = np.random.default_rng(9)
        data, labels = _two_gaussians(rng, [-5.0, 0.0], [5.0, 0.0])
        lda = fit_lda(scatter_matrices(data, labels), 1)
        w = lda.matrix[0] / np.linalg.norm(lda.matrix[0])
        angle = np.degrees(np.arccos(min(1.0, abs(w[0]))))
        assert angle < 1.0

    def test_sw_normalization(self):
        rng = np.random.default_rng(10)
        data, labels = _two_gaussians(rng, [0.0, 2.0, 0.0], [2.0, 0.0, 0.0])
        sp = scatter_matrices(data, labels)
        lda = fit_lda(sp, 1)
        w = lda.matrix[0]
        assert w @ sp.s_w @ w == pytest.approx(1.0, abs=1e-8)

    def test_noise_dimension_downweighted(self):
        rng = np.random.default_rng(11)
        data, labels = _two_gaussians(rng, [-5.0, 0.0], [5.0, 0.0])
        noisy = np.column_stack([data, rng.standard_normal(len(data))])
        lda = fit_lda(scatter_matrices(noisy, labels), 1)
        w = lda.matrix[0] / np.linalg.norm(lda.matrix[0])
        assert abs(w[2]) < 0.1

    def test_affine_reparametrization_invariance(self):
        rng = np.random.default_rng(12)
        data, labels = _two_gaussians(rng, [-2.0, 1.0, 0.0], [2.0, -1.0, 0.5])
        mixing = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        moved = data @ mixing.T + np.array([1.0, -4.0, 2.0])
        lda_a = fit_lda(scatter_matrices(data, labels), 1)
        lda_b = fit_lda(scatter_matrices(moved, labels), 1)
        # w' must span the same functional direction: w = M^T w'
        back = lda_b.matrix @ mixing
        angles = scipy.linalg.subspace_angles(lda_a.matrix.T, back.T)
        assert np.max(angles) < 1e-6

    def test_out_dim_bound(self):
        rng = np.random.default_rng(13)
        data, labels = _two_gaussians(rng, [0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="class count"):
            fit_lda(scatter_matrices(data, labels), 2)

    def test_singular_sw_message(self):
        data = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        sp = scatter_matrices(data, np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match="PCA"):
            fit_lda(sp, 1)

    def test_rows_have_canonical_signs(self):
        # PCA and LDA rows are fixed up to sign; the largest-magnitude entry
        # of each row is made positive, so the transform is deterministic
        rng = np.random.default_rng(19)
        data, labels = _hlda_classes(rng, num_classes=5, dim=6, per_class=200)
        for fitted in (fit_pca([data], 6), fit_lda(scatter_matrices(data, labels), 4)):
            rows = fitted.matrix
            assert np.all(rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)] > 0)


def _row_objective_oracle(row, cof, retained_row, stats):
    """One row's objective terms, one class at a time (oracle)."""
    inner = float(row @ cof)
    if inner == 0.0:
        return -np.inf
    obj = stats.total * np.log(abs(inner))
    if retained_row:
        for cov, count in zip(stats.class_covs, stats.counts):
            obj -= 0.5 * count * np.log(max(float(row @ cov @ row), transforms._VAR_FLOOR))
    else:
        obj -= 0.5 * stats.total * np.log(
            max(float(row @ stats.total_cov @ row), transforms._VAR_FLOOR))
    return obj


def _hlda_sweep_oracle(mat, retained, stats):
    """One sweep of row updates with a fresh inverse of mat for every row (oracle).

    Each row's weighted covariance g is summed one class at a time and
    solved directly, the rejected rows' too."""
    dim, total = mat.shape[0], stats.total
    for j in range(dim):
        cof = np.linalg.inv(mat)[:, j]
        row = mat[j]
        retained_row = j < retained
        best_row = row
        best_q = _row_objective_oracle(row, cof, retained_row, stats)
        current = row
        for _ in range(3 if retained_row else 1):
            if retained_row:
                g = np.zeros((dim, dim))
                for cov, count in zip(stats.class_covs, stats.counts):
                    g += (count / max(float(current @ cov @ current), transforms._VAR_FLOOR)) * cov
            else:
                var = max(float(current @ stats.total_cov @ current), transforms._VAR_FLOOR)
                g = (total / var) * stats.total_cov
            try:
                solved = np.linalg.solve(g, cof)
            except np.linalg.LinAlgError:
                break
            denom = float(cof @ solved)
            if denom <= 0:
                break
            candidate = solved * np.sqrt(total / denom)
            q = _row_objective_oracle(candidate, cof, retained_row, stats)
            if q > best_q:
                best_q, best_row = q, candidate
            current = candidate
        mat[j] = best_row


def fit_hlda_oracle(*args, **kwargs):
    """fit_hlda with every sweep run by _hlda_sweep_oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_hlda_sweep", _hlda_sweep_oracle)
        return fit_hlda(*args, **kwargs)


def _hlda_classes(rng, num_classes=3, dim=8, per_class=3000, shared_cov=True):
    mixing = rng.standard_normal((dim, dim))
    means = np.zeros((num_classes, dim))
    means[:, :2] = rng.standard_normal((num_classes, 2)) * 4
    data, labels = [], []
    for s in range(num_classes):
        z = rng.standard_normal((per_class, dim))
        if not shared_cov:
            z *= rng.uniform(0.5, 2.0, size=dim)
        data.append((z + means[s]) @ mixing.T)
        labels.append(np.full(per_class, s))
    return np.vstack(data), np.concatenate(labels)


class TestHlda:
    def test_matches_lda_under_equal_covariances(self):
        rng = np.random.default_rng(14)
        data, labels = _hlda_classes(rng)
        lda = fit_lda(scatter_matrices(data, labels), 2)
        hlda = fit_hlda([(data, labels)], retained_dim=2, context=0, max_iters=60)
        angles = scipy.linalg.subspace_angles(lda.matrix.T, hlda.matrix.T)
        assert np.max(angles) < 1e-2

    def test_objective_non_decreasing(self):
        rng = np.random.default_rng(15)
        data, labels = _hlda_classes(rng, shared_cov=False)
        hlda = fit_hlda([(data, labels)], retained_dim=3, context=0, max_iters=40)
        obj = np.array(hlda.meta["objective"])
        assert np.all(np.diff(obj) >= -1e-9 * np.maximum(1.0, np.abs(obj[:-1])))
        assert obj[-1] >= obj[0]

    def test_full_rank_objective_is_diagonal_ml(self):
        rng = np.random.default_rng(16)
        data, labels = _hlda_classes(rng, dim=4, per_class=500)
        hlda = fit_hlda([(data, labels)], retained_dim=4, context=0, max_iters=30)
        mat = hlda.meta["full_matrix"]
        # objective recomputed from scratch: K log|det A| - 0.5 sum_s K_s sum_j log var_sj
        total = len(data)
        obj = total * np.linalg.slogdet(mat)[1]
        for s in np.unique(labels):
            chunk = data[labels == s] @ mat.T
            obj -= 0.5 * len(chunk) * np.sum(np.log(chunk.var(axis=0)))
        assert obj == pytest.approx(hlda.meta["objective"][-1], rel=1e-6)

    def test_retained_dim_bound(self):
        rng = np.random.default_rng(17)
        data, labels = _hlda_classes(rng, dim=4, per_class=400)
        with pytest.raises(ValueError, match="exceeds spliced dim"):
            fit_hlda([(data, labels)], retained_dim=5, context=0)

    def test_singular_total_covariance_still_fits(self):
        # a copied column makes the total covariance exactly singular
        rng = np.random.default_rng(0)
        gauss = rng.standard_normal((300, 3))
        data = np.column_stack([gauss, gauss[:, 0]])
        labels = np.repeat([0, 1, 2], 100)
        for context in (0, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                hlda = fit_hlda([(data, labels)], retained_dim=2, context=context, max_iters=20)
            assert np.all(np.isfinite(hlda.matrix))
            assert np.all(np.isfinite(hlda.meta["objective"]))

    def test_rank_one_sweep_matches_oracle(self):
        rng = np.random.default_rng(15)
        data, labels = _hlda_classes(rng, dim=10, per_class=400, shared_cov=False)
        got = fit_hlda([(data, labels)], retained_dim=4, context=1, max_iters=10)
        want = fit_hlda_oracle([(data, labels)], retained_dim=4, context=1, max_iters=10)
        np.testing.assert_allclose(got.meta["objective"], want.meta["objective"], rtol=1e-12)
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-9 * np.abs(
            want.matrix).max())

    def test_class_count_requirement(self):
        data = np.random.default_rng(18).standard_normal((8, 4))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="more frames than"):
            fit_hlda([(data, labels)], retained_dim=2, context=0)


class TestApply:
    def test_identity(self):
        data = np.random.default_rng(19).standard_normal((10, 3))
        t = LinearTransform(np.eye(3), np.zeros(3), context=0)
        np.testing.assert_array_equal(apply_transform(t, data), data)

    def test_splice_edge_replication(self):
        data = np.array([[0.0], [1.0], [2.0]])
        spliced = splice_frames(data, 1)
        np.testing.assert_array_equal(spliced[0], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(spliced[1], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(spliced[2], [1.0, 2.0, 2.0])

    def test_dim_mismatch(self):
        t = LinearTransform(np.eye(3), np.zeros(3), context=0)
        with pytest.raises(ValueError, match="dim"):
            apply_transform(t, np.zeros((4, 2)))

    def test_full_reduction_chain(self):
        # 39 -> 30 (PCA), then splice context 1 -> 90 -> 20 (HLDA)
        rng = np.random.default_rng(20)
        frames = rng.standard_normal((700, 39))
        frames[:350, :3] += 2.0  # two loose classes
        labels = np.repeat([0, 1], 350)
        pca = fit_pca([frames], 30)
        projected = apply_transform(pca, frames)
        hlda = fit_hlda([(projected, labels)], retained_dim=20, context=1, max_iters=3)
        assert hlda.in_dim == 90
        out = apply_chain([pca, hlda], frames)
        assert out.shape == (700, 20)


class TestTransformFile:
    def test_chain_roundtrip(self, tmp_path):
        rng = np.random.default_rng(22)
        chain = [
            LinearTransform(rng.standard_normal((3, 5)), rng.standard_normal(3), 0),
            LinearTransform(rng.standard_normal((2, 9)), rng.standard_normal(2), 1),
        ]
        path = tmp_path / "t.aft"
        write_transform_chain(path, chain)
        back = read_transform_chain(path)
        assert len(back) == 2
        for a, b in zip(chain, back):
            np.testing.assert_array_equal(a.matrix, b.matrix)
            np.testing.assert_array_equal(a.offset, b.offset)
            assert a.context == b.context

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.aft"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(FormatError, match="AFT1"):
            read_transform_chain(path)
