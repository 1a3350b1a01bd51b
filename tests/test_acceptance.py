"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> ... PASS/FAIL` line (run with
`pytest -s tests/test_acceptance.py` to see them live). The end-to-end
criteria build their own synthetic corpora and drive the real pipeline
stages through run_stage.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import kstest

from accent_forge.adapt import AdaptConfig, map_adapt
from accent_forge.classify import hellinger_gmm
from accent_forge.frontend import feature_warp
from accent_forge.gmm import DiagGmm, accumulate_stats, em_train
from accent_forge.pipeline import (
    PipelineConfig,
    SyntheticSpec,
    Workspace,
    generate_synthetic_corpus,
    run_stage,
)
from accent_forge.signal import FramePlan, remove_silence
from accent_forge.transforms import apply_transform, fit_hlda, fit_pca
from test_signal import synthesize_tone_silence
from test_transforms import fit_lda, scatter_matrices


def _report(num, name, checks):
    """checks: list of (label, bool). Prints the verdict line, then asserts."""
    ok = all(flag for _, flag in checks)
    failed = ", ".join(label for label, flag in checks if not flag)
    print("ACCEPTANCE %02d %-36s %s%s"
          % (num, name, "PASS" if ok else "FAIL", (" [" + failed + "]") if failed else ""))
    assert ok, "criterion %d failed: %s" % (num, failed)


def _pipeline_cfg(spec, ubm_components=8, vowel_components=4, hellinger=4000):
    cfg = PipelineConfig()
    cfg.transforms.enabled = False
    cfg.ubm.components = ubm_components
    cfg.ubm.em_iters = 6
    cfg.ubm.final_em_iters = 10
    cfg.vowels.components = vowel_components
    cfg.vowels.min_frames = 200
    cfg.weights.hellinger_samples = hellinger
    cfg.synth = spec
    cfg.corpus.seed = 13
    return cfg.validate()


def _run_chain(cfg, ws, vowel_mode=False):
    generate_synthetic_corpus(cfg.synth, ws.root)
    stages = ["vad", "features", "ubm", "adapt"]
    if vowel_mode:
        stages += ["vowel-models", "weights"]
    for stage in stages:
        run_stage(stage, cfg, ws)
    results = {}
    for mode in (("baseline", "vowel") if vowel_mode else ("baseline",)):
        run_stage("classify", cfg, ws, mode=mode)
        results[mode] = run_stage("evaluate", cfg, ws, mode=mode)
    return results


def test_c01_em_monotonicity():
    rng = np.random.default_rng(101)
    centers = rng.normal(0.0, 4.0, (6, 5))
    picks = rng.integers(0, 6, 10000)
    frames = centers[picks] + rng.standard_normal((10000, 5))
    start = time.monotonic()
    _, history = em_train(frames, 16, em_iters_per_stage=6, final_em_iters=10,
                          return_history=True)
    elapsed = time.monotonic() - start
    monotone = True
    for stage in history:
        ll = stage["loglik"]
        for before, after in zip(ll, ll[1:]):
            if after < before - 1e-8 * abs(before):
                monotone = False
    _report(1, "EM monotonicity (10k x 5, 16 comps)", [
        ("per-stage log-likelihood non-decreasing @1e-8", monotone),
        ("runtime < 30 s (%.1f s)" % elapsed, elapsed < 30.0),
    ])


def test_c02_map_limit_identities():
    rng = np.random.default_rng(102)
    ubm = DiagGmm(
        np.full(4, 0.25), rng.normal(0, 3, (4, 3)), rng.uniform(0.5, 2.0, (4, 3)),
    )
    frames = rng.normal(0.5, 2.0, (800, 3))

    inf_cfg = AdaptConfig(relevance_weight=math.inf, relevance_mean=math.inf,
                          relevance_var=math.inf)
    frozen = map_adapt(ubm, frames, inf_cfg)
    inf_ok = max(
        np.abs(frozen.weights - ubm.weights).max(),
        np.abs(frozen.means - ubm.means).max(),
        np.abs(frozen.variances - ubm.variances).max(),
    ) < 1e-10

    zero_cfg = AdaptConfig(relevance_mean=0.0, adapt_weights=False, adapt_vars=False)
    moved = map_adapt(ubm, frames, zero_cfg)
    stats = accumulate_stats(ubm, frames)
    occupied = stats.n > 0
    expected = stats.sum_x / np.where(occupied, stats.n, 1.0)[:, None]
    zero_ok = np.array_equal(moved.means[occupied], expected[occupied])

    adapted = map_adapt(ubm, frames, AdaptConfig())
    weights_ok = abs(adapted.weights.sum() - 1.0) < 1e-10

    _report(2, "MAP limit identities", [
        ("relevance->inf reproduces UBM @1e-10", inf_ok),
        ("relevance->0 means equal E_i(x) exactly", zero_ok),
        ("adapted weights sum to 1 @1e-10", weights_ok),
    ])


def test_c03_hellinger_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(20):
        dim = int(rng.integers(1, 4))
        p = DiagGmm([1.0], rng.normal(0, 2, (1, dim)), rng.uniform(0.3, 3, (1, dim)))
        q = DiagGmm([1.0], rng.normal(0, 2, (1, dim)), rng.uniform(0.3, 3, (1, dim)))
        closed = hellinger_gmm(p, q, method="closed_form")
        monte = hellinger_gmm(p, q, num_samples=50000, seed=1000 + i, method="mc")
        worst = max(worst, abs(closed - monte))
    g = DiagGmm(np.full(4, 0.25), rng.normal(0, 3, (4, 3)), rng.uniform(0.5, 2, (4, 3)))
    self_distance = hellinger_gmm(g, g, num_samples=100000, seed=77, method="mc")
    _report(3, "Hellinger Monte-Carlo vs closed form", [
        ("20 draws within 0.01 at 50k samples (worst %.4f)" % worst, worst < 0.01),
        ("H(p,p) < 0.02 at 100k samples (%.4f)" % self_distance, self_distance < 0.02),
    ])


def test_c04_transform_suite():
    start = time.monotonic()
    rng = np.random.default_rng(104)

    data = rng.standard_normal((800, 6)) @ rng.standard_normal((6, 6))
    pca = fit_pca([data], 6)
    ortho = np.abs(pca.matrix @ pca.matrix.T - np.eye(6)).max() < 1e-8

    known = rng.standard_normal((10000, 3)) * np.sqrt([4.0, 1.0, 0.25])
    projected = apply_transform(fit_pca([known], 3), known)
    eig_ok = np.allclose(
        projected.var(axis=0, ddof=1), [4.0, 1.0, 0.25], rtol=0.05
    )

    labels = np.repeat([0, 1, 2], 400)
    spread = rng.standard_normal((1200, 4)) + np.repeat(
        rng.normal(0, 3, (3, 4)), 400, axis=0
    )
    sp = scatter_matrices(spread, labels)
    centered = spread - spread.mean(axis=0)
    total = centered.T @ centered / len(spread)
    scatter_ok = np.abs(sp.s_b + sp.s_w - total).max() < 1e-10

    mixing = rng.standard_normal((8, 8))
    means = np.zeros((3, 8))
    means[:, :2] = rng.standard_normal((3, 2)) * 4
    blocks, labs = [], []
    for s in range(3):
        blocks.append((rng.standard_normal((3000, 8)) + means[s]) @ mixing.T)
        labs.append(np.full(3000, s))
    hdata, hlabels = np.vstack(blocks), np.concatenate(labs)
    lda = fit_lda(scatter_matrices(hdata, hlabels), 2)
    hlda = fit_hlda([(hdata, hlabels)], retained_dim=2, context=0, max_iters=60)
    objective = np.array(hlda.meta["objective"])
    monotone = bool(
        np.all(np.diff(objective) >= -1e-9 * np.maximum(1.0, np.abs(objective[:-1])))
    )
    angles = scipy.linalg.subspace_angles(lda.matrix.T, hlda.matrix.T)
    subspace_ok = float(np.max(angles)) < 1e-2

    elapsed = time.monotonic() - start
    _report(4, "Transform suite", [
        ("PCA rows orthonormal @1e-8", ortho),
        ("eigenvalues of diag(4,1,0.25) within 5%", eig_ok),
        ("S_B + S_W = total scatter @1e-10", scatter_ok),
        ("HLDA objective non-decreasing @1e-9", monotone),
        ("HLDA~LDA principal angles < 1e-2 rad (%.2e)" % np.max(angles), subspace_ok),
        ("runtime < 60 s (%.1f s)" % elapsed, elapsed < 60.0),
    ])


def test_c05_feature_warping():
    rng = np.random.default_rng(105)
    data = rng.gamma(2.0, 1.5, size=(3000, 4))
    warped = feature_warp(data, 301)
    ks = max(kstest(warped[:, d], "norm").statistic for d in range(4))
    transformed = feature_warp(np.expm1(data) * 3.0 + 2.0, 301)
    bitwise = np.array_equal(warped, transformed)
    _report(5, "Feature warping", [
        ("per-dim KS vs normal < 0.05 (max %.4f)" % ks, ks < 0.05),
        ("monotone-transform invariance bitwise", bitwise),
    ])


def test_c06_vad():
    audio, truth = synthesize_tone_silence(
        duration_sec=10.0, speech_fraction=0.7, num_bursts=5, seed=106
    )
    plan = FramePlan.from_ms(audio.sample_rate_hz)
    vad = remove_silence(audio, plan)
    centers = plan.hop_samples * np.arange(len(vad.speech_mask)) + plan.frame_len_samples // 2
    want = np.zeros(len(vad.speech_mask), dtype=bool)
    for s, e in truth:
        want |= (centers >= s) & (centers < e)
    accuracy = float(np.mean(want == vad.speech_mask))
    boundaries_ok = len(vad.segments) == len(truth) and all(
        abs(seg_s - ts / plan.hop_samples) <= 2 and abs(seg_e - te / plan.hop_samples) <= 2
        for (seg_s, seg_e), (ts, te) in zip(vad.segments, truth)
    )
    audio85, _ = synthesize_tone_silence(
        duration_sec=10.0, speech_fraction=0.85, num_bursts=5, seed=107
    )
    ratio = remove_silence(audio85, plan).compression_ratio
    _report(6, "VAD on known tone/silence audio", [
        ("frame accuracy >= 90%% (%.1f%%)" % (100 * accuracy), accuracy >= 0.90),
        ("segment boundaries within +-2 frames", boundaries_ok),
        ("compression on 85%%-speech within +-3 pts (%.1f%%)" % (100 * ratio),
         abs(ratio - 0.85) <= 0.03),
    ])


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_c07_end_to_end_classification(tmp_root):
    start = time.monotonic()
    separable = SyntheticSpec(
        num_accents=7, feature_dim=5, utterances_per_accent=480,
        frames_per_utterance=250, accent_separation=10.0,
        nonvowel_fraction=0.15, seed=2024,
    )
    cfg = _pipeline_cfg(separable, ubm_components=16)
    ws = Workspace(tmp_root / "c7_separable")
    report = _run_chain(cfg, ws)["baseline"]
    elapsed = time.monotonic() - start

    identical = SyntheticSpec(
        num_accents=7, feature_dim=5, utterances_per_accent=480,
        frames_per_utterance=200, accent_separation=0.0,
        nonvowel_fraction=0.15, seed=2025,
    )
    cfg0 = _pipeline_cfg(identical, ubm_components=8)
    ws0 = Workspace(tmp_root / "c7_chance")
    chance = _run_chain(cfg0, ws0)["baseline"]

    _report(7, "End-to-end 7-way classification", [
        ("held-out test utterances >= 500 (%d)" % report.num_utterances,
         report.num_utterances >= 500),
        ("separable accuracy >= 95%% (%.1f%%)" % (100 * report.accuracy),
         report.accuracy >= 0.95),
        ("utterance cap <= 2000 frames", cfg.corpus.max_test_frames <= 2000),
        ("identical generators at chance 1/7 +- 0.05 (%.4f)" % chance.accuracy,
         abs(chance.accuracy - 1.0 / 7) <= 0.05),
        ("separable runtime < 5 min (%.0f s)" % elapsed, elapsed < 300.0),
    ])


def test_c08_vowel_weighted_improvement(tmp_root):
    spec = SyntheticSpec(
        num_accents=7, feature_dim=5, utterances_per_accent=480,
        frames_per_utterance=150, accent_separation=2.0,
        discriminative_vowels=("aa", "er", "ey"), nonvowel_fraction=0.15, seed=808,
    )
    cfg = _pipeline_cfg(spec)
    ws = Workspace(tmp_root / "c8")
    results = _run_chain(cfg, ws, vowel_mode=True)
    base = results["baseline"].accuracy
    vowel = results["vowel"].accuracy
    n_test = results["vowel"].num_utterances
    _report(8, "Vowel-weighted improvement", [
        ("test utterances >= 500 (%d)" % n_test, n_test >= 500),
        ("vowel beats baseline by >= 10 pts (%.1f%% vs %.1f%%)"
         % (100 * vowel, 100 * base), vowel - base >= 0.10),
    ])


def _digest_tree(root):
    digest = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digest


def test_c09_determinism(tmp_root):
    spec = SyntheticSpec(
        num_accents=3, feature_dim=4, utterances_per_accent=10,
        frames_per_utterance=100, accent_separation=3.0, with_confidence=True,
        noise_segment_fraction=0.2, seed=909,
    )

    def build(where):
        cfg = _pipeline_cfg(spec, vowel_components=2)
        cfg.vowels.min_frames = 40
        ws = Workspace(where)
        generate_synthetic_corpus(cfg.synth, ws.root)
        for stage in ("vad", "features", "ubm", "adapt", "vowel-models",
                      "weights", "calibrate"):
            run_stage(stage, cfg, ws)
        for mode in ("baseline", "vowel"):
            run_stage("classify", cfg, ws, mode=mode)
            run_stage("evaluate", cfg, ws, mode=mode)
        return _digest_tree(where)

    first = build(tmp_root / "c9_one")
    second = build(tmp_root / "c9_two")
    identical = first == second
    # and a re-run inside the same workspace rewrites identical bytes
    cfg = _pipeline_cfg(spec, vowel_components=2)
    cfg.vowels.min_frames = 40
    ws = Workspace(tmp_root / "c9_one")
    for stage in ("vad", "features", "ubm", "adapt"):
        run_stage(stage, cfg, ws)
    rerun = _digest_tree(tmp_root / "c9_one") == first
    _report(9, "Stage determinism", [
        ("independent runs byte-identical (%d files)" % len(first), identical),
        ("in-place re-run byte-identical", rerun),
    ])


def test_c10_confidence_calibration(tmp_root):
    spec = SyntheticSpec(
        num_accents=7, feature_dim=5, utterances_per_accent=60,
        frames_per_utterance=150, accent_separation=1.5,
        with_confidence=True, noise_segment_fraction=0.35,
        noise_splits=("dev", "test"), seed=321,
    )
    cfg = _pipeline_cfg(spec)
    cfg.vowels.min_frames = 80
    ws = Workspace(tmp_root / "c10")
    generate_synthetic_corpus(cfg.synth, ws.root)
    for stage in ("vad", "features", "ubm", "adapt", "vowel-models", "weights"):
        run_stage(stage, cfg, ws)
    threshold = run_stage("calibrate", cfg, ws)

    run_stage("classify", cfg, ws, mode="vowel")
    raw = run_stage("evaluate", cfg, ws, mode="vowel").accuracy
    cfg.vowels.use_calibrated_threshold = True
    run_stage("classify", cfg, ws, mode="vowel")
    calibrated = run_stage("evaluate", cfg, ws, mode="vowel").accuracy

    _report(10, "Confidence calibration", [
        ("threshold above noise score mode (%r > %r)"
         % (threshold, spec.noise_confidence_mean),
         threshold > spec.noise_confidence_mean),
        ("accuracy gain >= 3 pts (%.1f%% -> %.1f%%)"
         % (100 * raw, 100 * calibrated), calibrated - raw >= 0.03),
    ])
