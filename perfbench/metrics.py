"""The benchmark's metrics, and which accent_forge functions the traced run times.

Metric names follow <module>.<function>.<unit>: `s` is the summed time in
calls (inclusive of nested traced calls), `self_s` is that time minus the
direct children's, and the other units are counts that repeat exactly for a
given seed. pipeline.<stage> spans come from the benchmark's own calls to
pipeline.run_stage.
"""

from __future__ import annotations

import os

import numpy as np


def _frames_in(args, kwargs, result):
    return {"frames": int(np.asarray(args[0]).shape[0])}


def _vad_frames(args, kwargs, result):
    return {"frames": int(len(result.speech_mask))}


def _archive_bytes(args, kwargs, result):
    return {"bytes": int(os.path.getsize(args[0]))}


def _hlda_iters(args, kwargs, result):
    return {"iters": len(result.meta["objective"]) - 1}


def _density_evals(args, kwargs, result):
    return {"evals": int(result.size)}


def _hellinger_samples(args, kwargs, result):
    p, q = args[0], args[1]
    method = kwargs.get("method", "auto")
    if method == "closed_form" or (method == "auto" and p.num_components == 1
                                   and q.num_components == 1):
        return {"samples": 0}
    return {"samples": int(kwargs.get("num_samples", args[2] if len(args) > 2 else 50000))}


TARGETS = (
    ("signal", "read_wav", None),
    ("signal", "remove_silence", _vad_frames),
    ("frontend", "plp_static", _frames_in),
    ("frontend", "append_deltas", None),
    ("frontend", "mvn", None),
    ("frontend", "feature_warp", None),
    ("frontend", "read_feature_archive", _archive_bytes),
    ("frontend", "write_feature_archive", None),
    ("transforms", "fit_pca", None),
    ("transforms", "fit_hlda", _hlda_iters),
    ("transforms", "apply_chain", None),
    ("gmm", "em_train", None),
    ("gmm", "accumulate_stats", None),
    ("gmm", "loglik", None),
    ("gmm", "frame_logpdf", None),
    ("gmm", "log_component_densities", _density_evals),
    ("gmm", "read_model", None),
    ("gmm", "write_model", None),
    ("adapt", "map_adapt", None),
    ("classify", "pairwise_vowel_distances", None),
    ("classify", "hellinger_gmm", _hellinger_samples),
    ("classify", "classify_baseline", None),
    ("classify", "classify_vowel_weighted", None),
    ("vowels", "pool_vowel_features", None),
    ("vowels", "parse_label_file", None),
    ("vowels", "calibrate_threshold", None),
    ("pipeline", "generate_synthetic_corpus", None),
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_s", "s"),
    ("classify_baseline_utts_per_s", "utt/s"),
    ("classify_vowel_utts_per_s", "utt/s"),
    ("peak_rss_mb", "MB"),
    ("accuracy.baseline", "fraction"),
    ("accuracy.vowel", "fraction"),
)

STAGES = ("vad", "features", "transforms", "ubm", "adapt", "vowel-models",
          "weights", "calibrate", "classify", "evaluate")

# (name, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    [("%s.%s.s" % (m, f), "s") for m, f, _ in TARGETS]
    + [("signal.remove_silence.frames", "count"),
       ("frontend.plp_static.frames", "count"),
       ("frontend.read_feature_archive.bytes", "bytes"),
       ("transforms.fit_hlda.iters", "count"),
       ("gmm.log_component_densities.evals", "count"),
       ("classify.hellinger_gmm.samples", "count"),
       ("vowels.calibrate_threshold.useful_ratio", "ratio")]
    + [("pipeline.%s.%s" % (s, u), "s") for s in STAGES for u in ("s", "self_s")]
    + [("pipeline.bytes_hashed", "bytes")]
)


def _counting_calibrate(recorder, original):
    """calibrate_threshold that also counts dev utterances and classifier calls."""

    def calibrate(dev_corpus, grid, classify):
        dev_corpus = list(dev_corpus)
        calls = [0]

        def counting(feats, segments):
            calls[0] += 1
            return classify(feats, segments)

        result = original(dev_corpus, grid, counting)
        recorder.count("vowels.calibrate_threshold.dev_utts", len(dev_corpus))
        recorder.count("vowels.calibrate_threshold.calls", calls[0])
        return result

    return calibrate


def install_wrappers(recorder):
    from accent_forge import vowels

    original = vowels.calibrate_threshold
    recorder.replace("accent_forge", original, _counting_calibrate(recorder, original))
    return recorder.install("accent_forge", TARGETS)


def layer_metrics(recorder, bytes_hashed):
    totals = recorder.totals()
    counts = dict(recorder.counts, **{"pipeline.bytes_hashed": bytes_hashed})
    calls = counts.get("vowels.calibrate_threshold.calls", 0)
    if calls:
        counts["vowels.calibrate_threshold.useful_ratio"] = (
            counts["vowels.calibrate_threshold.dev_utts"] / calls)
    values = {}
    for name, unit in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("s", "self_s"):
            inclusive, exclusive, _ = totals.get(span, (0.0, 0.0, 0))
            values[name] = inclusive if kind == "s" else exclusive
        else:
            values[name] = counts.get(name, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
