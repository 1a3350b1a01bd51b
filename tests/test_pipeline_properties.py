"""Property tests of the pipeline's canonical utterance order on a small synthetic corpus."""

import shutil
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from accent_forge.pipeline import (  # noqa: E402
    CorpusManifest,
    Workspace,
    generate_synthetic_corpus,
    run_stage,
)
from test_pipeline import _small_cfg, _workspace_digest  # noqa: E402


def _order_cfg():
    cfg = _small_cfg()
    cfg.synth.utterances_per_accent = 8
    cfg.vowels.use_calibrated_threshold = True
    return cfg.validate()


_NUM_UTTS = _order_cfg().synth.num_accents * _order_cfg().synth.utterances_per_accent
_TRAIN = ("vad", "features", "ubm", "adapt", "vowel-models", "weights", "calibrate")


def _train_and_classify(root):
    """The models/ digests, and each mode's prediction rows keyed by audio path."""
    cfg, ws = _order_cfg(), Workspace(root)
    for stage in _TRAIN:
        run_stage(stage, cfg, ws)
    manifest = CorpusManifest.load(ws.manifest_path)
    audio = {ws.utt_id(index, entry): entry.audio
             for index, entry in enumerate(manifest.entries)}
    predictions = {}
    for mode in ("baseline", "vowel"):
        for stage in ("classify", "evaluate"):
            run_stage(stage, cfg, ws, mode=mode)
        text = (ws.root / "reports" / ("predictions_%s.tsv" % mode)).read_text()
        predictions[mode] = [(audio[utt], *rest) for utt, *rest in
                             (line.split("\t") for line in text.splitlines())]
    return _workspace_digest(ws.root / "models"), predictions


@pytest.fixture(scope="module")
def ordered_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ordered") / "ws"
    generate_synthetic_corpus(_order_cfg().synth, root)
    return root, _train_and_classify(root)


@settings(max_examples=6, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.permutations(range(_NUM_UTTS)))
@example(list(range(_NUM_UTTS))[::-1])
def test_shuffled_manifest_gives_the_same_models_and_predictions(ordered_run, order):
    # the stages read utterances by audio path and accents sorted, not in line order
    root, (models, predictions) = ordered_run
    lines = (root / "manifest.tsv").read_text().splitlines(keepends=True)
    assert len(lines) == len(order)
    with tempfile.TemporaryDirectory() as tmp:
        shuffled = Path(tmp) / "ws"
        shutil.copytree(root / "corpus", shuffled / "corpus")
        (shuffled / "manifest.tsv").write_text("".join(lines[i] for i in order))
        shuffled_models, shuffled_predictions = _train_and_classify(shuffled)
    assert shuffled_models == models
    assert shuffled_predictions == predictions
    assert [row[0] for row in predictions["vowel"]] == sorted(row[0] for row in
                                                               predictions["vowel"])
