"""End-to-end orchestration: manifests, config, synthetic corpora, stages.

A workspace directory holds everything a run produces:

    manifest.tsv                 corpus entries (+ split column)
    corpus/                      synthetic feature archives / label files
    features/vad|feat|reduced/   per-utterance stage artifacts
    models/                      transforms, UBM, accent + vowel models, weights
    reports/                     predictions, evaluation, provenance

Stages are idempotent: re-running one with unchanged inputs rewrites
byte-identical artifacts, and every stage records a provenance document
with its config hash and input/output hashes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import signal as sig
from .adapt import AdaptConfig, map_adapt
from .classify import (
    AccentModelSet,
    classify_baseline,
    classify_vowel_thresholds,
    confusion_report,
    pairwise_vowel_distances,
    vowel_discriminativeness,
    vowel_weights,
)
from .errors import ConfigError, MissingPrerequisiteError
from .frontend import (
    FeatureMatrix,
    FrontendConfig,
    append_deltas,
    feature_warp,
    mvn,
    plp_static,
    read_feature_archive,
    write_feature_archive,
)
from .gmm import em_train, read_model, write_model
from .transforms import (
    apply_chain,
    apply_transform,
    fit_hlda,
    fit_pca,
    write_transform_chain,
)
from .vowels import (
    ARPABET_VOWELS,
    NUM_VOWELS,
    VOWEL_INDEX,
    PhoneSegment,
    calibrate_threshold,
    check_segment_ends,
    parse_label_file,
    pool_vowel_features,
    segment_frames,
    vowel_popularity,
    write_label_file,
)

# vowels ordered by typical corpus frequency; drives the default popularity
_DEFAULT_FREQUENCY_ORDER = (
    "ah", "ih", "iy", "eh", "ae", "aa", "er", "ey",
    "ow", "uw", "ay", "ao", "aw", "uh", "oy",
)


# ---------------------------------------------------------------------------
# corpus manifest


@dataclass
class ManifestEntry:
    audio: str
    label: str | None
    accent: str
    split: str | None = None


@dataclass
class CorpusManifest:
    entries: list
    base_dir: Path
    seed: int | None = None

    def resolve(self, raw):
        p = Path(raw)
        return p if p.is_absolute() else self.base_dir / p

    def accents(self):
        return sorted({entry.accent for entry in self.entries})

    def with_split(self, split):
        return [(i, e) for i, e in enumerate(self.entries) if e.split == split]

    def save(self, path):
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self.entries:
                cols = [entry.audio, entry.label or "-", entry.accent]
                if entry.split is not None:
                    cols.append(entry.split)
                handle.write("\t".join(cols) + "\n")

    @classmethod
    def load(cls, path):
        path = Path(path)
        entries = []
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                cols = line.rstrip("\n").split("\t")
                if len(cols) not in (3, 4):
                    raise ConfigError(
                        "%s:%d: manifest lines need 3 or 4 tab-separated columns"
                        % (path, lineno)
                    )
                label = None if cols[1] in ("-", "") else cols[1]
                split = cols[3] if len(cols) == 4 else None
                if split is not None and split not in ("train", "dev", "test"):
                    raise ConfigError("%s:%d: unknown split %r" % (path, lineno, split))
                entries.append(ManifestEntry(cols[0], label, cols[2], split))
        return cls(entries=entries, base_dir=path.parent)


def split_corpus(manifest, seed):
    """Stratified 70:15:15 split per accent (shuffle governed by the seed)."""
    rng = np.random.default_rng(seed)
    entries = [replace(e) for e in manifest.entries]
    for accent in manifest.accents():
        idx = [i for i, e in enumerate(entries) if e.accent == accent]
        n = len(idx)
        if n < 7:
            raise ValueError(
                "accent %r has %d utterances; at least 7 are needed to split" % (accent, n)
            )
        n_train = int(n * 0.70 + 0.5)
        n_dev = int(n * 0.15 + 0.5)
        for pos, which in enumerate(rng.permutation(n)):
            if pos < n_train:
                entries[idx[which]].split = "train"
            elif pos < n_train + n_dev:
                entries[idx[which]].split = "dev"
            else:
                entries[idx[which]].split = "test"
    return CorpusManifest(entries=entries, base_dir=manifest.base_dir, seed=seed)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class SignalConfig:
    frame_ms: float = 25.0
    hop_ms: float = 10.0
    energy_weight: float = sig.DEFAULT_ENERGY_WEIGHT
    centroid_weight: float = sig.DEFAULT_CENTROID_WEIGHT
    min_segment_frames: int = sig.DEFAULT_MIN_SEGMENT_FRAMES


@dataclass
class TransformsConfig:
    enabled: bool = True
    pca_dim: int = 30
    hlda_dim: int = 20
    context: int = 1
    max_iters: int = 100
    tol: float = 1e-6


@dataclass
class UbmConfig:
    components: int = 256
    em_iters: int = 5
    final_em_iters: int = 10


@dataclass
class VowelModelConfig:
    components: int = 32
    min_frames: int = 200
    confidence_threshold: float = float("-inf")
    use_calibrated_threshold: bool = False


@dataclass
class WeightsConfig:
    mode: str = "mean_distance"
    hellinger_samples: int = 50000
    hellinger_seed: int = 77


@dataclass
class CalibrateConfig:
    grid: tuple[float, ...] = (float("-inf"), -80.0, -70.0, -60.0, -50.0, -40.0, -30.0, -20.0)


@dataclass
class CorpusConfig:
    seed: int = 12345
    max_test_frames: int = 2000


@dataclass
class SyntheticSpec:
    """Generator for a desk-scale corpus of per-accent, per-vowel mixtures."""

    num_accents: int = 7
    feature_dim: int = 5
    utterances_per_accent: int = 30
    frames_per_utterance: int = 300
    segment_frames_min: int = 10
    segment_frames_max: int = 30
    vowel_popularity: tuple[float, ...] = ()
    accent_separation: float = 3.0
    discriminative_vowels: tuple[str, ...] = ()
    nonvowel_fraction: float = 0.15
    noise_segment_fraction: float = 0.0
    noise_splits: tuple[str, ...] = ("dev", "test")
    with_confidence: bool = False
    clean_confidence_mean: float = -20.0
    clean_confidence_std: float = 3.0
    noise_confidence_mean: float = -80.0
    noise_confidence_std: float = 3.0
    noise_floor: float = 0.05
    frame_hop_sec: float = 0.01
    seed: int = 4242

    def popularity(self):
        if self.vowel_popularity:
            profile = np.asarray(self.vowel_popularity, dtype=np.float64)
            if profile.shape != (NUM_VOWELS,):
                raise ConfigError("vowel popularity needs %d entries" % NUM_VOWELS)
            if np.any(profile < 0) or profile.sum() <= 0:
                raise ConfigError("vowel popularity must be non-negative and sum > 0")
            return profile / profile.sum()
        ranked = 0.82 ** np.arange(NUM_VOWELS)
        profile = np.zeros(NUM_VOWELS)
        for rank, vowel in enumerate(_DEFAULT_FREQUENCY_ORDER):
            profile[ARPABET_VOWELS.index(vowel)] = ranked[rank]
        return profile / profile.sum()


@dataclass
class PipelineConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    signal: SignalConfig = field(default_factory=SignalConfig)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    transforms: TransformsConfig = field(default_factory=TransformsConfig)
    ubm: UbmConfig = field(default_factory=UbmConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    vowels: VowelModelConfig = field(default_factory=VowelModelConfig)
    weights: WeightsConfig = field(default_factory=WeightsConfig)
    calibrate: CalibrateConfig = field(default_factory=CalibrateConfig)
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)

    def validate(self):
        # a config file sets fields after construction, so re-run the sections' own checks
        for section in dataclasses.fields(self):
            part = getattr(self, section.name)
            if hasattr(part, "__post_init__"):
                try:
                    part.__post_init__()
                except ValueError as exc:
                    raise ConfigError("%s: %s" % (section.name, exc)) from exc
        if self.corpus.max_test_frames < 1:
            raise ConfigError("corpus.max_test_frames must be at least 1")
        for key, seed in (("corpus.seed", self.corpus.seed), ("synth.seed", self.synth.seed),
                          ("weights.hellinger_seed", self.weights.hellinger_seed)):
            if seed < 0:  # numpy's generators take no negative seed
                raise ConfigError("%s must be non-negative, got %d" % (key, seed))
        static_dim = 3 * self.frontend.num_ceps
        t = self.transforms
        if t.enabled:
            if t.pca_dim > static_dim:
                raise ConfigError(
                    "dimension chain broken: PCA dim %d exceeds frontend dim %d"
                    % (t.pca_dim, static_dim)
                )
            spliced = t.pca_dim * (2 * t.context + 1)
            if t.hlda_dim > spliced:
                raise ConfigError(
                    "dimension chain broken: HLDA dim %d exceeds spliced dim %d"
                    % (t.hlda_dim, spliced)
                )
            if t.context < 0:
                raise ConfigError("context must be non-negative")
        for name, count in (("ubm", self.ubm.components), ("vowels", self.vowels.components)):
            if count < 1 or count & (count - 1):
                raise ConfigError("%s.components must be a power of 2, got %d" % (name, count))
        if not (self.signal.energy_weight > 0 and self.signal.centroid_weight > 0):
            raise ConfigError(
                "signal.energy_weight and signal.centroid_weight must be positive")
        if self.weights.mode not in ("mean_distance", "reciprocal_mean"):
            raise ConfigError("weights.mode must be mean_distance or reciprocal_mean")
        if self.weights.hellinger_samples < 1000:
            raise ConfigError("weights.hellinger_samples must be at least 1000, got %d"
                              % self.weights.hellinger_samples)
        # a NaN threshold keeps no scored segment, and sorting leaves it mid-grid
        if np.isnan([*self.calibrate.grid, self.vowels.confidence_threshold]).any():
            raise ConfigError("calibrate.grid and vowels.confidence_threshold must not be NaN")
        if self.synth.vowel_popularity:
            self.synth.popularity()
        return self

    def feature_tag(self, direct_dim=None):
        if self.transforms.enabled:
            return "PCA/HLDA_C%d_%d" % (self.transforms.context, self.transforms.hlda_dim)
        if direct_dim is not None:
            return "DIRECT_%d" % direct_dim
        return "PLP_MVN_%d" % (3 * self.frontend.num_ceps)


# config file keys are "<section>.<field>" over PipelineConfig's sections, except:
_KEY_ALIASES = {
    "frontend.warp_window_frames": "frontend.warp_window",
    "adapt.adapt_weights": "adapt.weights",
    "adapt.adapt_means": "adapt.means",
    "adapt.adapt_vars": "adapt.vars",
}
_NOT_IN_CONFIG = ("synth.frame_hop_sec",)
_TUPLE_KINDS = {"tuple[float, ...]": "floats", "tuple[str, ...]": "strs"}


def _config_keys():
    """(key, section, attr, kind) for every config file key, in file order."""
    keys = []
    for section in dataclasses.fields(PipelineConfig):
        for f in dataclasses.fields(section.default_factory):
            name = "%s.%s" % (section.name, f.name)
            if name not in _NOT_IN_CONFIG:
                keys.append((_KEY_ALIASES.get(name, name), section.name, f.name,
                             _TUPLE_KINDS.get(f.type, f.type)))
    return tuple(keys)


_CONFIG_KEYS = _config_keys()


def _format_value(value, kind):
    if kind == "bool":
        return "true" if value else "false"
    if kind in ("floats", "strs"):
        return ",".join(_format_value(v, kind[:-1]) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def _parse_value(text, kind, key):
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            if text.lower() in ("true", "yes", "1"):
                return True
            if text.lower() in ("false", "no", "0"):
                return False
            raise ValueError(text)
        if kind == "floats":
            return tuple(float(v) for v in text.split(",") if v.strip()) if text else ()
        if kind == "strs":
            return tuple(v.strip() for v in text.split(",") if v.strip()) if text else ()
        return text
    except ValueError as exc:
        raise ConfigError("cannot parse %s value %r as %s" % (key, text, kind)) from exc


def config_to_text(cfg):
    lines = ["# accent-forge pipeline configuration"]
    section = None
    for key, sec, attr, kind in _CONFIG_KEYS:
        if sec != section:
            lines.append("")
            section = sec
        lines.append("%s = %s" % (key, _format_value(getattr(getattr(cfg, sec), attr), kind)))
    return "\n".join(lines) + "\n"


def config_from_text(text):
    cfg = PipelineConfig()
    table = {key: (sec, attr, kind) for key, sec, attr, kind in _CONFIG_KEYS}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, line))
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in table:
            raise ConfigError("line %d: unknown config key %r" % (lineno, key))
        sec, attr, kind = table[key]
        setattr(getattr(cfg, sec), attr, _parse_value(value, kind, key))
    return cfg.validate()


def load_config(path=None):
    if path is None:
        return PipelineConfig().validate()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    return config_from_text(text)


# ---------------------------------------------------------------------------
# synthetic corpus


def generate_synthetic_corpus(spec, out_dir):
    """Emit per-utterance feature archives, label files, and a split manifest.

    Accent identity lives in per-vowel mean offsets (only for the configured
    discriminative vowels, or all of them when unset). Noise segments mimic
    recognition errors: their frames come from a wrong accent's distribution
    and they carry low confidence scores. Ground-truth generator parameters
    go to truth.json for oracle checks. Fully deterministic per seed.
    """
    out_dir = Path(out_dir)
    (out_dir / "corpus").mkdir(parents=True, exist_ok=True)
    if spec.segment_frames_min < 1 or spec.segment_frames_max < spec.segment_frames_min:
        raise ConfigError("invalid segment frame bounds")
    if spec.num_accents < 2:
        raise ConfigError("need at least 2 accents")
    popularity = spec.popularity()
    dim = spec.feature_dim
    accents = ["accent%d" % (i + 1) for i in range(spec.num_accents)]

    seed_seq = np.random.SeedSequence(spec.seed)
    children = seed_seq.spawn(spec.num_accents * spec.utterances_per_accent + 1)
    rng = np.random.default_rng(children[0])

    base_means = rng.normal(0.0, 2.0, size=(NUM_VOWELS, dim))
    consonant_mean = rng.normal(0.0, 2.0, size=dim)
    if spec.discriminative_vowels:
        disc = np.zeros(NUM_VOWELS, dtype=bool)
        for vowel in spec.discriminative_vowels:
            if vowel not in ARPABET_VOWELS:
                raise ConfigError("unknown vowel %r in discriminative set" % vowel)
            disc[ARPABET_VOWELS.index(vowel)] = True
    else:
        disc = np.ones(NUM_VOWELS, dtype=bool)
    offsets = np.zeros((spec.num_accents, NUM_VOWELS, dim))
    for s in range(spec.num_accents):
        for t in range(NUM_VOWELS):
            if disc[t]:
                direction = rng.normal(size=dim)
                direction /= np.linalg.norm(direction)
                offsets[s, t] = spec.accent_separation * direction

    entries = []
    for accent in accents:
        for j in range(spec.utterances_per_accent):
            stem = "%s_%04d" % (accent, j)
            entries.append(
                ManifestEntry("corpus/%s.aff" % stem, "corpus/%s.lab" % stem, accent)
            )
    manifest = split_corpus(
        CorpusManifest(entries=entries, base_dir=out_dir), seed=spec.seed
    )

    hop = spec.frame_hop_sec
    for index, entry in enumerate(manifest.entries):
        utt_rng = np.random.default_rng(children[index + 1])
        accent_idx = accents.index(entry.accent)
        noisy_split = (
            spec.noise_segment_fraction > 0 and entry.split in spec.noise_splits
        )
        rows = []
        tags = []
        segments = []
        frame_cursor = 0
        while frame_cursor < spec.frames_per_utterance:
            length = int(utt_rng.integers(spec.segment_frames_min,
                                          spec.segment_frames_max + 1))
            length = min(length, spec.frames_per_utterance - frame_cursor)
            draw = utt_rng.random()
            is_noise = noisy_split and draw < spec.noise_segment_fraction
            is_filler = (not is_noise) and utt_rng.random() < spec.nonvowel_fraction
            if is_filler:
                mean, label, tag = consonant_mean, "sil", 0
            else:
                vowel_idx = int(utt_rng.choice(NUM_VOWELS, p=popularity))
                label, tag = ARPABET_VOWELS[vowel_idx], vowel_idx + 1
                source = accent_idx
                if is_noise:  # its frames come from another accent
                    source = int(utt_rng.integers(spec.num_accents - 1))
                    if source >= accent_idx:
                        source += 1
                mean = base_means[vowel_idx] + offsets[source, vowel_idx]
            confidence = None
            if is_noise:
                confidence = float(utt_rng.normal(spec.noise_confidence_mean,
                                                  spec.noise_confidence_std))
            elif spec.with_confidence:
                confidence = float(utt_rng.normal(spec.clean_confidence_mean,
                                                  spec.clean_confidence_std))
            chunk = mean + utt_rng.standard_normal((length, dim))
            if spec.noise_floor > 0:
                chunk = chunk + spec.noise_floor * utt_rng.standard_normal((length, dim))
            rows.append(chunk)
            tags.extend([tag] * length)
            segments.append(
                PhoneSegment(
                    start_sec=frame_cursor * hop,
                    end_sec=(frame_cursor + length) * hop,
                    label=label,
                    confidence=confidence,
                )
            )
            frame_cursor += length
        feats = FeatureMatrix(np.vstack(rows), hop, np.asarray(tags, dtype=np.uint8))
        write_feature_archive(manifest.resolve(entry.audio), feats)
        write_label_file(manifest.resolve(entry.label), segments)

    manifest.save(out_dir / "manifest.tsv")
    truth = {
        "accents": accents,
        "base_means": base_means.tolist(),
        "offsets": offsets.tolist(),
        "consonant_mean": consonant_mean.tolist(),
        "popularity": popularity.tolist(),
        "discriminative": [ARPABET_VOWELS[i] for i in np.nonzero(disc)[0]],
        "spec": dataclasses.asdict(spec),
    }
    _write_json(out_dir / "truth.json", truth)
    return manifest


# ---------------------------------------------------------------------------
# workspace and provenance


class Workspace:
    def __init__(self, root):
        self.root = Path(root)

    @property
    def manifest_path(self):
        return self.root / "manifest.tsv"

    def dir(self, name):
        path = self.root / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def utt_id(self, index, entry):
        return "%05d_%s" % (index, Path(entry.audio).stem)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _relname(ws, path):
    try:
        return str(Path(path).relative_to(ws.root))
    except ValueError:
        return str(path)


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require(path, stage):
    if not Path(path).exists():
        raise MissingPrerequisiteError(
            "missing %s; run stage '%s' first" % (path, stage)
        )
    return Path(path)


class StageRun:
    """One stage's access to the workspace, recorded for its provenance.

    Files read through input, require, manifest, utterances, features and
    labels are the stage's provenance inputs; paths passed through output
    are its outputs.
    """

    def __init__(self, cfg, ws, mode):
        self.cfg = cfg
        self.ws = ws
        self.mode = mode
        self.inputs = []
        self.outputs = []

    def input(self, path):
        self.inputs.append(path)
        return path

    def output(self, path):
        self.outputs.append(path)
        return path

    def require(self, path, stage):
        return self.input(_require(path, stage))

    def manifest(self, need_split=True):
        manifest = CorpusManifest.load(self.require(self.ws.manifest_path, "split (or synth)"))
        if need_split and any(e.split is None for e in manifest.entries):
            raise MissingPrerequisiteError(
                "manifest %s has no split column; run 'split' first" % self.ws.manifest_path
            )
        return manifest

    def utterances(self, split=None):
        """(utt id, entry) of every manifest entry, or of a split, which must not be empty.

        The pairs are sorted by audio path (a stable sort), so no artifact
        depends on the manifest's line order; the utt ids keep the manifest
        index. The train split must also hold at least one utterance of every
        accent.
        """
        manifest = self.manifest(need_split=split is not None)
        utts = sorted(((self.ws.utt_id(index, entry), entry)
                       for index, entry in enumerate(manifest.entries)
                       if split is None or entry.split == split),
                      key=lambda pair: pair[1].audio)
        if split is not None and not utts:
            raise MissingPrerequisiteError("no %s utterances; run 'split' first" % split)
        untrained = set(manifest.accents()) - {entry.accent for _, entry in utts}
        if split == "train" and untrained:
            raise MissingPrerequisiteError("no train utterances of accent %s; every accent "
                                           "needs one" % ", ".join(sorted(untrained)))
        return utts

    def features(self, utt, reduced=True):
        """The utterance's archive, after the transforms when they are enabled."""
        reduced = reduced and self.cfg.transforms.enabled
        path = self.ws.root / "features" / ("reduced" if reduced else "feat") / (utt + ".aff")
        return read_feature_archive(self.require(path, "transforms" if reduced else "features"))

    def labels(self, utt):
        """The utterance's labels on the feature timeline; None without a label file."""
        path = self.ws.root / "features/feat" / (utt + ".lab")
        return parse_label_file(self.input(path)) if path.exists() else None

    def write_provenance(self, stage):
        _write_json(self.ws.dir("reports/provenance") / ("%s.json" % stage), {
            "stage": stage,
            "config_sha256": hashlib.sha256(config_to_text(self.cfg).encode()).hexdigest(),
            "inputs": {_relname(self.ws, p): _sha256(p)
                       for p in sorted(set(map(str, self.inputs)))},
            "outputs": {_relname(self.ws, p): _sha256(p)
                        for p in sorted(set(map(str, self.outputs)))},
        })


# ---------------------------------------------------------------------------
# stages


def _frame_plan(cfg, sample_rate_hz):
    return sig.FramePlan.from_ms(sample_rate_hz, cfg.signal.frame_ms, cfg.signal.hop_ms)


def stage_vad(run):
    """Silence removal for audio entries; duration bookkeeping for all."""
    cfg, ws = run.cfg, run.ws
    manifest = run.manifest(need_split=False)
    vad_dir = ws.dir("features/vad")
    for utt, entry in run.utterances():
        src = run.require(manifest.resolve(entry.audio), "synth (corpus file missing)")
        if src.suffix == ".aff":
            feats = read_feature_archive(src)
            duration = feats.num_frames * feats.frame_hop_sec
            meta = {
                "kind": "features",
                "frames": feats.num_frames,
                "segments_frames": [[0, feats.num_frames]],
                "duration_before_sec": duration,
                "duration_after_sec": duration,
                "compression_ratio": 1.0,
            }
        else:
            audio = sig.read_wav(src)
            plan = _frame_plan(cfg, audio.sample_rate_hz)
            vad = sig.remove_silence(
                audio,
                plan,
                energy_weight=cfg.signal.energy_weight,
                centroid_weight=cfg.signal.centroid_weight,
                min_segment_frames=cfg.signal.min_segment_frames,
            )
            run.output(vad_dir / (utt + ".seg")).write_text(
                sig.segments_to_text(vad.segments, plan, audio.sample_rate_hz),
                encoding="utf-8",
            )
            ranges = [plan.sample_range(s, e) for s, e in vad.segments]
            retained = sum(end - start for start, end in ranges)
            meta = {
                "kind": "audio",
                "sample_rate_hz": audio.sample_rate_hz,
                "frames": int(len(vad.speech_mask)),
                "segments_frames": [[int(s), int(e)] for s, e in vad.segments],
                "duration_before_sec": audio.duration_sec,
                "duration_after_sec": retained / audio.sample_rate_hz,
                "compression_ratio": vad.compression_ratio,
                "energy_threshold": vad.energy_threshold,
                "centroid_threshold": vad.centroid_threshold,
            }
        _write_json(run.output(vad_dir / (utt + ".json")), meta)


def _tag_frames(segments, times_sec, hop_sec):
    """Per-frame vowel tags and the label segments remapped onto the frames.

    Frame k belongs to the segment with start <= times_sec[k] < end. Its tag
    is that segment's vowel index + 1, or 0 outside vowels. Each run of
    frames in one segment becomes a segment of the remapped timeline, with
    frame k spanning [k * hop_sec, (k + 1) * hop_sec). times_sec ascends, and
    label segments never overlap, so each frame has at most one owner.
    """
    owner = np.full(len(times_sec), -1)
    for index, (lo, hi) in enumerate(segment_frames(segments, times_sec).tolist()):
        owner[lo:hi] = index
    codes = [VOWEL_INDEX[s.label] + 1 if s.is_vowel else 0 for s in segments]
    tags = np.append(codes, 0).astype(np.uint8)[owner]
    bounds = (np.flatnonzero(np.diff(owner)) + 1).tolist()
    remapped = [
        PhoneSegment(start * hop_sec, stop * hop_sec, segments[owner[start]].label,
                     segments[owner[start]].confidence)
        for start, stop in zip([0] + bounds, bounds + [len(owner)])
        if owner[start] >= 0
    ]
    return tags, remapped


def stage_features(run):
    """Frontend features per utterance (audio), or verbatim copy (archives).

    Audio entries are framed once, and the frames of the VAD segments are
    kept (so no window straddles a removed gap); each kept frame is tagged
    with its vowel by original-time membership, and a label file remapped
    onto the trimmed timeline is written next to the archive.
    """
    cfg, ws = run.cfg, run.ws
    manifest = run.manifest(need_split=False)
    vad_dir = ws.root / "features/vad"
    feat_dir = ws.dir("features/feat")
    for utt, entry in run.utterances():
        src = run.input(manifest.resolve(entry.audio))
        meta_path = run.require(vad_dir / (utt + ".json"), "vad")
        lab_src = run.input(manifest.resolve(entry.label)) if entry.label else None
        out_aff = run.output(feat_dir / (utt + ".aff"))
        out_lab = feat_dir / (utt + ".lab")
        if src.suffix == ".aff":
            read_feature_archive(src)  # validates magic and shape
            shutil.copyfile(src, out_aff)
            if lab_src is not None:
                shutil.copyfile(lab_src, run.output(out_lab))
            continue

        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        audio = sig.read_wav(src)
        plan = _frame_plan(cfg, audio.sample_rate_hz)
        hop_sec = plan.hop_samples / audio.sample_rate_hz
        label_segments = None if lab_src is None else parse_label_file(lab_src)

        frames = sig.frame_signal(audio.samples, plan)
        if len(frames) != meta["frames"]:
            raise ValueError("utterance %s: its VAD record has %d frames, its wav %d; "
                             "re-run 'vad'" % (utt, meta["frames"], len(frames)))
        if not meta["segments_frames"]:
            raise ValueError("utterance %s has no speech frames after VAD" % utt)
        kept = np.concatenate([np.arange(s, e) for s, e in meta["segments_frames"]])
        frames = frames[kept]
        centers_sec = (kept * plan.hop_samples + plan.frame_len_samples / 2) / audio.sample_rate_hz
        min_frames = max(2 * cfg.frontend.delta_window + 1, 2)
        if frames.shape[0] < min_frames:
            raise ValueError(
                "utterance %s has %d speech frames; need at least %d"
                % (utt, frames.shape[0], min_frames)
            )

        feats = plp_static(frames, audio.sample_rate_hz, cfg.frontend)
        feats = append_deltas(feats, cfg.frontend.delta_window)
        if cfg.frontend.mvn_before_warp:
            feats, _ = mvn(feats)
            feats = feature_warp(feats, cfg.frontend.warp_window_frames)
        else:
            feats = feature_warp(feats, cfg.frontend.warp_window_frames)
            feats, _ = mvn(feats)

        tags = None
        if label_segments is not None:
            tags, remapped = _tag_frames(label_segments, centers_sec, hop_sec)
            write_label_file(run.output(out_lab), remapped)
        write_feature_archive(out_aff, FeatureMatrix(feats, hop_sec, tags))


def stage_transforms(run):
    """Fit PCA then HLDA on the train split; write reduced archives for all.

    The fits read only accumulated statistics, so the stage holds one
    utterance at a time and reads each train archive three times: for the
    PCA statistics, for the HLDA statistics and to apply the chain. A
    reduced archive keeps its source archive's frame hop and tags.
    """
    cfg, ws = run.cfg, run.ws
    if not cfg.transforms.enabled:
        return
    accents = run.manifest().accents()
    train = run.utterances("train")

    def train_feats():
        for utt, entry in train:
            yield run.features(utt, reduced=False).data, accents.index(entry.accent)

    pca = fit_pca((feats for feats, _ in train_feats()), cfg.transforms.pca_dim)
    hlda = fit_hlda(
        ((apply_transform(pca, feats), accent) for feats, accent in train_feats()),
        retained_dim=cfg.transforms.hlda_dim,
        context=cfg.transforms.context,
        max_iters=cfg.transforms.max_iters,
        tol=cfg.transforms.tol,
    )
    write_transform_chain(run.output(ws.dir("models") / "transforms.aft"), [pca, hlda])

    reduced_dir = ws.dir("features/reduced")
    for utt, _ in run.utterances():
        feats = run.features(utt, reduced=False)
        reduced = replace(feats, data=apply_chain([pca, hlda], feats.data))
        write_feature_archive(run.output(reduced_dir / (utt + ".aff")), reduced)


def stage_ubm(run):
    """EM-train the universal background model on the pooled train split."""
    cfg, ws = run.cfg, run.ws
    blocks = [run.features(utt).data for utt, _ in run.utterances("train")]
    frames = np.vstack(blocks)
    del blocks  # EM holds one copy of the training frames, not two
    model = em_train(
        frames,
        cfg.ubm.components,
        em_iters_per_stage=cfg.ubm.em_iters,
        final_em_iters=cfg.ubm.final_em_iters,
        label="ubm",
    )
    write_model(run.output(ws.dir("models") / "ubm.agm"), model)


def stage_adapt(run):
    """MAP-adapt one model per accent from the UBM, stacking one accent's frames at a time.

    Fewer than 2 accents, or an accent without frames, raises before any model is written.
    """
    cfg, ws = run.cfg, run.ws
    ubm = read_model(run.require(ws.root / "models/ubm.agm", "ubm"))
    accents = run.manifest().accents()
    if len(accents) < 2:
        raise ValueError("need at least 2 accents to adapt, got %d" % len(accents))
    per_accent = {accent: [] for accent in accents}
    for utt, entry in run.utterances("train"):
        per_accent[entry.accent].append(run.features(utt).data)
    for accent, blocks in per_accent.items():
        if not sum(len(block) for block in blocks):
            raise ValueError("accent %r has no adaptation frames" % accent)
    accents_dir = ws.dir("models/accents")
    for accent in accents:
        model = map_adapt(ubm, np.vstack(per_accent.pop(accent)), cfg.adapt)
        write_model(run.output(accents_dir / (accent + ".agm")), replace(model, label=accent))
    _write_json(run.output(ws.dir("models") / "accent_set.json"),
                {"accents": accents, "dim": ubm.dim, "components": ubm.num_components})


def stage_vowel_models(run):
    """Per-vowel UBMs (pooled accents) adapted into the vowel/accent grid."""
    cfg, ws = run.cfg, run.ws
    accents = run.manifest().accents()
    pooled = {v: {} for v in ARPABET_VOWELS}  # vowel -> accent -> train frame blocks
    counts = {v: 0 for v in ARPABET_VOWELS}
    for utt, entry in run.utterances("train"):
        feats = run.features(utt)
        segments = run.labels(utt)
        if segments is None:
            continue
        try:
            by_vowel = pool_vowel_features(feats, segments)
        except ValueError as exc:
            raise ValueError("utterance %s: %s" % (utt, exc)) from None
        for vowel, frames in by_vowel.items():
            if len(frames):
                pooled[vowel].setdefault(entry.accent, []).append(frames)
                counts[vowel] += len(frames)
    vowel_dir = ws.dir("models/vowels")
    included = []
    for vowel in ARPABET_VOWELS:
        blocks = pooled[vowel]
        if counts[vowel] < max(cfg.vowels.min_frames, 2 * cfg.vowels.components):
            continue
        vowel_ubm = em_train(
            np.vstack([b for group in blocks.values() for b in group]),
            cfg.vowels.components,
            em_iters_per_stage=cfg.ubm.em_iters,
            final_em_iters=cfg.ubm.final_em_iters,
            label="ubm.%s" % vowel,
        )
        write_model(run.output(vowel_dir / ("%s.ubm.agm" % vowel)), vowel_ubm)
        for accent in accents:
            model = vowel_ubm
            if accent in blocks:
                model = map_adapt(vowel_ubm, np.vstack(blocks[accent]), cfg.adapt)
            write_model(run.output(vowel_dir / ("%s.%s.agm" % (vowel, accent))),
                        replace(model, label="%s.%s" % (accent, vowel)))
        included.append(vowel)
    _write_json(run.output(ws.dir("models") / "vowel_set.json"), {
        "accents": accents,
        "included_vowels": included,
        "train_frame_counts": {v: int(counts[v]) for v in ARPABET_VOWELS},
    })


def _load_vowel_grid(ws, require):
    set_path = require(ws.root / "models/vowel_set.json", "vowel-models")
    doc = json.loads(set_path.read_text(encoding="utf-8"))
    vowel_dir = ws.root / "models/vowels"
    grid = {
        vowel: [
            read_model(require(vowel_dir / ("%s.%s.agm" % (vowel, accent)), "vowel-models"))
            for accent in doc["accents"]
        ]
        for vowel in doc["included_vowels"]
    }
    return doc, grid


def stage_weights(run):
    """Combine vowel popularity and Hellinger discriminativeness into weights."""
    cfg, ws = run.cfg, run.ws
    doc, grid = _load_vowel_grid(ws, run.require)
    popularity = vowel_popularity(doc["train_frame_counts"])
    distances, stderr = pairwise_vowel_distances(
        grid, num_samples=cfg.weights.hellinger_samples, seed=cfg.weights.hellinger_seed)
    disc = vowel_discriminativeness(grid, distances, mode=cfg.weights.mode)
    weights = vowel_weights(popularity, disc)
    _write_json(run.output(ws.dir("models") / "vowel_weights.json"), {
        "vowels": list(ARPABET_VOWELS),
        "popularity": popularity.tolist(),
        "discriminativeness": disc.tolist(),
        "weights": weights.tolist(),
        "mode": cfg.weights.mode,
        "hellinger_samples": cfg.weights.hellinger_samples,
        "hellinger_seed": cfg.weights.hellinger_seed,
        "pairwise_distances": {v: d.tolist() for v, d in distances.items()},
        "pairwise_stderr": {v: e.tolist() for v, e in stderr.items()},
    })


def load_model_set(ws, mode, run=None):
    """Assemble the AccentModelSet a classification stage needs.

    Given the stage's StageRun, every file read is one of its inputs.
    """
    require = _require if run is None else run.require
    models_dir = ws.root / "models"
    set_path = require(models_dir / "accent_set.json", "adapt")
    accents = json.loads(set_path.read_text(encoding="utf-8"))["accents"]
    if mode == "baseline":
        return AccentModelSet(accents=accents, baseline=[
            read_model(require(models_dir / "accents" / (a + ".agm"), "adapt"))
            for a in accents
        ])
    if mode == "vowel":
        _, grid = _load_vowel_grid(ws, require)
        weights_path = require(models_dir / "vowel_weights.json", "weights")
        weights = json.loads(weights_path.read_text(encoding="utf-8"))["weights"]
        return AccentModelSet(accents=accents, vowel_grid=grid,
                              vowel_weights=np.asarray(weights))
    raise ValueError("unknown mode %r" % mode)


def _capped_labelled(run, utterances):
    """(utt id, entry, capped features, segments) of run.utterances pairs; each needs labels.

    The labels must fit the whole utterance (check_segment_ends), as for pooling; only
    the frames are cut to the test-time cap, so labelled time past it is not scored.
    """
    for utt, entry in utterances:
        segments = run.labels(utt)
        if segments is None:
            raise MissingPrerequisiteError(
                "utterance %s has no label file; vowel mode needs labels" % utt
            )
        feats = run.features(utt)
        try:
            check_segment_ends(feats, segments)
        except ValueError as exc:
            raise ValueError("utterance %s: %s" % (utt, exc)) from None
        yield utt, entry, feats.head(run.cfg.corpus.max_test_frames), segments


def _test_threshold(run):
    if run.cfg.vowels.use_calibrated_threshold:
        path = run.require(run.ws.root / "models/confidence_threshold.json", "calibrate")
        return float(json.loads(path.read_text(encoding="utf-8"))["threshold"])
    return run.cfg.vowels.confidence_threshold


def stage_classify(run):
    """Write test-split predictions for the chosen mode.

    Both modes score the first corpus.max_test_frames frames of an utterance.
    An utterance left with no vowel evidence after thresholding falls back
    to the first accent in sorted order (the documented tie rule).
    """
    cfg, ws, mode = run.cfg, run.ws, run.mode
    model_set = load_model_set(ws, mode, run)
    threshold = _test_threshold(run) if mode == "vowel" else None
    tests = run.utterances("test")
    if mode == "baseline":
        cap = cfg.corpus.max_test_frames
        results = [classify_baseline(model_set, run.features(utt).data[:cap]) for utt, _ in tests]
    else:
        labelled = (item[2:] for item in _capped_labelled(run, tests))
        results = [r for [r] in classify_vowel_thresholds(model_set, labelled, [threshold])]
    rows = [(utt, entry.accent, model_set.accents[0], 0) if result is None
            else (utt, entry.accent, result.chosen_accent, result.frames_used)
            for (utt, entry), result in zip(tests, results)]
    run.output(ws.dir("reports") / ("predictions_%s.tsv" % mode)).write_text(
        "".join("%s\t%s\t%s\t%d\n" % row for row in rows), encoding="utf-8"
    )


def stage_evaluate(run):
    """Accuracy report (text + JSON) from the predictions file."""
    cfg, ws, mode = run.cfg, run.ws, run.mode
    entries = run.manifest().entries  # for the corpus kind: archives get a DIRECT tag
    pred_path = run.require(ws.root / "reports" / ("predictions_%s.tsv" % mode), "classify")
    set_path = run.require(ws.root / "models/accent_set.json", "adapt")
    accent_set = json.loads(set_path.read_text(encoding="utf-8"))
    rows = (line.split("\t") for line in pred_path.read_text(encoding="utf-8").splitlines())
    direct = bool(entries) and Path(entries[0].audio).suffix == ".aff"
    report = confusion_report(
        accent_set["accents"],
        [(truth, predicted) for _, truth, predicted, _ in rows],
        mode,
        feature_tag=cfg.feature_tag(accent_set["dim"] if direct else None),
        seed=cfg.corpus.seed,
    )
    reports_dir = ws.dir("reports")
    run.output(reports_dir / ("evaluation_%s.json" % mode)).write_text(
        report.to_json(), encoding="utf-8")
    run.output(reports_dir / ("evaluation_%s.txt" % mode)).write_text(
        report.to_text(), encoding="utf-8")
    return report


def stage_calibrate(run):
    """Pick the confidence threshold maximizing dev accuracy (vowel mode).

    confidence_threshold.json also records the dev accuracy at each grid
    value, in the config's grid order.
    """
    cfg, ws = run.cfg, run.ws
    model_set = load_model_set(ws, "vowel", run)
    dev_items = [(feats, segments, entry.accent)
                 for _, entry, feats, segments in _capped_labelled(run, run.utterances("dev"))]
    grid = sorted(cfg.calibrate.grid)
    found = classify_vowel_thresholds(model_set, [item[:2] for item in dev_items], grid)
    predictions = {id(feats): [None if r is None else r.chosen_accent for r in results]
                   for (feats, _, _), results in zip(dev_items, found)}  # dev_items holds feats
    threshold, accuracies = calibrate_threshold(dev_items, cfg.calibrate.grid,
                                                lambda feats, _: predictions[id(feats)])
    curve = dict(zip(grid, accuracies))
    _write_json(run.output(ws.dir("models") / "confidence_threshold.json"), {
        "threshold": threshold,
        "grid": list(cfg.calibrate.grid),
        "dev_accuracy": [curve[value] for value in cfg.calibrate.grid],
    })
    return threshold


# name -> (function, help), in the order `all` runs the stages
STAGES = {
    "vad": (stage_vad, "silence removal and duration bookkeeping"),
    "features": (stage_features, "normalized cepstral features per utterance"),
    "transforms": (stage_transforms, "fit and apply the PCA/HLDA chain"),
    "ubm": (stage_ubm, "EM-train the universal background model"),
    "adapt": (stage_adapt, "MAP-adapt per-accent models from the UBM"),
    "vowel-models": (stage_vowel_models, "train the vowel-specific UBM/model grid"),
    "weights": (stage_weights, "popularity x discriminativeness vowel weights"),
    "calibrate": (stage_calibrate, "pick the confidence threshold on the dev split"),
    "classify": (stage_classify, "write test-split predictions"),
    "evaluate": (stage_evaluate, "accuracy report from predictions"),
}
MODES = ("baseline", "vowel")


def stage_chain(cfg, mode):
    """The stages `all` runs for this config and mode, in table order."""
    vowel = mode == "vowel"
    wanted = {"transforms": cfg.transforms.enabled, "vowel-models": vowel, "weights": vowel,
              "calibrate": vowel and cfg.vowels.use_calibrated_threshold}
    return [stage for stage in STAGES if wanted.get(stage, True)]


def run_stage(stage, cfg, ws, mode="baseline"):
    """Run one named pipeline stage inside the Workspace ws.

    Once the stage returns, its provenance document (config hash, input and
    output hashes) goes to reports/provenance/<stage>.json.
    """
    cfg.validate()
    if stage not in STAGES:
        raise ConfigError("unknown stage %r (expected one of %s)" % (stage, ", ".join(STAGES)))
    run = StageRun(cfg, ws, mode)
    result = STAGES[stage][0](run)
    run.write_provenance(stage)
    return result


def _format_duration(seconds):
    seconds = int(round(seconds))
    return "%d:%02d:%02d" % (seconds // 3600, (seconds % 3600) // 60, seconds % 60)


def corpus_stats(manifest, ws):
    """Per-accent utterance counts, durations before/after VAD, compression."""
    vad_dir = ws.root / "features/vad"
    rows = {}
    total_utts = len(manifest.entries)
    for index, entry in enumerate(manifest.entries):
        meta_path = _require(vad_dir / (ws.utt_id(index, entry) + ".json"), "vad")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        row = rows.setdefault(entry.accent, {"utts": 0, "dur1": 0.0, "dur2": 0.0})
        row["utts"] += 1
        row["dur1"] += meta["duration_before_sec"]
        row["dur2"] += meta["duration_after_sec"]
    header = "%-10s %8s %12s %10s %10s %14s" % (
        "Accent", "Utts", "Proportion", "Dur.1", "Dur.2", "Compression",
    )
    lines = [header, "-" * len(header)]
    sums = {"utts": 0, "dur1": 0.0, "dur2": 0.0}
    for accent in manifest.accents():
        row = rows[accent]
        ratio = 100.0 * row["dur2"] / row["dur1"] if row["dur1"] > 0 else 0.0
        lines.append(
            "%-10s %8d %11.2f%% %10s %10s %13.2f%%"
            % (
                accent,
                row["utts"],
                100.0 * row["utts"] / total_utts,
                _format_duration(row["dur1"]),
                _format_duration(row["dur2"]),
                ratio,
            )
        )
        for key in sums:
            sums[key] += row[key]
    count = len(rows)
    average = {key: value / count if count else 0.0 for key, value in sums.items()}
    avg_ratio = 100.0 * sums["dur2"] / sums["dur1"] if sums["dur1"] > 0 else 0.0
    lines.append(
        "%-10s %8d %11.2f%% %10s %10s %13.2f%%"
        % (
            "Average",
            int(round(average["utts"])),
            100.0 / count if count else 0.0,
            _format_duration(average["dur1"]),
            _format_duration(average["dur2"]),
            avg_ratio,
        )
    )
    return "\n".join(lines) + "\n"
