"""Dataset representation, feature-file I/O, synthetic corpora, batching.

A clip is a precomputed feature sequence (stand-in for a pretrained audio
encoder's output) plus exactly five reference captions. Feature files are
a tiny binary format: 8-byte magic ``DCFEAT01``, two little-endian u32
(frames, feat_dim), then frames*feat_dim little-endian float32.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import files
from .models import pad
from .seeding import substream
from .text import EmptyCaptionError, Vocabulary, normalize_and_tokenize

FEATURE_MAGIC = b"DCFEAT01"
N_REFERENCES = 5
MANIFEST_KEYS = ("clip_id", "feature_file", "captions")


class CorpusError(ValueError):
    pass


@dataclass
class ClipRecord:
    clip_id: str
    features: np.ndarray  # [frames, feat_dim] float32
    references: list[list[str]]  # exactly 5 token lists

    def validate(self) -> None:
        if len(self.references) != N_REFERENCES:
            raise CorpusError(
                f"clip {self.clip_id!r}: expected {N_REFERENCES} references, "
                f"got {len(self.references)}"
            )
        if self.features.ndim != 2 or min(self.features.shape) < 1:
            raise CorpusError(f"clip {self.clip_id!r}: bad feature shape {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise CorpusError(f"clip {self.clip_id!r}: non-finite feature values")


@dataclass
class DatasetSplit:
    name: str  # train | evaluation
    records: list[ClipRecord]  # at least one

    @property
    def feat_dim(self) -> int:
        """Features per frame, the same for every clip once validated."""
        return self.records[0].features.shape[1]

    def validate(self) -> None:
        ids = [r.clip_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise CorpusError(f"duplicate clip_ids in split {self.name!r}")
        for record in self.records:
            record.validate()
        self.check_feat_dim(self.feat_dim, f"clip {self.records[0].clip_id!r}")

    def check_feat_dim(self, feat_dim: int, owner: str) -> None:
        """Refuses the split unless every clip's frames have ``feat_dim``
        features, the width of ``owner``: a run has one feature width."""
        for record in self.records:
            if record.features.shape[1] != feat_dim:
                raise CorpusError(f"clip {record.clip_id!r}: {record.features.shape[1]} features "
                                  f"per frame, but {owner} has {feat_dim}")


@dataclass
class Batch:
    clip_ids: list[str]
    features: np.ndarray  # [B, F_max, feat_dim]
    feature_lengths: np.ndarray  # [B]
    captions: np.ndarray  # [B, L] token ids, sos ... eos then pad; L = longest row
    caption_lengths: np.ndarray  # [B] counting sos+content+eos


# -- feature files ------------------------------------------------------------


def write_features(path, features: np.ndarray) -> None:
    features = np.ascontiguousarray(features, dtype="<f4")
    with files.replaced(path, binary=True) as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", *features.shape))
        fh.write(features.tobytes())


def read_features(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:8] != FEATURE_MAGIC:
        raise CorpusError(f"{path}: not a feature file (bad magic)")
    if len(raw) < 16:
        raise CorpusError(f"{path}: truncated feature file")
    frames, feat_dim = struct.unpack("<II", raw[8:16])
    if len(raw) != 16 + 4 * frames * feat_dim:
        raise CorpusError(f"{path}: truncated feature file")
    data = np.frombuffer(raw[16:], dtype="<f4").reshape(frames, feat_dim)
    return np.array(data, dtype=np.float32)


# -- manifests ----------------------------------------------------------------


def load_dataset(manifest_path, name: str = "train") -> DatasetSplit:
    """Load a manifest (JSON array of {clip_id, feature_file, captions})."""
    manifest_path = Path(manifest_path)
    try:
        entries = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CorpusError(f"{manifest_path}: not a JSON manifest: {exc}") from None
    if not isinstance(entries, list):
        raise CorpusError(f"{manifest_path}: a manifest is a JSON array")
    if not entries:
        raise CorpusError(f"{manifest_path}: a manifest lists at least one clip")
    records = []
    for i, entry in enumerate(entries):
        missing = [k for k in MANIFEST_KEYS if not isinstance(entry, dict) or k not in entry]
        if missing:
            raise CorpusError(f"{manifest_path} entry {i}: no {', '.join(missing)}")
        clip_id, feature_file, captions = (
            entry["clip_id"], entry["feature_file"], entry["captions"])
        if not isinstance(clip_id, str):
            raise CorpusError(f"{manifest_path} entry {i}: clip_id must be a string, "
                              f"got {clip_id!r}")
        if not isinstance(feature_file, str):
            raise CorpusError(f"clip {clip_id!r}: feature_file must be a string")
        if not (isinstance(captions, list) and all(isinstance(c, str) for c in captions)):
            raise CorpusError(f"clip {clip_id!r}: captions must be a list of strings")
        feature_path = manifest_path.parent / feature_file
        if not feature_path.exists():
            raise CorpusError(f"clip {clip_id!r}: missing feature file {feature_path}")
        features = read_features(feature_path)
        try:
            references = [normalize_and_tokenize(c) for c in captions]
        except EmptyCaptionError as exc:
            raise CorpusError(f"clip {clip_id!r}: {exc}") from None
        records.append(ClipRecord(clip_id, features, references))
    split = DatasetSplit(name, records)
    split.validate()
    return split


def save_dataset(split: DatasetSplit, out_dir, manifest_name: str | None = None) -> Path:
    """Write feature files plus manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    entries = []
    for record in split.records:
        feature_file = f"features/{record.clip_id}.feat"
        write_features(out_dir / feature_file, record.features)
        entries.append(
            {
                "clip_id": record.clip_id,
                "feature_file": feature_file,
                "captions": [" ".join(tokens) for tokens in record.references],
            }
        )
    manifest = out_dir / (manifest_name or f"{split.name}.json")
    files.write_text(manifest,
                     json.dumps(entries, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return manifest


# -- synthetic corpus ---------------------------------------------------------

# Word pools for the template grammar; each class takes a disjoint slice, so
# content words identify the class while function words are shared.
_SUBJECTS = [
    "rain", "thunder", "wind", "engine", "jackhammer", "drill", "birds",
    "crickets", "crowd", "children", "waves", "stream", "dog", "bell",
    "train", "siren", "fire", "typewriter", "horse", "machinery",
]
_VERBS = [
    "falls", "rumbles", "blows", "revs", "pounds", "whirs", "chirp",
    "sing", "chatters", "shout", "crash", "trickles", "barks", "rings",
    "rattles", "wails", "crackles", "clacks", "trots", "hums",
]
_MODIFIERS = [
    "softly", "loudly", "steadily", "roughly", "rapidly", "noisily",
    "sweetly", "quietly", "excitedly", "happily", "heavily", "gently",
    "sharply", "slowly", "rhythmically", "urgently", "warmly", "briskly",
    "evenly", "constantly",
]
_PLACES = [
    "in the distance", "over the rooftops", "through the trees",
    "near the road", "at the worksite", "inside the shed", "in the garden",
    "by the field", "in the square", "at the park", "along the shore",
    "down the valley", "behind the house", "above the town", "on the tracks",
    "across the street", "around the camp", "inside the office",
    "along the trail", "inside the factory",
]

_TEMPLATES = [
    "the {subject} {verb} {modifier} {place}",
    "a {subject} {verb} {place} while it {verb2} {modifier}",
    "{subject} {verb} {modifier} and then {verb2} again {place}",
    "the {subject} {verb} {place} as the {subject2} {verb2}",
    "{subject} {verb} and {verb2} {modifier} {place}",
]


def _class_slice(pool: list[str], class_idx: int, n_classes: int) -> list[str]:
    per_class = max(2, len(pool) // n_classes)
    start = (class_idx * per_class) % len(pool)
    picked = [pool[(start + i) % len(pool)] for i in range(per_class)]
    return picked


def _make_caption(rng, class_idx: int, n_classes: int) -> list[str]:
    subjects = _class_slice(_SUBJECTS, class_idx, n_classes)
    verbs = _class_slice(_VERBS, class_idx, n_classes)
    modifiers = _class_slice(_MODIFIERS, class_idx, n_classes)
    places = _class_slice(_PLACES, class_idx, n_classes)
    template = _TEMPLATES[rng.integers(len(_TEMPLATES))]
    caption = template.format(
        subject=subjects[rng.integers(len(subjects))],
        subject2=subjects[rng.integers(len(subjects))],
        verb=verbs[rng.integers(len(verbs))],
        verb2=verbs[rng.integers(len(verbs))],
        modifier=modifiers[rng.integers(len(modifiers))],
        place=places[rng.integers(len(places))],
    )
    return caption.split()


def generate_synthetic_corpus(
    seed: int,
    n_clips: int,
    n_classes: int,
    feat_dim: int = 64,
    eval_fraction: float = 0.25,
) -> tuple[DatasetSplit, DatasetSplit]:
    """Deterministic class-structured corpus standing in for a real dataset.

    Features are a class-specific mean pattern over frames plus Gaussian
    noise; references come from a class-specific template grammar.
    """
    if n_clips < 10:
        raise ValueError("n_clips must be >= 10")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if feat_dim < 1:
        raise ValueError(f"feat_dim must be >= 1, got {feat_dim}")
    if not 0.0 < eval_fraction < 1.0:
        raise ValueError(f"eval_fraction must be in (0, 1), got {eval_fraction}")
    n_eval = max(1, int(round(n_clips * eval_fraction)))
    if n_eval == n_clips:
        raise ValueError(f"eval_fraction {eval_fraction} leaves no train clips of {n_clips}")
    rng = substream(seed, "synthetic-corpus")
    # well-separated class directions in feature space
    class_means = rng.standard_normal((n_classes, feat_dim))
    class_means *= 3.0 / np.linalg.norm(class_means, axis=1, keepdims=True)

    records = []
    for i in range(n_clips):
        class_idx = i % n_classes
        frames = int(rng.integers(24, 64))
        wobble = np.sin(np.linspace(0, 2 * np.pi, frames))[:, None] * 0.3
        features = (
            class_means[class_idx][None, :]
            + wobble * class_means[(class_idx + 1) % n_classes][None, :]
            + rng.standard_normal((frames, feat_dim)) * 0.5
        ).astype(np.float32)
        references = [_make_caption(rng, class_idx, n_classes) for _ in range(N_REFERENCES)]
        while len({" ".join(r) for r in references}) == 1:
            references[-1] = _make_caption(rng, class_idx, n_classes)
        records.append(ClipRecord(f"clip_{i:04d}", features, references))

    train = DatasetSplit("train", records[: n_clips - n_eval])
    evaluation = DatasetSplit("evaluation", records[n_clips - n_eval :])
    train.validate()
    evaluation.validate()
    return train, evaluation


# -- batching -----------------------------------------------------------------


def epoch_batches(
    split: DatasetSplit,
    vocab: Vocabulary,
    batch_size: int,
    rng: np.random.Generator,
    t_max: int,
) -> list[Batch]:
    """One epoch of batches; each clip appears once with one reference
    chosen uniformly for this epoch. A batch's captions are padded only to
    its longest one (at most ``t_max`` words plus sos and eos)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(split.records))
    rng.shuffle(order)
    ref_choice = rng.integers(0, N_REFERENCES, size=len(split.records))

    batches = []
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        recs = [split.records[i] for i in idx]
        feats, feat_lengths = pad([r.features for r in recs])
        captions, caption_lengths = pad(
            [vocab.encode(r.references[ref_choice[i]][:t_max]) for r, i in zip(recs, idx)]
        )
        batches.append(Batch(clip_ids=[r.clip_id for r in recs], features=feats,
                             feature_lengths=feat_lengths, captions=captions,
                             caption_lengths=caption_lengths))
    return batches


def build_vocabulary(train: DatasetSplit, min_count: int = 1) -> Vocabulary:
    references = [tokens for r in train.records for tokens in r.references]
    return Vocabulary.build(references, min_count=min_count)
