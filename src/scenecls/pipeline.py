"""The clip front end, dataset handling and the training loop.

Every command turns a WAV into features through ``extract_clip``: one
float32 log-mel, the same from the extractor and from the cache.

Training operates on segments (each inheriting its clip's label), runs a
fixed number of epochs of Adadelta over shuffled mini-batches, validates
after every epoch with clip-level fused macro accuracy, and keeps the
parameter snapshot of the best validation epoch (earliest on ties). No
learning-rate schedule, no early stopping.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, features, models, nn
from .audio import load_wav
from .evaluation import CLASS_INDEX

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Loss or gradient became non-finite during fitting."""


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str

    @property
    def label_index(self) -> int:
        return CLASS_INDEX[self.label]


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple
    root: Path  # clip paths resolve relative to the manifest's directory

    def __len__(self):
        return len(self.entries)


def load_manifest(path) -> DatasetManifest:
    """Parse a tab-separated `relative/path<TAB>scene_label` file.

    Labels outside the fixed 15-class vocabulary and rows naming a file an
    earlier row named, by whatever spelling (the resolved path that
    `cache_path` hashes), are rejected with the offending row number.
    """
    path = Path(path)
    entries = []
    seen = {}  # resolved clip path -> its row
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected `path<TAB>label`, got {line!r}")
            clip, label = parts[0].strip(), parts[1].strip()
            if label not in CLASS_INDEX:
                raise ValueError(f"{path}:{lineno}: unknown scene label {label!r}")
            wav = (path.parent / clip).resolve()
            if wav in seen:
                raise ValueError(f"{path}:{lineno}: duplicate of line {seen[wav]}: {clip!r}")
            seen[wav] = lineno
            entries.append(ManifestEntry(clip, label))
    if not entries:
        log.warning("manifest %s is empty", path)
    return DatasetManifest(tuple(entries), path.parent)


@dataclass
class TrainConfig:
    model: str
    train_manifest: str = ""
    val_manifest: str = ""
    cache_dir: str = ""
    checkpoint_dir: str = "."
    batch_size: int = 256
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        models.model_variant(self.model)  # rejects names outside the registry

    @property
    def variant(self) -> features.FeatureVariant:
        return models.model_variant(self.model)


_INT_KEYS = {"batch_size", "epochs", "seed"}


def parse_config(path) -> TrainConfig:
    """Read a key=value config file; # starts a comment. Adadelta's constants are fixed."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (t.strip() for t in line.split("=", 1))
            try:
                values[key] = int(value) if key in _INT_KEYS else value
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: {key} must be an integer, got {value!r}") from None
    variant = values.pop("variant", None)
    try:
        cfg = TrainConfig(**values)
    except TypeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if variant is not None and variant != cfg.variant.id:
        raise ValueError(
            f"{path}: model {cfg.model} uses variant {cfg.variant.id}, config says {variant}"
        )
    return cfg


@dataclass
class SegmentDataset:
    """Per-clip segment stacks ready for a model: (clips, segments, frames, mels)."""

    segments: np.ndarray
    labels: np.ndarray  # (clips,) int64 class indices
    clip_ids: list

    def __post_init__(self):
        if self.segments.shape[0] != len(self.labels) or len(self.labels) != len(self.clip_ids):
            raise ValueError("clip count mismatch between segments, labels and ids")

    @property
    def n_clips(self):
        return self.segments.shape[0]

    def flat_segments(self):
        """All segments and their inherited clip labels, in clip order."""
        n_clips, n_seg = self.segments.shape[:2]
        flat = self.segments.reshape(n_clips * n_seg, *self.segments.shape[2:])
        return flat, np.repeat(self.labels, n_seg)


# The revision of the front end's arithmetic, part of every cache key: a
# change that can move a feature bit bumps it, so entries an older front end
# wrote are misses by name alone. Revision 2 evaluates the resampler's sum as
# GEMMs (revision 1, whose keys hash the path alone, summed it in another order).
FRONT_END_REVISION = 2


def cache_path(cache_dir, wav_path, variant: features.FeatureVariant) -> Path:
    """Cache file keyed by the clip's resolved WAV path, the front-end
    revision and the feature variant."""
    key = f"{Path(wav_path).resolve()}\0front end {FRONT_END_REVISION}"
    digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]
    return Path(cache_dir) / f"{Path(wav_path).stem}.{digest}.{variant.id}.lmsf"


def cache_fresh(cpath, wav) -> bool:
    """The cache file exists and is no older than the later of its WAV's mtime
    and ctime, or the WAV is gone. The ctime moves whenever the WAV's bytes
    change and no copy tool (``cp -p``, ``rsync -t``) or ``os.utime`` can set
    it back, so different audio copied in under an old mtime is stale; so,
    once, is a WAV whose mode or owner changed after extraction."""
    try:
        st = os.stat(wav)
    except OSError:
        return os.path.exists(cpath)
    return os.path.exists(cpath) and os.path.getmtime(cpath) >= max(st.st_mtime, st.st_ctime)


def cache_hit(cpath, wav, variant: features.FeatureVariant) -> bool:
    """The one rule for using a cache entry, by stat alone: it is fresh and
    exactly the size of a ``variant`` LMSF file."""
    return cache_fresh(cpath, wav) and os.path.getsize(cpath) == features.lmsf_size(variant)


def extract_clip(wav_path, variant: features.FeatureVariant) -> features.LogMelSpectrogram:
    """The one front end, WAV file to float32 log-mel (the values LMSF stores):
    decode, then `features.clip_log_mel`. Its errors get the path here;
    ``load_wav``'s name the file already."""
    clip = load_wav(wav_path)
    try:
        return features.clip_log_mel(clip, variant)
    except ValueError as exc:
        raise ValueError(f"{wav_path}: {exc}") from None


def clip_features(wav_path, variant: features.FeatureVariant,
                  cache_dir=None) -> features.LogMelSpectrogram:
    """Fetch one clip's spectrogram, via the cache when ``cache_hit`` allows.
    Any other entry is a miss, extracted again and rewritten without being
    read; a hit that cannot be read is one too, with a warning. A hit holds
    ``variant``: an entry of its size loads as it or raises."""
    wav = Path(wav_path)
    if cache_dir is None:
        return extract_clip(wav, variant)
    cpath = cache_path(cache_dir, wav, variant)
    if cache_hit(cpath, wav, variant):
        try:
            return features.load_features(cpath)
        except ValueError as exc:
            log.warning("%s; extracting again", exc)
    spec = extract_clip(wav, variant)
    cpath.parent.mkdir(parents=True, exist_ok=True)
    with nn.atomic_path(cpath) as tmp:
        features.save_features(tmp, spec)
    return spec


def build_dataset(manifest: DatasetManifest, variant: features.FeatureVariant,
                  cache_dir=None) -> SegmentDataset:
    segs, labels, ids = [], [], []
    for entry in manifest.entries:
        spec = clip_features(manifest.root / entry.path, variant, cache_dir)
        segs.append(features.segment(spec, entry.path).segments)
        labels.append(entry.label_index)
        ids.append(entry.path)
    if not segs:
        raise ValueError("manifest contains no clips")
    return SegmentDataset(np.stack(segs), np.array(labels, dtype=np.int64), ids)


def make_batches(n_segments: int, batch_size: int, seed: int):
    """Infinite per-epoch generator of shuffled index batches.

    Every segment appears exactly once per epoch; the final short batch is
    kept. The generator's RNG is seeded once, so batch order is a pure
    function of (seed, epoch).
    """
    if n_segments == 0:
        raise ValueError("empty training set")
    rng = np.random.default_rng(seed)
    while True:
        perm = rng.permutation(n_segments)
        yield [perm[i : i + batch_size] for i in range(0, n_segments, batch_size)]


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)  # (epoch, loss, seg_acc, val_macro)
    best_epoch: int = -1

    def record(self, loss: float, seg_acc: float, val_macro: float) -> bool:
        """Append one epoch; returns True when it is the new best (strict)."""
        epoch = len(self.epochs)
        self.epochs.append((epoch, loss, seg_acc, val_macro))
        is_best = self.best_epoch < 0 or val_macro > self.epochs[self.best_epoch][3]
        if is_best:
            self.best_epoch = epoch
        return is_best

    def write_csv(self, path) -> None:
        lines = ["epoch,train_loss,train_seg_acc,val_macro_acc"]
        lines += [
            f"{epoch},{loss:.8f},{seg_acc:.6f},{val_macro:.6f}"
            for epoch, loss, seg_acc, val_macro in self.epochs
        ]
        evaluation.write_text_atomic(path, "\n".join(lines) + "\n")


def validate(graph: nn.ModelGraph, dataset: SegmentDataset) -> float:
    """Clip-level fused macro accuracy; never touches parameters or stats."""
    probs = evaluation.predict_clips(graph, dataset.segments)
    return evaluation.macro_accuracy(evaluation.confusion(zip(dataset.labels, probs)))


def train(graph: nn.ModelGraph, train_set: SegmentDataset, val_set: SegmentDataset,
          config: TrainConfig) -> TrainHistory:
    """Fit the graph in float32, leaving it loaded with the best-validation
    snapshot.

    The snapshot is atomic: parameters, batch-norm running statistics and
    Adadelta accumulators all come from the same epoch. It holds the values
    a checkpoint stores, and the same seed trains the same whether features
    come from the extractor or from the float32 cache.
    """
    overlap = set(train_set.clip_ids) & set(val_set.clip_ids)
    if overlap:
        raise ValueError(f"clips present in both train and validation: {sorted(overlap)[:3]}")

    graph.cast(np.float32)
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    graph.seed_dropout(config.seed)
    xs, ys = train_set.flat_segments()
    xs = evaluation.model_input(graph, xs)
    batches = make_batches(len(ys), config.batch_size, int(seeds[1].generate_state(1)[0]))
    opt = nn.Adadelta(graph.parameters())

    history = TrainHistory()
    best_state = None
    for epoch in range(config.epochs):
        loss_sum = 0.0
        correct = 0
        for b, idx in enumerate(next(batches)):
            # the running statistics before this batch: a train-mode forward
            # rebinds them, so these references keep the old values
            stats = [(layer, layer.extra_state()) for layer in graph.layers]
            try:
                loss, probs = nn.loss_and_gradients(graph, xs[idx], ys[idx])
                if not np.isfinite(loss):
                    raise nn.OptimizerError("non-finite loss")
                opt.step()  # all or nothing: no parameter changes if it raises
            except nn.OptimizerError as exc:
                for layer, state in stats:  # so a failed step leaves no trace
                    for attr, arr in state:
                        setattr(layer, attr, arr)
                raise TrainingDiverged(f"{exc} at epoch {epoch}, batch {b}") from exc
            loss_sum += loss * len(idx)
            correct += int((np.argmax(probs, axis=1) == ys[idx]).sum())
        val_macro = validate(graph, val_set)
        if history.record(loss_sum / len(ys), correct / len(ys), val_macro):
            best_state = graph.snapshot()
        log.info(
            "%s epoch %d: loss %.4f seg_acc %.3f val_macro %.3f",
            graph.name, epoch, *history.epochs[-1][1:],
        )
    graph.load_state(best_state)
    return history


def run_training(config: TrainConfig):
    """Config-driven entry: build model and datasets, fit, save artifacts.

    Returns (graph, history, checkpoint path, history path).
    """
    graph = models.build_model(config.model, seed=config.seed)
    cache = config.cache_dir or None
    train_set = build_dataset(load_manifest(config.train_manifest), graph.variant, cache)
    val_set = build_dataset(load_manifest(config.val_manifest), graph.variant, cache)
    history = train(graph, train_set, val_set, config)

    ckpt_dir = Path(config.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    ckpt = ckpt_dir / f"{config.model}.spck"
    hist = ckpt_dir / f"{config.model}.history.csv"
    models.save_model(graph, ckpt)
    history.write_csv(hist)
    return graph, history, ckpt, hist
