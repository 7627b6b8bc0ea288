"""Segment fusion, ensembling and metrics over the 15 scene classes."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .nn import atomic_path

CLASSES = (
    "beach", "bus", "cafe/restaurant", "car", "city_center",
    "forest_path", "grocery_store", "home", "library", "metro_station",
    "office", "park", "residential_area", "train", "tram",
)
CLASS_INDEX = {c: i for i, c in enumerate(CLASSES)}
N_CLASSES = len(CLASSES)

GEOMEAN_FLOOR = 1e-12


class EnsembleSelectionError(ValueError):
    """No valid ensemble can be formed from the given candidates."""


def model_input(graph, segments: np.ndarray) -> np.ndarray:
    """Segments (n, frames, mels) as the graph takes them: 2-D models get a
    trailing channel axis, 1-D models take the mel bins as channels."""
    return segments[..., None] if len(graph.input_shape) == 3 else segments


def predict_clip(graph, segments: np.ndarray) -> np.ndarray:
    """Fuse one clip: mean of the per-segment softmax outputs, eval mode.

    ``segments`` is (n_segments, frames, mels).
    """
    if segments.shape[0] != graph.variant.n_segments:
        raise ValueError(
            f"{graph.name} fuses {graph.variant.n_segments} segments, got {segments.shape[0]}"
        )
    return graph.forward(model_input(graph, segments), train=False).mean(axis=0)


def ensemble_geomean(dists) -> np.ndarray:
    """Elementwise geometric mean of probability vectors, renormalized.

    Entries are floored at 1e-12 before the log so a single zero cannot
    annihilate a class.
    """
    mat = np.atleast_2d(np.asarray(dists, dtype=np.float64))
    if mat.shape[0] < 2:
        raise ValueError("geometric-mean ensembling needs at least 2 distributions")
    combined = np.exp(np.log(np.maximum(mat, GEOMEAN_FLOOR)).mean(axis=0))
    return combined / combined.sum()


def argmax_label(dist: np.ndarray) -> int:
    # np.argmax already takes the lowest index on exact ties
    return int(np.argmax(dist))


def confusion(pairs) -> np.ndarray:
    """15x15 count matrix from (true index, distribution) pairs; rows are truth."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no predictions to score")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for true_idx, dist in pairs:
        cm[true_idx, argmax_label(dist)] += 1
    return cm


def class_accuracy(cm: np.ndarray) -> np.ndarray:
    """Per-class accuracy (diagonal over row sum); NaN where a class is absent."""
    if cm.sum() == 0:
        raise ValueError("empty confusion matrix")
    row = cm.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return np.where(row > 0, np.diag(cm) / np.where(row > 0, row, 1), np.nan)


def macro_accuracy(cm: np.ndarray) -> float:
    """Unweighted mean of per-class accuracies; absent classes are skipped."""
    acc = class_accuracy(cm)
    absent = np.isnan(acc)
    if absent.any():
        names = [CLASSES[i] for i in np.flatnonzero(absent)]
        warnings.warn(f"classes without evaluated clips excluded from macro accuracy: {names}")
    return float(np.nanmean(acc))


def macro_average(class_accuracies) -> float:
    """Macro accuracy of an already-computed per-class accuracy column."""
    return float(np.mean(np.asarray(class_accuracies, dtype=np.float64)))


@dataclass(frozen=True)
class EnsembleCandidate:
    """One model's validation predictions: (n_clips, 15) rows on a shared clip list."""

    name: str
    probs: np.ndarray
    macro_acc: float


@dataclass(frozen=True)
class EnsembleSpec:
    members: tuple


def _pairwise_disagreement(preds_a: np.ndarray, preds_b: np.ndarray) -> float:
    return float(np.mean(preds_a != preds_b))


def _set_disagreement(pred_sets) -> float:
    pairs = [
        _pairwise_disagreement(pred_sets[i], pred_sets[j])
        for i in range(len(pred_sets))
        for j in range(i + 1, len(pred_sets))
    ]
    return float(np.mean(pairs)) if pairs else 0.0


def select_ensemble(candidates, baseline_acc: float, k: int = 3) -> EnsembleSpec:
    """Pick up to k above-baseline members, favouring diverse predictions.

    Candidates are filtered to macro accuracy strictly above the baseline and
    sorted by accuracy. Selection seeds with the most accurate model, then
    greedily adds whichever candidate maximizes the mean pairwise argmax
    disagreement of the grown set; ties fall back to higher accuracy, then to
    name order.
    """
    if k < 2:
        raise ValueError("an ensemble needs at least 2 members")
    viable = [c for c in candidates if c.macro_acc > baseline_acc]
    if len(viable) < 2:
        raise EnsembleSelectionError(
            f"need at least 2 candidates above baseline {baseline_acc}, have {len(viable)}"
        )
    viable.sort(key=lambda c: (-c.macro_acc, c.name))
    argmaxes = {c.name: np.argmax(c.probs, axis=1) for c in viable}

    chosen = [viable[0]]
    pool = viable[1:]
    while pool and len(chosen) < k:
        # pool stays in (accuracy desc, name asc) order, so replacing only on
        # a strictly better score applies exactly those tie-breaks
        best, best_score = None, -1.0
        for c in pool:
            score = _set_disagreement([argmaxes[m.name] for m in chosen] + [argmaxes[c.name]])
            if score > best_score:
                best, best_score = c, score
        chosen.append(best)
        pool.remove(best)
    return EnsembleSpec(tuple(c.name for c in chosen))


def render_report(model_names, class_acc_columns, confusions=None):
    """Aligned-text and CSV accuracy tables (percent, one decimal).

    ``class_acc_columns`` holds one accuracy array in [0, 1] (NaN allowed for
    absent classes) per model. Returns (text, csv) strings; confusion count
    grids are appended to the text when given.
    """
    if not model_names:
        raise ValueError("nothing to report")

    def cell(v):
        return "-" if np.isnan(v) else f"{100.0 * v:.1f}"

    name_w = max(len("Average Accuracy"), max(len(c) for c in CLASSES))
    col_ws = [max(len(m), 5) for m in model_names]

    def fmt_line(label, cells):
        out = label.ljust(name_w)
        for wdt, c in zip(col_ws, cells):
            out += "  " + c.rjust(wdt)
        return out

    text_lines = [fmt_line("Acoustic Scene", model_names)]
    csv_lines = ["class," + ",".join(model_names)]
    for i, cls in enumerate(CLASSES):
        cells = [cell(col[i]) for col in class_acc_columns]
        text_lines.append(fmt_line(cls, cells))
        csv_lines.append(cls + "," + ",".join(cells))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        averages = [cell(np.nanmean(col)) for col in class_acc_columns]
    text_lines.append(fmt_line("Average Accuracy", averages))
    csv_lines.append("Average Accuracy," + ",".join(averages))

    if confusions:
        for mname, cm in zip(model_names, confusions):
            text_lines.append("")
            text_lines.append(f"Confusion matrix: {mname} (rows true, cols predicted)")
            for row in cm:
                text_lines.append(" ".join(f"{int(v):4d}" for v in row))
    return "\n".join(text_lines) + "\n", "\n".join(csv_lines) + "\n"


def write_text_atomic(path, text: str) -> None:
    with atomic_path(path) as tmp:
        tmp.write_text(text)


def write_prediction_dump(path, clip_ids, true_labels, probs: np.ndarray) -> None:
    """CSV interchange rows: clip_id,true_label,p0,...,p14."""
    rows = [
        f"{cid},{label}," + ",".join(f"{v:.10e}" for v in p)
        for cid, label, p in zip(clip_ids, true_labels, probs)
    ]
    write_text_atomic(path, "\n".join(rows) + "\n")


def read_prediction_dump(path):
    """Parse a dump back into (clip_ids, true label indices, (n,15) probs)."""
    clip_ids, labels, rows = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2 + N_CLASSES:
                raise ValueError(f"{path}:{lineno}: expected {2 + N_CLASSES} fields")
            if parts[1] not in CLASS_INDEX:
                raise ValueError(f"{path}:{lineno}: unknown label {parts[1]!r}")
            clip_ids.append(parts[0])
            labels.append(CLASS_INDEX[parts[1]])
            rows.append([float(v) for v in parts[2:]])
    return clip_ids, np.array(labels, dtype=np.int64), np.array(rows, dtype=np.float64)
