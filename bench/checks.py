"""Checks of the program's outputs against properties of the method.

Every check computes its expectation here, from numpy and the paper's
formulas, not from scenecls and not from a stored copy of earlier output.
A failed check raises CheckFailed with a message naming what was wrong.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np

N_MELS = 64
CLASSES = (
    "beach", "bus", "cafe/restaurant", "car", "city_center",
    "forest_path", "grocery_store", "home", "library", "metro_station",
    "office", "park", "residential_area", "train", "tram",
)
N_CLASSES = len(CLASSES)
LOG_FLOOR = math.log(1e-10)
GEOMEAN_FLOOR = 1e-12
# Variant id -> (sample rate, frames per clip).
VARIANTS = {"v1": (16000, 999), "v2": (44100, 431)}

# Tolerances, each fixed from the arithmetic it has to absorb.
TWIN_RTOL = {
    # gain twins are exact 2x integer copies: peak normalization makes them equal
    "gain": 1e-6,
    # a 16-bit copy of a 24-bit clip adds quantization noise; over 72 seeds it
    # moved a mel energy by at most 0.95% of that band's mean over the clip
    "mono": 0.05,
}
# Dumps print 11 significant digits; 15 of them sum to 1 within ~1e-9.
ROW_SUM_ATOL = 1e-8
GEOMEAN_ATOL = 1e-9
# predict prints 4 decimals and computes float64 features where evaluate
# reads float32 cached ones.
PREDICT_ATOL = 2e-4


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- features ---------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def covering_bands(freq_hz: float, sample_rate: int) -> set:
    """Bands whose triangles cover freq_hz: peaks[j] < f < peaks[j + 2].

    Peaks are N_MELS + 2 points equally spaced in mel from 0 Hz to Nyquist.
    A frequency between two peaks is covered by two bands; one on a peak,
    by that peak's band alone.
    """
    peaks = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), N_MELS + 2))
    return {j for j in range(N_MELS) if peaks[j] < freq_hz < peaks[j + 2]}


def check_feature_matrix(data: np.ndarray, variant: str, what: str) -> None:
    rows = VARIANTS[variant][1]
    require(data.shape == (rows, N_MELS), f"{what}: shape {data.shape}, expected {(rows, N_MELS)}")
    require(np.all(np.isfinite(data)), f"{what}: non-finite values")
    floor = np.float32(LOG_FLOOR) if data.dtype == np.float32 else LOG_FLOOR
    require(data.min() >= floor, f"{what}: value {data.min()} below ln 1e-10")


def check_tone(data: np.ndarray, freq_hz: float, variant: str, what: str) -> None:
    """The loudest band of a pure tone is one whose triangle covers it."""
    bands = covering_bands(freq_hz, VARIANTS[variant][0])
    loudest = int(np.argmax(data.mean(axis=0)))
    require(loudest in bands,
            f"{what}: {freq_hz:.1f} Hz tone is loudest in band {loudest}, "
            f"expected one of {sorted(bands)}")


def check_twins(a: np.ndarray, b: np.ndarray, rtol: float, what: str) -> None:
    """Two clips' log-mel features agree in energy: every |e^a - e^b| is
    within rtol of that band's mean energy over the clip.

    Energies, not logs: in a deep fade of a narrow band a tiny additive
    difference moves the log by any amount.
    """
    ea, eb = np.exp(a), np.exp(b)
    worst = float(np.max(np.abs(ea - eb) / ea.mean(axis=0)))
    require(worst <= rtol,
            f"{what}: mel energies differ by {worst:.3g} of the band mean (tolerance {rtol:g})")


def read_lmsf(path):
    """(variant id, float32 matrix) of an LMSF cache file, parsed here."""
    raw = Path(path).read_bytes()
    require(len(raw) >= 14 and raw[:4] == b"LMSF", f"{path}: not an LMSF file")
    _version, code, rows, cols = struct.unpack("<BBII", raw[4:14])
    require(code in (1, 2), f"{path}: variant code {code}")
    payload = raw[14:]
    require(len(payload) == rows * cols * 4, f"{path}: payload of {len(payload)} bytes")
    return f"v{code}", np.frombuffer(payload, dtype="<f4").reshape(rows, cols)


def matrix_key(data) -> str:
    return hashlib.sha1(np.ascontiguousarray(data, dtype="<f4").tobytes()).hexdigest()


def check_cache(cache_dir, variant: str, expected: Counter) -> None:
    """The cache holds exactly the extracted matrices rounded to float32.

    ``expected`` counts matrix_key() of each clip's extracted float64
    matrix. Files are matched by content, so the check does not depend on
    how the program names its cache files.
    """
    found = Counter()
    for path in sorted(Path(cache_dir).glob("*.lmsf")):
        vid, data = read_lmsf(path)
        require(vid == variant, f"{path}: variant {vid}, expected {variant}")
        check_feature_matrix(data, variant, str(path))
        found[matrix_key(data)] += 1
    require(found == expected,
            f"{cache_dir}: {sum(found.values())} cached matrices, "
            f"{sum((found & expected).values())} of {sum(expected.values())} "
            "equal the extracted features rounded to float32")


# --- training ---------------------------------------------------------------


def check_history(losses, val_accs, best_epoch: int, val_after: float, what: str) -> None:
    """Finite losses, and the restored model scores its best epoch exactly."""
    require(all(math.isfinite(v) for v in losses), f"{what}: non-finite loss in {losses}")
    require(0 <= best_epoch < len(val_accs), f"{what}: best epoch {best_epoch} out of range")
    require(val_accs[best_epoch] == max(val_accs),
            f"{what}: best epoch {best_epoch} is not the highest of {val_accs}")
    require(val_after == val_accs[best_epoch],
            f"{what}: validate() after train gives {val_after!r}, "
            f"best epoch recorded {val_accs[best_epoch]!r}")


def check_above_chance(accuracy: float, margin: float, what: str) -> None:
    require(accuracy >= 1.0 / N_CLASSES + margin - 1e-12,
            f"{what}: validation macro accuracy {accuracy:.3f} is not above chance "
            f"1/{N_CLASSES} by {margin:.3f}")


def digest(losses, val_accs, arrays) -> str:
    h = hashlib.sha256(repr([float(v) for v in losses] + [float(v) for v in val_accs]).encode())
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


# --- inference --------------------------------------------------------------


def read_dump(path):
    """(clip ids, label indices, (n, 15) probabilities) of a prediction dump."""
    ids, labels, rows = [], [], []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        parts = line.split(",")
        require(len(parts) == 2 + N_CLASSES, f"{path}: row with {len(parts)} fields")
        require(parts[1] in CLASSES, f"{path}: unknown label {parts[1]!r}")
        ids.append(parts[0])
        labels.append(CLASSES.index(parts[1]))
        rows.append([float(v) for v in parts[2:]])
    require(rows, f"{path}: empty dump")
    return ids, np.array(labels), np.array(rows)


def check_fused_rows(probs: np.ndarray, what: str) -> None:
    require(np.all(probs >= 0.0) and np.all(probs <= 1.0), f"{what}: probability outside [0, 1]")
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    require(worst <= ROW_SUM_ATOL, f"{what}: a fused row sums to 1 {worst:+.3g}")


def macro_accuracy(labels: np.ndarray, probs: np.ndarray) -> float:
    """Mean over the classes present of the share of clips argmax gets right."""
    pred = np.argmax(probs, axis=1)  # lowest index on ties
    present = sorted(set(labels.tolist()))
    return float(np.mean([np.mean(pred[labels == c] == c) for c in present]))


def check_printed_accuracy(stdout: str, labels, probs, what: str) -> None:
    m = re.search(r"^macro accuracy: ([0-9.]+)$", stdout, re.M)
    require(m is not None, f"{what}: no macro accuracy line in the output")
    want = f"{100.0 * macro_accuracy(labels, probs):.1f}"
    require(m.group(1) == want, f"{what}: printed macro accuracy {m.group(1)}, dump gives {want}")


def geomean(member_probs) -> np.ndarray:
    """Row-wise geometric mean of members, floored at 1e-12, renormalized."""
    logs = np.log(np.maximum(np.stack(member_probs), GEOMEAN_FLOOR))
    combined = np.exp(logs.mean(axis=0))
    return combined / combined.sum(axis=1, keepdims=True)


def check_ensemble(ens_probs: np.ndarray, member_probs, what: str) -> None:
    want = geomean(member_probs)
    require(ens_probs.shape == want.shape, f"{what}: shape {ens_probs.shape}, expected {want.shape}")
    diff = float(np.max(np.abs(ens_probs - want)))
    require(diff <= GEOMEAN_ATOL, f"{what}: differs from the geometric mean by {diff:.3g}")


def parse_predict(stdout: str) -> np.ndarray:
    """The 15-class distribution printed by `scenecls predict`."""
    dist = {}
    for line in stdout.splitlines():
        m = re.match(r"^\s+(\S+)\s+([0-9.]+)$", line)
        if m and m.group(1) in CLASSES:
            dist[m.group(1)] = float(m.group(2))
    require(len(dist) == N_CLASSES, f"predict printed {len(dist)} of {N_CLASSES} classes")
    return np.array([dist[c] for c in CLASSES])


def check_predict(stdout: str, dump_row: np.ndarray, what: str) -> None:
    """`scenecls predict` printed the dump row of the same clip and checkpoint."""
    diff = float(np.max(np.abs(parse_predict(stdout) - dump_row)))
    require(diff <= PREDICT_ATOL,
            f"{what}: predict differs from the evaluate dump row by {diff:.3g}")
