"""Synthetic DCASE-style inputs, made from a seed.

Every clip is 10 s at 44.1 kHz. Three clips in four are 24-bit stereo (the
DCASE 2017 format); every fourth is 16-bit mono, so both decode paths run.
A class clip is broadband noise 35 dB down plus noise in its class's own
frequency band, with a slow random envelope, so the 15 classes differ in
which mel bands carry energy and the task can be learned.

This module does not import scenecls: the inputs do not depend on the code
under test.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from checks import CLASSES, N_CLASSES, N_MELS, hz_to_mel, mel_to_hz

RATE = 44100
DURATION_S = 10
N_SAMPLES = RATE * DURATION_S
MONO16_EVERY = 4  # clip i of a manifest is 16-bit mono when i % 4 == 3
FLOOR_DB = -35.0
# Class bands are equal steps on the mel scale between these two frequencies,
# which lie inside both feature variants' ranges (v1 stops at 8 kHz).
BAND_LO_HZ, BAND_HI_HZ = 150.0, 7500.0
# Probe tones sit on a band centre of one variant, inside a range where that
# variant's bands are at least three FFT bins wide.
TONE_CENTRES = {"v1": (16000, 2000.0, 7000.0), "v2": (44100, 1000.0, 6000.0)}

def class_band_hz(label: int) -> tuple:
    edges = mel_to_hz(np.linspace(hz_to_mel(BAND_LO_HZ), hz_to_mel(BAND_HI_HZ), N_CLASSES + 1))
    return float(edges[label]), float(edges[label + 1])


def rng_for(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def class_signal(rng: np.random.Generator, label: int) -> np.ndarray:
    """One channel of a class clip, float64, peak 1."""
    spec = np.fft.rfft(rng.standard_normal(N_SAMPLES))
    freqs = np.fft.rfftfreq(N_SAMPLES, 1.0 / RATE)
    lo, hi = class_band_hz(label)
    in_band = (freqs >= lo) & (freqs < hi)
    # equal power per unit bandwidth for the band and the floor, then scaled
    gain = np.full(freqs.shape, 10.0 ** (FLOOR_DB / 20.0))
    gain[in_band] = 1.0
    x = np.fft.irfft(spec * gain, n=N_SAMPLES)
    t = np.arange(N_SAMPLES) / RATE
    rate_hz, phase = rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0 * np.pi)
    x *= 1.0 + 0.5 * np.sin(2.0 * np.pi * rate_hz * t + phase)
    return x / np.max(np.abs(x))


def tone_signal(freq_hz: float) -> np.ndarray:
    t = np.arange(N_SAMPLES) / RATE
    return np.sin(2.0 * np.pi * freq_hz * t)


def quantize(x: np.ndarray, bits: int, peak: float) -> np.ndarray:
    """Scale a peak-1 signal to `peak` of full scale and round to integers."""
    full = (1 << (bits - 1)) - 1
    return np.round(x * (peak * full)).astype(np.int32)


def write_wav(path, channels: np.ndarray, bits: int) -> None:
    """Integer PCM RIFF/WAVE from a (channels, samples) int32 array."""
    n_ch, n = channels.shape
    inter = np.ascontiguousarray(channels.T).reshape(-1)
    if bits == 16:
        payload = inter.astype("<i2").tobytes()
    elif bits == 24:
        payload = inter.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raise ValueError(f"{bits}-bit PCM not written here")
    block = n_ch * bits // 8
    fmt = struct.pack("<HHIIHH", 1, n_ch, RATE, RATE * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def write_class_clip(path, rng: np.random.Generator, label: int, mono16: bool) -> None:
    left = class_signal(rng, label)
    peak = rng.uniform(0.3, 0.9)
    if mono16:
        write_wav(path, quantize(left, 16, peak)[None, :], 16)
    else:
        # a real stereo pair: the right channel is the left plus its own floor
        right = 0.9 * left + 10.0 ** (FLOOR_DB / 20.0) * rng.standard_normal(N_SAMPLES)
        right /= np.max(np.abs(right))
        write_wav(path, np.stack([quantize(left, 24, peak), quantize(right, 24, peak)]), 24)


def write_manifest(path, rows) -> None:
    Path(path).write_text("".join(f"{rel}\t{CLASSES[label]}\n" for rel, label in rows))


def class_set(root: Path, name: str, seed: int, stream: int, per_class: int) -> Path:
    """`per_class` clips of every class under root/audio; returns the manifest."""
    (root / "audio").mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, stream)
    rows = []
    for i in range(per_class * N_CLASSES):
        label = i % N_CLASSES
        rel = f"audio/{name}_{i:03d}.wav"
        write_class_clip(root / rel, rng, label, mono16=i % MONO16_EVERY == MONO16_EVERY - 1)
        rows.append((rel, label))
    manifest = root / f"{name}.txt"
    write_manifest(manifest, rows)
    return manifest


def band_centres_hz(sample_rate: int) -> np.ndarray:
    """Centre frequencies of the 64 mel bands from 0 Hz to Nyquist."""
    peaks = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), N_MELS + 2))
    return peaks[1:-1]


def extract_set(root: Path, seed: int) -> dict:
    """The extract workload's manifest: one clip per class plus four probes.

    Probes: a pure tone on a v1 band centre and one on a v2 band centre; an
    exact 2x-gain twin of clip 0 (24-bit stereo); and a 16-bit mono twin of
    clip 1, which is 24-bit stereo with equal channels. Returns the manifest
    path and the probes' paths and tone frequencies.
    """
    (root / "audio").mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, 0)
    rows = []
    for i in range(N_CLASSES):
        rel = f"audio/clip_{i:03d}.wav"
        if i == 0:
            gain_source = quantize(class_signal(rng, i), 24, rng.uniform(0.2, 0.45))
            write_wav(root / rel, np.stack([gain_source] * 2), 24)
        elif i == 1:
            mono_source = class_signal(rng, i)
            mono_peak = rng.uniform(0.3, 0.9)
            write_wav(root / rel, np.stack([quantize(mono_source, 24, mono_peak)] * 2), 24)
        else:
            write_class_clip(root / rel, rng, i, mono16=i % MONO16_EVERY == MONO16_EVERY - 1)
        rows.append((rel, i))
    tones = {}
    for variant, (rate, lo, hi) in TONE_CENTRES.items():
        centres = band_centres_hz(rate)
        freq = float(rng.choice(centres[(centres >= lo) & (centres <= hi)]))
        rel = f"audio/tone_{variant}.wav"
        write_wav(root / rel, np.stack([quantize(tone_signal(freq), 24, 0.5)] * 2), 24)
        rows.append((rel, 2))
        tones[rel] = freq
    twins = {"gain": ["audio/gain_twin.wav", "audio/clip_000.wav"],
             "mono": ["audio/mono_twin.wav", "audio/clip_001.wav"]}
    write_wav(root / "audio/gain_twin.wav", np.stack([2 * gain_source] * 2), 24)
    write_wav(root / "audio/mono_twin.wav", quantize(mono_source, 16, mono_peak)[None, :], 16)
    rows += [(twin, label) for label, (twin, _) in enumerate(twins.values())]
    manifest = root / "extract.txt"
    write_manifest(manifest, rows)
    return {"manifest": str(manifest), "tones": tones, "twins": twins}
