"""WAV decoding and waveform preprocessing.

Clips are decoded from RIFF/WAVE files (integer PCM, 16 or 24 bit, mono or
stereo) and prepared for feature extraction: downmix to mono by channel
averaging, peak amplitude normalization, and band-limited resampling.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

# Resampler design: windowed-sinc low-pass, Kaiser window, cutoff at half the
# target rate. Fixed here so resampled output is reproducible bit-for-bit.
KAISER_BETA = 8.6
SINC_ZERO_CROSSINGS = 64


class WavDecodeError(ValueError):
    """Malformed RIFF/WAVE structure."""


class UnsupportedWavError(ValueError):
    """Structurally valid WAV using an encoding this decoder does not handle."""


@dataclass(frozen=True)
class AudioClip:
    """Sampled waveform. ``samples`` has shape (channels, length), float64."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (channels, length) array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.length / self.sample_rate

    def mono(self) -> np.ndarray:
        if self.channels != 1:
            raise ValueError(f"expected mono clip, got {self.channels} channels")
        return self.samples[0]


# WAVE_FORMAT_EXTENSIBLE wraps the real format in a GUID; integer PCM uses this one.
_PCM_SUBFORMAT = b"\x01\x00\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def load_wav(path) -> AudioClip:
    """Decode an integer-PCM WAV file into an AudioClip scaled to [-1, 1).

    Supports 16/24-bit little-endian PCM, 1 or 2 channels, including the
    WAVE_FORMAT_EXTENSIBLE wrapper around PCM. Sample values are divided by
    2^(bits-1).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavDecodeError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            if pos + 8 + size > len(data):
                raise WavDecodeError(f"{path}: data chunk truncated")
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or len(fmt) < 16:
        raise WavDecodeError(f"{path}: missing or short fmt chunk")
    if payload is None:
        raise WavDecodeError(f"{path}: missing data chunk")

    audio_format, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if audio_format == 0xFFFE:
        if len(fmt) < 40 or fmt[24:40] != _PCM_SUBFORMAT:
            raise UnsupportedWavError(f"{path}: extensible WAV with non-PCM subformat")
    elif audio_format != 1:
        raise UnsupportedWavError(f"{path}: audio format {audio_format} (only integer PCM)")
    if bits not in (16, 24):
        raise UnsupportedWavError(f"{path}: {bits}-bit PCM (only 16/24 bit)")
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: {channels} channels (only mono/stereo)")
    if block_align != channels * bits // 8:
        raise WavDecodeError(f"{path}: inconsistent block alignment")
    if rate == 0:
        raise WavDecodeError(f"{path}: sample rate 0")

    frames = len(payload) // block_align
    payload = payload[: frames * block_align]
    if bits == 16:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64)
    else:
        b = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        raw = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        raw = np.where(raw >= 1 << 23, raw - (1 << 24), raw).astype(np.float64)
    scaled = raw / float(1 << (bits - 1))
    return AudioClip(scaled.reshape(frames, channels).T.copy(), rate)


def downmix_mono(clip: AudioClip) -> AudioClip:
    """Average all channels into one. Mono input is returned unchanged."""
    if clip.channels == 1:
        return clip
    return AudioClip(clip.samples.mean(axis=0, keepdims=True), clip.sample_rate)


def normalize_amplitude(clip: AudioClip) -> AudioClip:
    """Divide a mono clip by its peak magnitude. All-zero clips pass through."""
    x = clip.mono()
    peak = np.max(np.abs(x)) if x.size else 0.0
    if peak == 0.0 or peak == 1.0:
        return clip
    return AudioClip((x / peak)[None, :], clip.sample_rate)


@lru_cache(maxsize=8)
def _design_lowpass(up: int, down: int) -> np.ndarray:
    # Sinc with zero crossings spaced `down` samples in the upsampled domain,
    # i.e. cutoff at the target Nyquist; gain `up` compensates zero insertion.
    half = SINC_ZERO_CROSSINGS * down
    n = np.arange(-half, half + 1)
    h = (up / down) * np.sinc(n / down) * np.kaiser(2 * half + 1, KAISER_BETA)
    h.flags.writeable = False
    return h


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Polyphase windowed-sinc resampling of a mono clip down to target_rate.

    Output length is round(length * target_rate / sample_rate). The filter
    delay is an exact multiple of the output period, so no fractional
    alignment is needed.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    x = clip.mono()
    if target_rate > clip.sample_rate:
        raise ValueError(f"resample only lowers the rate, not {clip.sample_rate} Hz"
                         f" to {target_rate} Hz")
    if target_rate == clip.sample_rate:
        return clip

    # Imported here, its only use: importing scipy.signal takes about a second
    # and tens of MB of RSS, which every command that never resamples would pay.
    from scipy.signal import upfirdn

    g = gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    y = upfirdn(_design_lowpass(up, down), x, up=up, down=down)

    n_out = int(round(clip.length * target_rate / clip.sample_rate))
    y = y[SINC_ZERO_CROSSINGS : SINC_ZERO_CROSSINGS + n_out]
    if len(y) < n_out:
        y = np.pad(y, (0, n_out - len(y)))
    return AudioClip(y[None, :], target_rate)
