"""WAV decoding and waveform preprocessing.

Clips are decoded from RIFF/WAVE files (integer PCM, 16 or 24 bit, mono or
stereo) and prepared for feature extraction: downmix to mono by channel
averaging, peak amplitude normalization, and band-limited resampling.
Everything here is numpy: decoding views the file's bytes in place, and the
resampler's polyphase sum runs as blocked matrix products (BLAS GEMMs).

Beyond the decoded clip and its mono mix, a clip's preprocessing allocates
no whole-clip array: normalizing divides in place, and the resampler copies
its input windows block by block, each block's from the span of the clip
it reads (a zero-padded copy of that span only where it crosses either
end). Its temporaries thus stay under the C allocator's trim threshold, and
their pages are reused from clip to clip instead of being returned to the
kernel and faulted in again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .nn import _BLOCK_BYTES, _block_bounds

# Resampler design: windowed-sinc low-pass, Kaiser window, cutoff at half the
# target rate. Fixed here so resampled output is reproducible bit-for-bit.
KAISER_BETA = 8.6
SINC_ZERO_CROSSINGS = 64

# The largest filter `resample` designs, in bytes: 2*SINC_ZERO_CROSSINGS*down
# + 1 float64 taps, so down <= 16383, and a cold design and layout of the
# largest peaks at about 175 MiB. Any ratio between standard rates from 8 to
# 192 kHz needs at most 0.5 MiB (down 441), and 16001 -> 16000 Hz 15.6 MiB.
# Past the bound lie the rates a damaged header gives: one flipped byte of
# 44100 asks for 818 MiB, and a 32-bit rate for up to 4 TiB.
_MAX_FILTER_BYTES = 16 << 20

# Resampler evaluation: every GEMM has about this many output columns at
# least. Input windows are copied in blocks of nn._BLOCK_BYTES at most.
_MIN_PHASES = 64


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

    def mono(self) -> np.ndarray:
        if self.channels != 1:
            raise ValueError(f"expected mono clip, got {self.channels} channels")
        return self.samples[0]


# WAVE_FORMAT_EXTENSIBLE wraps the real format in a GUID; integer PCM uses this one.
_PCM_SUBFORMAT = b"\x01\x00\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def load_wav(path) -> AudioClip:
    """Decode an integer-PCM WAV file into an AudioClip scaled to [-1, 1).

    Supports 16/24-bit little-endian PCM, 1 or 2 channels, including the
    WAVE_FORMAT_EXTENSIBLE wrapper around PCM. Sample values are multiplied
    by 2^-(bits-1), which is exact. A 24-bit payload is read in place as one
    int32 view at a 3-byte stride: each int32 holds a sample's three bytes
    above the byte before them, and an arithmetic shift right by 8 drops
    that byte and sign-extends the sample.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavDecodeError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    start = None  # the data chunk's payload is data[start : start + size]
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if cid == b"fmt ":
            fmt = data[pos + 8 : pos + 8 + size]
        elif cid == b"data":
            if pos + 8 + size > len(data):
                raise WavDecodeError(f"{path}: data chunk truncated")
            start, payload_bytes = pos + 8, size
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or len(fmt) < 16:
        raise WavDecodeError(f"{path}: missing or short fmt chunk")
    if start is None:
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

    frames = payload_bytes // block_align  # a trailing partial frame is dropped
    if bits == 16:
        raw = np.ndarray((frames, channels), "<i2", data, start, (block_align, 2))
    else:
        # The byte before the payload (the chunk size's top byte) is in the
        # file, so the first sample's int32 needs no padding.
        raw = np.ndarray((frames, channels), "<i4", data, start - 1, (block_align, 3)) >> 8
    samples = np.empty((channels, frames))
    np.multiply(raw.T, 2.0 ** (1 - bits), out=samples)
    return AudioClip(samples, rate)


def downmix_mono(clip: AudioClip) -> AudioClip:
    """Average all channels into one. Mono input is returned unchanged."""
    if clip.channels == 1:
        return clip
    return AudioClip(clip.samples.mean(axis=0, keepdims=True), clip.sample_rate)


def normalize_amplitude(clip: AudioClip) -> AudioClip:
    """Divide a mono clip by its peak magnitude, in place, and return it.

    The clip's own samples are written, so no second clip-sized array is
    made; pass a copy to keep the original. At peak 0 (all zero, or empty)
    or 1 nothing is written. The peak comes from the maximum and the
    negated minimum, with no |x| temporary.
    """
    x = clip.mono()
    peak = max(x.max(), -x.min()) if x.size else 0.0
    if peak != 0.0 and peak != 1.0:
        x /= peak
    return clip


@lru_cache(maxsize=8)
def _design_lowpass(up: int, down: int) -> np.ndarray:
    # Sinc with zero crossings spaced `down` samples in the upsampled domain,
    # i.e. cutoff at the target Nyquist; gain `up` compensates zero insertion.
    half = SINC_ZERO_CROSSINGS * down
    n = np.arange(-half, half + 1)
    h = (up / down) * np.sinc(n / down) * np.kaiser(2 * half + 1, KAISER_BETA)
    h.flags.writeable = False
    return h


@lru_cache(maxsize=8)
def _polyphase_layout(up: int, down: int):
    """The filter laid out for `resample`'s GEMMs, as (phases, stride, first,
    width, groups).

    Output m = phases*r + p, for row r and phase p, is the dot product of
    the input window x[stride*r + first : stride*r + first + width] with
    column p of the layout. Each group (p0, p1, offset, taps) holds the
    columns of phases p0..p1-1 over the window's rows offset..offset +
    len(taps) - 1 that they reach; the rest of the column is zero.

    A row holds `reps` periods of `up` outputs: enough for about
    _MIN_PHASES columns per GEMM when `up` is small, but no more than keep
    `reps` copies of the filter (the taps one period's phases read) within
    nn._BLOCK_BYTES, the block size `resample` cuts its rows by. A group
    spans at most 2*SINC_ZERO_CROSSINGS phases: each phase reads about
    2*SINC_ZERO_CROSSINGS*down/up taps and the next one's window starts
    down/up later, so a group has at most about twice the rows one phase
    reads, and the layout about twice the filter's taps per period.
    """
    h = _design_lowpass(up, down)
    half = SINC_ZERO_CROSSINGS * down
    reps = max(1, min(-(-_MIN_PHASES // up), _BLOCK_BYTES // h.nbytes))
    phases, stride = up * reps, down * reps
    first = -(half // up)  # ceil(-half / up): the lowest input offset any phase reads
    n_groups = -(-phases // (2 * SINC_ZERO_CROSSINGS))
    bounds = [phases * g // n_groups for g in range(n_groups + 1)]
    groups = []
    for p0, p1 in zip(bounds[:-1], bounds[1:]):
        # input offsets k with |p*down - up*k| <= half for some p in [p0, p1)
        k0, k1 = -((half - p0 * down) // up), ((p1 - 1) * down + half) // up
        idx = np.arange(p0, p1) * down - up * np.arange(k0, k1 + 1)[:, None] + half
        inside = (idx >= 0) & (idx < len(h))
        taps = np.where(inside, h[np.where(inside, idx, 0)], 0.0)
        taps.flags.writeable = False
        groups.append((p0, p1, k0 - first, taps))
    width = ((phases - 1) * down + half) // up - first + 1
    return phases, stride, first, width, tuple(groups)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Polyphase windowed-sinc resampling of a mono clip down to target_rate.

    Output m is sum_n x[n] * h[m*down - up*n] for the centred filter h of
    `_design_lowpass` (up/down the rate ratio in lowest terms), and the
    output length is round(length * target_rate / sample_rate). The filter
    delay is an exact multiple of the output period, so no fractional
    alignment is needed. The sum runs as GEMMs: blocks of input windows cut
    by `nn._block_bounds` (as many rows as fit in _BLOCK_BYTES, the last
    block the rest), copied at the output stride, times the layout of
    `_polyphase_layout`. A block's windows all lie in one span of the input:
    where that span lies inside the clip they are copied from it directly,
    and where it crosses either end from a zero-padded copy of the span
    (`_padded_span`). So no padded copy of the whole input is made, and a
    warm call allocates about its output, one block and one padded span.
    A ratio whose filter would exceed _MAX_FILTER_BYTES is an
    UnsupportedWavError naming both rates.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    x = clip.mono()
    if target_rate > clip.sample_rate:
        raise ValueError(f"resample only lowers the rate, not {clip.sample_rate} Hz"
                         f" to {target_rate} Hz")
    if target_rate == clip.sample_rate:
        return clip

    g = gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    if (2 * SINC_ZERO_CROSSINGS * down + 1) * 8 > _MAX_FILTER_BYTES:
        raise UnsupportedWavError(f"sample rate {clip.sample_rate} Hz: resampling to {target_rate}"
                                  f" Hz needs a filter over {_MAX_FILTER_BYTES >> 20} MiB")
    phases, stride, first, width, groups = _polyphase_layout(up, down)
    n_out = int(round(clip.length * target_rate / clip.sample_rate))
    if n_out == 0:
        return AudioClip(np.zeros((1, 0)), target_rate)
    rows = -(-n_out // phases)
    y = np.empty((rows, phases))
    bounds = _block_bounds(rows, width * y.itemsize)
    block = np.empty((bounds[0][1], width))
    for r0, r1 in bounds:
        # row r's window is x[first + stride*r : first + stride*r + width],
        # zero outside x, so the block's rows read the n samples from s0 on
        s0, n = first + stride * r0, stride * (r1 - r0 - 1) + width
        span = x[s0 : s0 + n] if 0 <= s0 and s0 + n <= len(x) else _padded_span(x, s0, n)
        a = block[: r1 - r0]  # contiguous rows, so matmul uses BLAS
        np.copyto(a, np.lib.stride_tricks.sliding_window_view(span, width)[::stride])
        for p0, p1, offset, taps in groups:
            np.matmul(a[:, offset : offset + len(taps)], taps, out=y[r0:r1, p0:p1])
    return AudioClip(y.reshape(1, -1)[:, :n_out], target_rate)


def _padded_span(x: np.ndarray, start: int, n: int) -> np.ndarray:
    """x[start : start + n] as a new array, reading zeros outside x."""
    span = np.zeros(n)
    a, b = max(start, 0), min(start + n, len(x))
    if a < b:
        span[a - start : b - start] = x[a:b]
    return span
