"""Log-mel spectrogram extraction and segmentation.

Two fixed feature variants are supported:

* V1: audio downsampled to 16 kHz, 25 ms window / 10 ms hop, 999 frames
  split into 9 segments of 111 frames.
* V2: audio kept at 44.1 kHz, 46 ms window / 23 ms hop, 431 frames split
  into 10 segments of 43 frames (the odd trailing frame is dropped).

Both use 64 mel bands and natural-log energies floored at 1e-10. The natural
framing arithmetic yields 998 (V1) / 433 (V2) frames; spectrograms are
padded by repeating the last frame or truncated so the advertised frame
counts hold exactly and segment shapes are stable downstream.

The STFT streams over blocks of frames into reused buffers, and the mel
product writes each block's rows of the output, so no whole-clip spectrum
is held. A clip's temporaries stay under the C allocator's trim threshold,
and their pages are reused from clip to clip instead of being returned to
the kernel and faulted in again.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioClip, downmix_mono, normalize_amplitude, resample
from .nn import _block_bounds, atomic_path

LOG_FLOOR = 1e-10
N_MELS = 64


@dataclass(frozen=True)
class FeatureVariant:
    id: str
    sample_rate: int
    window_s: float
    hop_s: float
    total_frames: int
    segment_frames: int
    n_segments: int
    n_mels: int = N_MELS

    @property
    def window_length(self) -> int:
        return round(self.window_s * self.sample_rate)

    @property
    def hop_length(self) -> int:
        return round(self.hop_s * self.sample_rate)

    @property
    def n_fft(self) -> int:
        return 1 << (self.window_length - 1).bit_length()


V1 = FeatureVariant("v1", 16000, 0.025, 0.010, total_frames=999, segment_frames=111, n_segments=9)
V2 = FeatureVariant("v2", 44100, 0.046, 0.023, total_frames=431, segment_frames=43, n_segments=10)

VARIANTS = {"v1": V1, "v2": V2}
# Numeric ids used in the on-disk cache header.
_VARIANT_CODES = {"v1": 1, "v2": 2}
_CODE_VARIANTS = {c: VARIANTS[k] for k, c in _VARIANT_CODES.items()}


@dataclass(frozen=True)
class LogMelSpectrogram:
    """total_frames x n_mels matrix of log energies plus its variant tag."""

    data: np.ndarray
    variant: FeatureVariant

    def __post_init__(self):
        if self.data.shape != (self.variant.total_frames, self.variant.n_mels):
            raise ValueError(
                f"expected {self.variant.total_frames}x{self.variant.n_mels} "
                f"matrix, got {self.data.shape}"
            )


@dataclass(frozen=True)
class SegmentSet:
    """Contiguous non-overlapping segments of one clip, in temporal order."""

    segments: np.ndarray  # (n_segments, segment_frames, n_mels)
    variant: FeatureVariant
    clip_id: str = ""


def _power_blocks(x: np.ndarray, win: int, hop: int, n_fft: int, rows: int):
    """Yield (r0, power) over the first `rows` STFT frames of x, in blocks.

    power[i] is the squared-magnitude spectrum of frame r0 + i, in a buffer
    the next block reuses. A block's windowed frames, complex spectrum and
    power take about nn._BLOCK_BYTES together. The blocks are cut by
    `_block_bounds(..., equal=True)`, of equal size give or take a row, so
    none is much smaller than the rest: BLAS may give a product of a few
    rows a different kernel, whose sums round differently, and `log_mel`'s
    mel GEMM over blocks must match the same GEMM over every frame at once
    bit for bit.
    """
    bins = n_fft // 2 + 1
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop]
    bounds = _block_bounds(rows, 8 * (win + 3 * bins), equal=True)
    windowed = np.empty((max(r1 - r0 for r0, r1 in bounds), win))
    power = np.empty((len(windowed), bins))
    for r0, r1 in bounds:
        a, p = windowed[: r1 - r0], power[: r1 - r0]
        np.multiply(frames[r0:r1], window, out=a)
        np.abs(np.fft.rfft(a, n=n_fft, axis=1), out=p)
        np.square(p, out=p)
        yield r0, p


def _frame_count(x: np.ndarray, win: int, hop: int) -> int:
    if len(x) < win:
        raise ValueError(f"clip of {len(x)} samples is shorter than one {win}-sample window")
    return 1 + (len(x) - win) // hop


def power_spectrogram(clip: AudioClip, window_s: float, hop_s: float) -> np.ndarray:
    """Squared-magnitude STFT with a periodic Hann window.

    Frames are left-aligned (no centering), length round(window_s * rate),
    hop round(hop_s * rate), zero-padded to the next power of two. Returns a
    frames x (n_fft/2 + 1) float64 matrix. It is computed block by block,
    by the same code `log_mel` streams through the mel filterbank.
    """
    x = clip.mono()
    win = round(window_s * clip.sample_rate)
    hop = round(hop_s * clip.sample_rate)
    rows = _frame_count(x, win, hop)
    n_fft = 1 << (win - 1).bit_length()
    out = np.empty((rows, n_fft // 2 + 1))
    for r0, p in _power_blocks(x, win, hop, n_fft, rows):
        out[r0 : r0 + len(p)] = p
    return out


def mel_scale(freq_hz):
    """Hz to mel, 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mels):
    return 700.0 * (10.0 ** (np.asarray(mels, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_filterbank(n_mels: int, n_fft_bins: int, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank, n_mels x n_fft_bins.

    Peaks sit at n_mels + 2 points equally spaced on the mel scale between
    0 Hz and Nyquist. Each row is scaled to sum to 1 over FFT bins (no
    bandwidth normalization). Cached: the matrix is immutable and shared.
    """
    if n_fft_bins < n_mels + 2:
        raise ValueError("need at least n_mels + 2 FFT bins")
    peak_hz = mel_to_hz(np.linspace(0.0, mel_scale(sample_rate / 2.0), n_mels + 2))
    # FFT bin k of an n-point transform sits at k * rate / n; here
    # n = 2 * (n_fft_bins - 1) because the spectrum is one-sided.
    bin_hz = np.arange(n_fft_bins) * sample_rate / (2.0 * (n_fft_bins - 1))

    lower, center, upper = peak_hz[:-2, None], peak_hz[1:-1, None], peak_hz[2:, None]
    rising = (bin_hz - lower) / (center - lower)
    falling = (upper - bin_hz) / (upper - center)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    sums = fb.sum(axis=1, keepdims=True)
    fb /= np.where(sums > 0.0, sums, 1.0)
    fb.flags.writeable = False
    return fb


def log_mel(clip: AudioClip, variant: FeatureVariant) -> LogMelSpectrogram:
    """Log mel-spectrogram of a preprocessed (mono, variant-rate) clip.

    Power spectrogram frames are pooled through the mel filterbank and
    log-compressed with floor 1e-10, then the frame count is forced to
    variant.total_frames (truncate, or pad by repeating the last frame).
    Only the frames kept are computed. The STFT streams over blocks of
    frames (`_power_blocks`), and each block's mel GEMM writes its rows of
    the output, so no whole-clip spectrum is ever held: a clip's
    temporaries stay a few MB, under the allocator's trim threshold, and
    their pages are not returned to the kernel and faulted in again for
    every clip.
    """
    if clip.sample_rate != variant.sample_rate:
        raise ValueError(
            f"clip at {clip.sample_rate} Hz does not match variant "
            f"{variant.id} ({variant.sample_rate} Hz); resample first"
        )
    x = clip.mono()
    win, hop = variant.window_length, variant.hop_length
    rows = min(_frame_count(x, win, hop), variant.total_frames)
    fb_t = mel_filterbank(variant.n_mels, variant.n_fft // 2 + 1, variant.sample_rate).T
    data = np.empty((variant.total_frames, variant.n_mels))
    for r0, p in _power_blocks(x, win, hop, variant.n_fft, rows):
        np.matmul(p, fb_t, out=data[r0 : r0 + len(p)])
    data[rows:] = data[rows - 1]
    np.maximum(data, LOG_FLOOR, out=data)
    np.log(data, out=data)
    return LogMelSpectrogram(data, variant)


def segment(spec: LogMelSpectrogram, clip_id: str = "") -> SegmentSet:
    """Split a spectrogram into its variant's non-overlapping segments.

    Frames beyond n_segments * segment_frames are discarded (one trailing
    frame for V2, none for V1).
    """
    v = spec.variant
    if spec.data.shape[0] != v.total_frames:
        raise ValueError(f"spectrogram has {spec.data.shape[0]} frames, expected {v.total_frames}")
    used = v.n_segments * v.segment_frames
    segs = spec.data[:used].reshape(v.n_segments, v.segment_frames, v.n_mels)
    return SegmentSet(segs, v, clip_id)


def clip_log_mel(clip: AudioClip, variant: FeatureVariant) -> LogMelSpectrogram:
    """The front end for a decoded clip: downmix, peak-normalize, resample,
    log-mel, rounded once to float32 (the values LMSF stores).

    The caller's clip is not written: normalizing divides, in place, the
    array downmixing made, or a copy of a mono clip's samples.
    """
    mono = downmix_mono(clip)
    if mono is clip:
        mono = AudioClip(clip.samples.copy(), clip.sample_rate)
    resampled = resample(normalize_amplitude(mono), variant.sample_rate)
    del mono  # when resampling made a new clip, free the input rate's samples first
    spec = log_mel(resampled, variant)
    return LogMelSpectrogram(spec.data.astype(np.float32), variant)


def extract_segments(clip: AudioClip, variant: FeatureVariant, clip_id: str = "") -> SegmentSet:
    """Full front end for one decoded clip: `clip_log_mel`, then split."""
    return segment(clip_log_mel(clip, variant), clip_id)


_LMSF_MAGIC = b"LMSF"
_LMSF_VERSION = 1
_LMSF_HEADER_BYTES = 14  # magic, u8 version, u8 variant code, u32 rows, u32 cols


def lmsf_size(variant: FeatureVariant) -> int:
    """Bytes of the cache file that holds one spectrogram of ``variant``."""
    return _LMSF_HEADER_BYTES + variant.total_frames * variant.n_mels * 4


def save_features(path, spec: LogMelSpectrogram) -> None:
    """Write a spectrogram cache file (32-bit float payload, little-endian),
    atomically (`nn.atomic_path`): a write that fails leaves neither the
    file nor a temp file."""
    rows, cols = spec.data.shape
    header = _LMSF_MAGIC + struct.pack(
        "<BBII", _LMSF_VERSION, _VARIANT_CODES[spec.variant.id], rows, cols
    )
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(spec.data, dtype="<f4").tobytes())


def load_features(path) -> LogMelSpectrogram:
    """Read a cache file back as a read-only float32 view of its bytes. A header
    shape other than its variant's, or a file size other than header plus
    payload, fails before any payload read."""
    with open(path, "rb") as fh:
        header = fh.read(_LMSF_HEADER_BYTES)
        if len(header) != _LMSF_HEADER_BYTES or header[:4] != _LMSF_MAGIC:
            raise ValueError(f"{path}: not a feature cache file")
        version, code, rows, cols = struct.unpack("<BBII", header[4:])
        if version != _LMSF_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        if code not in _CODE_VARIANTS:
            raise ValueError(f"{path}: unknown variant code {code}")
        variant = _CODE_VARIANTS[code]
        if (rows, cols) != (variant.total_frames, variant.n_mels):
            raise ValueError(f"{path}: {rows}x{cols} matrix, variant {variant.id} "
                             f"has {variant.total_frames}x{variant.n_mels}")
        size = os.fstat(fh.fileno()).st_size
        if size != lmsf_size(variant):
            raise ValueError(f"{path}: {size} bytes, a {variant.id} cache file "
                             f"has {lmsf_size(variant)}")
        payload = fh.read(rows * cols * 4)
    return LogMelSpectrogram(np.frombuffer(payload, dtype="<f4").reshape(rows, cols), variant)
