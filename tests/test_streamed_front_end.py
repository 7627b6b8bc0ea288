"""The block-streamed front end: the same bits as whole-clip formulas, in
less memory, without writing the caller's clip.

`log_mel` runs the STFT and the mel GEMM over blocks of frames, and
`resample` copies its input windows from the clip itself, with only the
rows at either end read from a zero-padded copy. The oracles below are the
whole-matrix formulas these replaced, so equality is exact."""

import tracemalloc
from math import gcd

import numpy as np
import pytest

from scenecls import audio, features
from scenecls.audio import AudioClip, normalize_amplitude, resample
from scenecls.features import V1, V2, clip_log_mel, extract_segments, log_mel

MiB = 1 << 20


def whole_power(x, win, hop):
    """The STFT as one matrix: every windowed frame, then one rfft."""
    n_fft = 1 << (win - 1).bit_length()
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop]
    return np.abs(np.fft.rfft(frames * window, n=n_fft, axis=1)) ** 2


def whole_log_mel(clip, variant):
    """log(max(power_spectrogram @ fb.T, 1e-10)) over every frame, then
    truncated or padded by repeating the last frame."""
    power = features.power_spectrogram(clip, variant.window_s, variant.hop_s)
    fb = features.mel_filterbank(variant.n_mels, power.shape[1], variant.sample_rate)
    data = np.log(np.maximum(power @ fb.T, features.LOG_FLOOR))
    n = variant.total_frames
    if len(data) >= n:
        return data[:n]
    return np.vstack([data, np.repeat(data[-1:], n - len(data), axis=0)])


def padded_resample(x, src, dst):
    """The resampler with its whole input copied into a zero-padded buffer
    first: the same layout, blocks and GEMMs, windows read from the copy."""
    g = gcd(src, dst)
    phases, stride, first, width, groups = audio._polyphase_layout(dst // g, src // g)
    n_out = int(round(len(x) * dst / src))
    if n_out == 0:
        return np.zeros(0)
    rows = -(-n_out // phases)
    xp = np.zeros((rows - 1) * stride + width)
    n_in = min(len(x), len(xp) + first)
    xp[-first : -first + n_in] = x[:n_in]
    windows = np.lib.stride_tricks.sliding_window_view(xp, width)[::stride]
    y = np.empty((rows, phases))
    step = max(1, audio._BLOCK_BYTES // (width * xp.itemsize))
    for r0 in range(0, rows, step):
        a = np.ascontiguousarray(windows[r0 : r0 + step])
        for p0, p1, offset, taps in groups:
            np.matmul(a[:, offset : offset + len(taps)], taps, out=y[r0 : r0 + len(a), p0:p1])
    return y.reshape(-1)[:n_out]


def noise(n, seed, channels=1):
    return np.random.default_rng(seed).uniform(-1, 1, (channels, n))


def frames_to_samples(variant, frames):
    return variant.window_length + (frames - 1) * variant.hop_length


# --- bit for bit -------------------------------------------------------------


@pytest.mark.parametrize("variant,frames", [
    (V1, 998),   # 10 s: padded by one frame
    (V1, 225),   # two blocks, one a row longer than the other
    (V1, 1200),  # truncated to 999
    (V2, 433),   # 10 s: truncated to 431
    (V2, 52),    # just over one block
    (V2, 301),   # six blocks, the last a row longer
    (V1, 1),     # one window long
    (V2, 1),
])
def test_log_mel_equals_whole_matrix_formula(variant, frames):
    n = frames_to_samples(variant, frames)
    clip = AudioClip(noise(n + variant.hop_length - 1, frames), variant.sample_rate)
    got = log_mel(clip, variant).data
    assert got.shape == (variant.total_frames, variant.n_mels)
    np.testing.assert_array_equal(got, whole_log_mel(clip, variant))


@pytest.mark.parametrize("variant,frames", [(V1, 998), (V1, 225), (V2, 433), (V2, 1)])
def test_power_spectrogram_equals_one_matrix_stft(variant, frames):
    x = noise(frames_to_samples(variant, frames), 3)[0]
    got = features.power_spectrogram(AudioClip(x[None, :], variant.sample_rate),
                                     variant.window_s, variant.hop_s)
    np.testing.assert_array_equal(got, whole_power(x, variant.window_length, variant.hop_length))


@pytest.mark.parametrize("src,dst,n", [
    (44100, 16000, 441000),  # 10 s: several blocks, first and last windows cross the ends
    (44100, 16000, 4001),
    (48000, 16000, 480001),
    (22050, 16000, 12345),
    (44100, 16000, 300),     # shorter than one window: rows cross both ends
    (48000, 16000, 100),
    (44100, 16000, 1),       # n_out == 0
])
def test_resample_equals_padded_copy_formula(src, dst, n):
    x = noise(n, n + src)[0]
    got = resample(AudioClip(x[None, :], src), dst)
    want = padded_resample(x, src, dst)
    assert got.samples.shape == (1, len(want))
    np.testing.assert_array_equal(got.samples[0], want)


# --- memory ------------------------------------------------------------------


def _warm_peak(fn, *args):
    fn(*args)  # filter, layout and filterbank are cached from here on
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", [V1, V2], ids=["v1", "v2"])
def test_clip_log_mel_peaks_under_its_decoded_clip(variant):
    clip = AudioClip(noise(441000, 5, channels=2), 44100)
    peak = _warm_peak(clip_log_mel, clip, variant)
    assert peak <= 1.25 * clip.samples.nbytes, \
        f"{peak / MiB:.1f} MiB for a {clip.samples.nbytes / MiB:.1f} MiB clip"


def test_warm_resample_peaks_under_its_input():
    clip = AudioClip(noise(480000, 6), 48000)
    peak = _warm_peak(resample, clip, 16000)
    assert peak < 1.25 * clip.samples.nbytes, \
        f"{peak / MiB:.1f} MiB for a {clip.samples.nbytes / MiB:.1f} MiB input"


# --- the caller's clip -------------------------------------------------------


def _clips():
    mono = noise(44100, 7) * 0.5
    at_one = noise(44100, 8)
    at_one[0, 100] = -1.0
    return {"mono": mono, "stereo": noise(44100, 9, channels=2) * 0.5,
            "peak_one": at_one, "zero": np.zeros((2, 44100))}


@pytest.mark.parametrize("name", ["mono", "stereo", "peak_one", "zero"])
@pytest.mark.parametrize("variant", [V1, V2], ids=["v1", "v2"])
def test_front_end_leaves_the_callers_samples_alone(name, variant):
    samples = _clips()[name]
    before = samples.copy()
    clip = AudioClip(samples, 44100)
    spec = clip_log_mel(clip, variant)
    segs = extract_segments(clip, variant)
    np.testing.assert_array_equal(samples, before)
    np.testing.assert_array_equal(segs.segments, features.segment(spec).segments)


def test_normalize_divides_in_place():
    samples = np.array([[0.5, -0.25, 0.125]])
    clip = AudioClip(samples, 16000)
    assert normalize_amplitude(clip) is clip
    np.testing.assert_array_equal(samples, [[1.0, -0.5, 0.25]])
    assert normalize_amplitude(AudioClip(-samples, 16000)).samples.min() == -1.0
