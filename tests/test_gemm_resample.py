"""The resampler against its definition, and its memory.

The oracle is the direct form y[m] = sum_n x[n] * h[m*down - up*n], with h
the centred filter of `_design_lowpass`, each output summed exactly with
`math.fsum`. The resampler evaluates the same sum as blocked GEMMs, so it
may differ only by rounding in another summation order."""

import math
import tracemalloc

import numpy as np
import pytest

from scenecls import audio
from scenecls.audio import AudioClip, resample

MiB = 1 << 20


def direct_form(x, src, dst):
    g = math.gcd(src, dst)
    up, down = dst // g, src // g
    h = audio._design_lowpass(up, down)
    half = audio.SINC_ZERO_CROSSINGS * down
    y = np.zeros(int(round(len(x) * dst / src)))
    for m in range(len(y)):
        lo = max(0, -((half - m * down) // up))  # ceil((m*down - half) / up)
        hi = min(len(x) - 1, (m * down + half) // up)
        n = np.arange(lo, hi + 1)
        y[m] = math.fsum(x[n] * h[m * down - up * n + half])
    return y


@pytest.mark.parametrize("src,dst,n", [
    (44100, 16000, 4001), (44100, 16000, 5), (48000, 16000, 4001), (32000, 16000, 4001),
    (22050, 16000, 4001), (8000, 4000, 4001), (16000, 11025, 12345),
])
def test_matches_direct_form(src, dst, n):
    x = np.random.default_rng(n + src).uniform(-1, 1, n)
    got = resample(AudioClip(x[None, :], src), dst)
    want = direct_form(x, src, dst)
    assert got.sample_rate == dst and got.samples.shape == (1, len(want))
    np.testing.assert_allclose(got.samples[0], want, rtol=0, atol=1e-13)


def _peak_bytes(clip, dst):
    audio._design_lowpass.cache_clear()  # a cold call: filter and layout included
    audio._polyphase_layout.cache_clear()
    tracemalloc.start()
    try:
        out = resample(clip, dst)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_ten_seconds_at_48k_peaks_under_four_inputs():
    x = np.random.default_rng(0).uniform(-1, 1, 480000)
    peak, out = _peak_bytes(AudioClip(x[None, :], 48000), 16000)
    assert out.length == 160000
    assert peak < 4 * x.nbytes, f"{peak / MiB:.1f} MiB for a {x.nbytes / MiB:.1f} MiB input"


def test_cold_call_at_a_near_unit_ratio_stays_small():
    """16001 -> 16000 Hz: up and down are both large, so a dense layout of
    every phase over one window would take about 2 GB."""
    x = np.random.default_rng(1).uniform(-1, 1, 16001)
    peak, out = _peak_bytes(AudioClip(x[None, :], 16001), 16000)
    assert out.length == 16000
    assert peak < 350 * MiB, f"{peak / MiB:.1f} MiB"
    np.testing.assert_allclose(out.samples[0, 7000:7010], direct_form(x, 16001, 16000)[7000:7010],
                               rtol=0, atol=1e-13)
