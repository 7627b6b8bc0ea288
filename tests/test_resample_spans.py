"""How `resample` reads its windows: each block from the span of the input
its rows cover, straight from the clip where the span lies inside it and
from a zero-padded copy of the span (`audio._padded_span`) where it
crosses either end.

nn._BLOCK_BYTES is shrunk so that blocks are a few rows each and the edge
cases occur: a block starting before sample 0, a block's span ending
exactly at the clip's end, one running past it, and a clip shorter than one
window. The oracle copies the whole input into one zero-padded buffer and
runs the same layout, cuts and GEMMs, so equality is exact."""

from math import gcd

import numpy as np
import pytest

from scenecls import audio, nn
from scenecls.audio import AudioClip, resample


def layout(src, dst):
    g = gcd(src, dst)
    return audio._polyphase_layout(dst // g, src // g)


def block_spans(n, src, dst):
    """The [start, end) input span each block of `resample` reads."""
    phases, stride, first, width, _ = layout(src, dst)
    rows = -(-round(n * dst / src) // phases)
    return [(first + stride * r0, first + stride * (r1 - 1) + width)
            for r0, r1 in nn._block_bounds(rows, width * 8)]


def whole_padded(x, src, dst):
    """The resampler with its whole input copied into one zero-padded buffer."""
    phases, stride, first, width, groups = layout(src, dst)
    n_out = round(len(x) * dst / src)
    rows = -(-n_out // phases)
    xp = np.zeros(stride * rows + width + len(x))
    xp[-first : -first + len(x)] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, width)[::stride]
    y = np.empty((rows, phases))
    for r0, r1 in nn._block_bounds(rows, width * 8):
        a = np.ascontiguousarray(windows[r0:r1])
        for p0, p1, offset, taps in groups:
            np.matmul(a[:, offset : offset + len(taps)], taps, out=y[r0:r1, p0:p1])
    return y.reshape(-1)[:n_out]


def cases(spans, n, width):
    found = set()
    if spans[0][0] < 0:
        found.add("starts before 0")
    if any(end == n for _, end in spans):
        found.add("ends at the end")
    if spans[-1][1] > n:
        found.add("runs past the end")
    if n < width:
        found.add("shorter than a window")
    return found


CASES = [
    (44100, 16000, 44100, 3, "starts before 0"),
    (44100, 16000, 5466, 3, "ends at the end"),
    (48000, 16000, 4030, 2, "ends at the end"),
    (22050, 16000, 3001, 1, "runs past the end"),
    (96000, 44100, 9000, 5, "runs past the end"),
    (44100, 16000, 500, 4, "shorter than a window"),
]


def shrunk_case(monkeypatch, src, dst, n, block_rows, case):
    """Shrink the blocks to `block_rows` rows; return the blocks' spans and
    a seeded input of n samples."""
    width = layout(src, dst)[3]
    monkeypatch.setattr(nn, "_BLOCK_BYTES", block_rows * width * 8)
    spans = block_spans(n, src, dst)
    assert case in cases(spans, n, width)
    return spans, np.random.default_rng(n).uniform(-1, 1, n)


@pytest.mark.parametrize("src, dst, n, block_rows, case", CASES)
def test_blocks_match_a_whole_padded_input(monkeypatch, src, dst, n, block_rows, case):
    _, x = shrunk_case(monkeypatch, src, dst, n, block_rows, case)
    got = resample(AudioClip(x[None, :], src), dst)
    assert np.array_equal(got.samples[0], whole_padded(x, src, dst))


@pytest.mark.parametrize("src, dst, n, block_rows, case", CASES)
def test_only_spans_crossing_an_end_are_padded(monkeypatch, src, dst, n, block_rows, case):
    spans, x = shrunk_case(monkeypatch, src, dst, n, block_rows, case)
    padded = []
    real = audio._padded_span
    monkeypatch.setattr(audio, "_padded_span",
                        lambda x, start, size: padded.append(start) or real(x, start, size))
    resample(AudioClip(x[None, :], src), dst)
    assert padded == [s0 for s0, s1 in spans if s0 < 0 or s1 > n]


def test_the_per_row_padded_windows_are_gone():
    assert not hasattr(audio, "_padded_windows")
