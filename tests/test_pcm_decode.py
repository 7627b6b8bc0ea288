"""24-bit PCM decodes bit for bit as the integer formula: the three bytes
b0 | b1 << 8 | b2 << 16, minus 2**24 when the top bit is set, divided by
2**23. Every one of the 2**24 codes is checked, mono and stereo, in random
order so each sample follows every kind of neighbour, and so are payloads
of 0, 1 and 2 frames and one with a trailing partial frame."""

import struct

import numpy as np
import pytest

from scenecls.audio import load_wav

CHUNK = 1 << 22  # codes per file, so a check holds a few tens of MB


def _wav24(path, payload: bytes, channels: int, rate: int = 44100):
    block = 3 * channels
    header = b"RIFF" + struct.pack("<I", 36 + len(payload) + (len(payload) & 1)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate, rate * block, block, 24)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload + b"\x00" * (len(payload) & 1))


def _formula(payload: bytes, channels: int) -> np.ndarray:
    b = np.frombuffer(payload, np.uint8)
    b = b[: len(b) - len(b) % (3 * channels)].reshape(-1, 3).astype(np.int64)
    code = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
    signed = np.where(code >= 1 << 23, code - (1 << 24), code)
    return (signed / float(1 << 23)).reshape(-1, channels).T


@pytest.mark.parametrize("channels", [1, 2])
def test_every_code_decodes_exactly(tmp_path, channels):
    codes = np.random.default_rng(channels).permutation(1 << 24).astype("<u4")
    for start in range(0, 1 << 24, CHUNK):
        payload = codes[start : start + CHUNK].view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        path = tmp_path / "all.wav"
        _wav24(path, payload, channels)
        clip = load_wav(path)
        want = _formula(payload, channels)
        assert clip.samples.shape == want.shape == (channels, CHUNK // channels)
        assert clip.samples.dtype == np.float64 and clip.samples.flags.c_contiguous
        assert clip.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("n_bytes_per_channel", [0, 3, 6, 7, 8])
def test_short_and_partial_payloads(tmp_path, channels, n_bytes_per_channel):
    """0, 1 and 2 frames, then 2 frames plus 1 or 2 bytes of a third."""
    payload = np.random.default_rng(n_bytes_per_channel).integers(
        0, 256, n_bytes_per_channel * channels, dtype=np.uint8).tobytes()
    path = tmp_path / "short.wav"
    _wav24(path, payload, channels)
    clip = load_wav(path)
    want = _formula(payload, channels)
    assert clip.samples.shape == want.shape == (channels, n_bytes_per_channel // 3)
    assert clip.samples.tobytes() == want.tobytes()
