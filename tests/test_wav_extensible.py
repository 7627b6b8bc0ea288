"""WAV header paths: the WAVE_FORMAT_EXTENSIBLE wrapper (0xFFFE) around
integer PCM decodes to the same samples as the plain PCM file, and the
subformat, channel-count and block-alignment checks reject what they guard
against with the typed errors. Each file is built byte by byte here."""

import struct

import numpy as np
import pytest

from scenecls.audio import UnsupportedWavError, WavDecodeError, load_wav

PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")
FLOAT_GUID = bytes.fromhex("0300000000001000800000aa00389b71")


def _fmt(audio_format, channels, bits, rate=44100, block_align=None, extra=b""):
    block = channels * bits // 8 if block_align is None else block_align
    return struct.pack("<HHIIHH", audio_format, channels, rate, rate * block, block, bits) + extra


def _extensible(channels, bits, guid=PCM_GUID):
    # cbSize 22, valid bits, channel mask, then the 16-byte subformat GUID
    return _fmt(0xFFFE, channels, bits, extra=struct.pack("<HHI", 22, bits, 0) + guid)


def _write(path, fmt, payload):
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) & 1)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


def _payload(channels, bits, frames=257, seed=0):
    codes = np.random.default_rng(seed).integers(0, 1 << bits, frames * channels)
    return codes.astype("<u4").view(np.uint8).reshape(-1, 4)[:, : bits // 8].tobytes()


@pytest.mark.parametrize("channels,bits", [(2, 24), (1, 16)])
def test_extensible_pcm_decodes_as_plain_pcm(tmp_path, channels, bits):
    payload = _payload(channels, bits)
    plain = load_wav(_write(tmp_path / "plain.wav", _fmt(1, channels, bits), payload))
    ext = load_wav(_write(tmp_path / "ext.wav", _extensible(channels, bits), payload))
    assert ext.sample_rate == plain.sample_rate == 44100
    assert ext.samples.shape == plain.samples.shape == (channels, 257)
    assert ext.samples.tobytes() == plain.samples.tobytes()


def test_extensible_float_subformat_is_unsupported(tmp_path):
    path = _write(tmp_path / "f.wav", _extensible(1, 16, FLOAT_GUID), _payload(1, 16))
    with pytest.raises(UnsupportedWavError, match="subformat"):
        load_wav(path)


def test_extensible_with_a_16_byte_fmt_chunk_is_unsupported(tmp_path):
    path = _write(tmp_path / "short.wav", _fmt(0xFFFE, 1, 16), _payload(1, 16))
    with pytest.raises(UnsupportedWavError, match="subformat"):
        load_wav(path)


def test_three_channels_are_unsupported(tmp_path):
    path = _write(tmp_path / "3ch.wav", _fmt(1, 3, 16), _payload(3, 16))
    with pytest.raises(UnsupportedWavError, match="3 channels"):
        load_wav(path)


def test_inconsistent_block_alignment_is_a_decode_error(tmp_path):
    path = _write(tmp_path / "align.wav", _fmt(1, 1, 16, block_align=4), _payload(1, 16))
    with pytest.raises(WavDecodeError, match="block alignment"):
        load_wav(path)
