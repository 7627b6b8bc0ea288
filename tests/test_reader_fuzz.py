"""Fuzz the three file readers: mutated and truncated copies of valid WAV,
LMSF and SPCK files may only raise the reader's typed error, naming the
file, and never an untyped one (MemoryError, OverflowError, a decode error
or numpy's dimension limit). A bad prediction dump names its file and line."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import write_wav
from scenecls import audio, cli, evaluation, features, nn
from scenecls.features import V1

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)
# 32-bit fields are set to these as well as to random bytes: the sizes that
# overflow a product, exhaust memory or read zero bytes.
EXTREMES = [0, 1, 64, 0x7FFFFFFF, 0xFFFFFFFF]


def edits(size: int, span: int):
    """Byte overwrites and 32-bit overwrites in the first ``span`` bytes,
    then a cut to a prefix (often the whole file)."""
    return st.tuples(
        st.lists(st.tuples(st.integers(0, span - 1), st.integers(0, 255)), max_size=6),
        st.lists(st.tuples(st.integers(0, span - 4), st.sampled_from(EXTREMES)), max_size=2),
        st.one_of(st.just(size), st.integers(0, size)),
    )


def mutate(raw: bytes, edit) -> bytes:
    byte_edits, word_edits, keep = edit
    out = bytearray(raw)
    for pos, value in byte_edits:
        out[pos] = value
    for pos, value in word_edits:
        out[pos : pos + 4] = struct.pack("<I", value)
    return bytes(out[:keep])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid(work):
    rng = np.random.default_rng(0)
    write_wav(work / "w16.wav", rng.uniform(-0.5, 0.5, (1, 40)), 16000)
    write_wav(work / "w24.wav", rng.uniform(-0.5, 0.5, (2, 30)), 44100, bits=24)
    features.save_features(work / "c.lmsf",
                           features.LogMelSpectrogram(rng.standard_normal((999, 64)), V1))
    nn.write_checkpoint(work / "m.spck", "conv2d 2 3x3\nsoftmax",
                        [("00.conv2d.kernel", rng.standard_normal((2, 3, 3, 1))),
                         ("00.conv2d.bias", rng.standard_normal(2)),
                         ("01.scalar", np.float64(1.5))])
    return {name: (work / name).read_bytes()
            for name in ("w16.wav", "w24.wav", "c.lmsf", "m.spck")}


def _fuzz(reader, errors, path, raw, span, data):
    """Write one mutated copy of ``raw`` and read it back."""
    path.write_bytes(mutate(raw, data.draw(edits(len(raw), min(span, len(raw))))))
    try:
        reader(path)
    except errors as exc:
        assert str(path) in str(exc)


@FUZZ
@given(which=st.sampled_from(["w16.wav", "w24.wav"]), data=st.data())
def test_load_wav_raises_only_wav_errors(work, valid, which, data):
    _fuzz(audio.load_wav, (audio.WavDecodeError, audio.UnsupportedWavError),
          work / "fuzz.wav", valid[which], 48, data)


@FUZZ
@given(data=st.data())
def test_load_features_raises_only_value_error(work, valid, data):
    _fuzz(features.load_features, ValueError, work / "fuzz.lmsf", valid["c.lmsf"], 14, data)


@FUZZ
@given(data=st.data())
def test_read_checkpoint_raises_only_checkpoint_error(work, valid, data):
    raw = valid["m.spck"]
    _fuzz(nn.read_checkpoint, nn.CheckpointError, work / "fuzz.spck", raw, len(raw), data)


def test_zero_sample_rate_is_a_wav_error(tmp_path):
    path = tmp_path / "rate0.wav"
    write_wav(path, np.zeros((1, 40)), 16000)
    path.write_bytes(path.read_bytes()[:24] + bytes(4) + path.read_bytes()[28:])
    with pytest.raises(audio.WavDecodeError, match="rate0.wav"):
        audio.load_wav(path)


def test_huge_lmsf_header_is_a_named_value_error(tmp_path):
    path = tmp_path / "huge.lmsf"
    path.write_bytes(b"LMSF" + struct.pack("<BBII", 1, 1, 0xFFFFFFFF, 0xFFFFFFFF))
    with pytest.raises(ValueError, match="huge.lmsf"):
        features.load_features(path)


def test_huge_rank_and_dims_are_checkpoint_errors(tmp_path):
    head = b"SPCK" + struct.pack("<BI", 1, 0) + struct.pack("<H", 1) + b"t"
    for name, body in [("rank", struct.pack("<B", 200)),
                       ("dims", struct.pack("<B3I", 3, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF))]:
        path = tmp_path / f"{name}.spck"
        path.write_bytes(head + body)
        with pytest.raises(nn.CheckpointError, match=f"{name}.spck"):
            nn.read_checkpoint(path)


def test_non_numeric_dump_probability_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "m.predictions.csv"
    rows = np.full((2, 15), 1 / 15)
    evaluation.write_prediction_dump(path, ["a.wav", "b.wav"], ["bus", "car"], rows)
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + lines[1].replace(lines[1].split(",")[5], "abc") + "\n")
    with pytest.raises(ValueError, match=f"{path}:2: .*'abc'"):
        evaluation.read_prediction_dump(path)
    assert cli.main(["report", "--dumps", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:2: ")
