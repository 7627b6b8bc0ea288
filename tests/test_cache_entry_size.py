"""A feature cache entry is valid only at its variant's exact LMSF size:
`load_features` rejects bytes after the payload, and `scenecls extract`
counts a fresh entry as cached only when its size is right, by stat alone."""

import os

import numpy as np
import pytest

from helpers import write_wav
from scenecls import cli, features, pipeline
from scenecls.features import V1


@pytest.fixture
def clip(tmp_path):
    (tmp_path / "audio").mkdir()
    wav = tmp_path / "audio/x.wav"
    write_wav(wav, np.random.default_rng(8).uniform(-0.5, 0.5, (1, 16000)), 16000)
    (tmp_path / "meta.txt").write_text("audio/x.wav\tcar\n")
    return tmp_path, wav


def _fresh_entry(root, wav, raw):
    """Write ``raw`` as the v1 cache entry of ``wav``, newer than the WAV."""
    cpath = pipeline.cache_path(root / "cache", wav, V1)
    cpath.parent.mkdir(parents=True, exist_ok=True)
    cpath.write_bytes(raw)
    later = wav.stat().st_mtime + 10
    os.utime(cpath, (later, later))
    return cpath


def _valid_bytes(root, wav):
    path = root / "valid.lmsf"
    features.save_features(path, pipeline.extract_clip(wav, V1))
    return path.read_bytes()


def test_lmsf_size_is_header_plus_payload():
    assert features.lmsf_size(V1) == 14 + 999 * 64 * 4
    assert features.lmsf_size(features.V2) == 14 + 431 * 64 * 4


def test_trailing_bytes_are_rejected_naming_the_file(tmp_path):
    path = tmp_path / "c.lmsf"
    features.save_features(path, features.LogMelSpectrogram(np.zeros((999, 64)), V1))
    with open(path, "ab") as fh:
        fh.write(bytes(7))
    with pytest.raises(ValueError, match="c.lmsf"):
        features.load_features(path)


def test_entry_with_trailing_bytes_is_a_miss_and_rewritten(clip):
    root, wav = clip
    valid = _valid_bytes(root, wav)
    cpath = _fresh_entry(root, wav, valid + b"LMSF\x01\x01\x00")
    spec = pipeline.clip_features(wav, V1, root / "cache")
    assert spec.data.tobytes() == valid[14:]
    assert cpath.read_bytes() == valid


@pytest.mark.parametrize("content", ["empty", "trailing bytes"])
def test_extract_redoes_a_fresh_entry_of_the_wrong_size(clip, capsys, content):
    root, wav = clip
    valid = _valid_bytes(root, wav)
    cpath = _fresh_entry(root, wav, {"empty": b"", "trailing bytes": valid + bytes(7)}[content])
    assert cli.main(["extract", "--manifest", str(root / "meta.txt"), "--variant", "v1",
                     "--cache", str(root / "cache"), "--workers", "1"]) == 0
    assert "extracted features for 1 clips (0 already cached)" in capsys.readouterr().out
    assert cpath.read_bytes() == valid
