"""`pipeline.cache_hit` is the one rule for using a feature cache entry:
fresh against the later of its WAV's mtime and ctime, and exactly its
variant's LMSF size, by stat alone. `clip_features` and `scenecls extract`
both ask it, so they agree on every entry."""

import os
import re
import shutil
import time

import numpy as np
import pytest

from helpers import write_wav
from scenecls import cli, features, pipeline
from scenecls.features import V1, V2

STATES = ["missing", "older than its WAV", "empty", "trailing bytes", "other variant", "valid"]
SERVED_FROM_CACHE = {"valid"}


def _wav(path, seed):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(path, np.random.default_rng(seed).uniform(-0.5, 0.5, (1, 16000)), 16000)
    return path


def _entry_bytes(tmp_path, state, wav):
    """The bytes of the v1 entry of ``wav`` in ``state`` (None: no entry)."""
    path = tmp_path / f"{state}.lmsf"
    if state == "other variant":
        features.save_features(path, features.LogMelSpectrogram(np.zeros((431, 64)), V2))
        return path.read_bytes()
    features.save_features(path, pipeline.extract_clip(wav, V1))
    valid = path.read_bytes()
    return {"missing": None, "older than its WAV": valid, "empty": b"",
            "trailing bytes": valid + bytes(7), "valid": valid}[state]


def _plant(cache, wav, state, raw):
    """Write ``raw`` as the v1 entry of ``wav``: newer than the WAV, or
    older for the state that names it."""
    cpath = pipeline.cache_path(cache, wav, V1)
    if raw is None:
        return cpath
    cpath.parent.mkdir(parents=True, exist_ok=True)
    cpath.write_bytes(raw)
    shift = -10 if state == "older than its WAV" else 10
    when = wav.stat().st_mtime + shift
    os.utime(cpath, (when, when))
    return cpath


def _extract(manifest, cache):
    assert cli.main(["extract", "--manifest", str(manifest), "--variant", "v1",
                     "--cache", str(cache), "--workers", "1"]) == 0


def _cached_count(out):
    return int(re.search(r"\((\d+) already cached\)", out).group(1))


@pytest.mark.parametrize("state", STATES)
def test_cache_hit_by_entry_state(tmp_path, state):
    wav = _wav(tmp_path / "x.wav", 1)
    cpath = _plant(tmp_path / "cache", wav, state, _entry_bytes(tmp_path, state, wav))
    assert pipeline.cache_hit(cpath, wav, V1) == (state in SERVED_FROM_CACHE)


def test_valid_entry_of_a_deleted_wav_is_a_hit(tmp_path):
    wav = _wav(tmp_path / "x.wav", 1)
    cpath = _plant(tmp_path / "cache", wav, "valid", _entry_bytes(tmp_path, "valid", wav))
    wav.unlink()
    assert pipeline.cache_hit(cpath, wav, V1)
    assert not pipeline.cache_hit(cpath, wav, V2)


@pytest.mark.parametrize("state", ["empty", "trailing bytes", "other variant"])
def test_fresh_entry_of_the_wrong_size_is_rewritten_unread(tmp_path, monkeypatch, state):
    wav = _wav(tmp_path / "x.wav", 2)
    cpath = _plant(tmp_path / "cache", wav, state, _entry_bytes(tmp_path, state, wav))
    valid = _entry_bytes(tmp_path, "valid", wav)
    read = []
    real = features.load_features
    monkeypatch.setattr(features, "load_features", lambda path: read.append(path) or real(path))
    spec = pipeline.clip_features(wav, V1, tmp_path / "cache")
    assert read == []
    assert spec.data.tobytes() == valid[14:]
    assert cpath.read_bytes() == valid


def test_extract_counts_what_clip_features_serves(tmp_path, monkeypatch, capsys):
    """For each entry state, `extract` counts as cached exactly the clips that
    `clip_features` returns without extracting."""
    def corpus(root):
        rows = []
        for i, state in enumerate(STATES):
            wav = _wav(root / f"audio/c{i}.wav", 10 + i)
            _plant(root / "cache", wav, state, _entry_bytes(root, state, wav))
            rows.append(f"audio/c{i}.wav\tcar")
        (root / "meta.txt").write_text("\n".join(rows) + "\n")
        return root

    served, counted = corpus(tmp_path / "served"), corpus(tmp_path / "counted")
    extracted = []
    real = pipeline.extract_clip
    monkeypatch.setattr(pipeline, "extract_clip",
                        lambda wav, variant: extracted.append(wav) or real(wav, variant))
    for i in range(len(STATES)):
        pipeline.clip_features(served / f"audio/c{i}.wav", V1, served / "cache")
    served_from_cache = len(STATES) - len(extracted)
    assert served_from_cache == len(SERVED_FROM_CACHE)

    capsys.readouterr()
    _extract(counted / "meta.txt", counted / "cache")
    assert _cached_count(capsys.readouterr().out) == served_from_cache


@pytest.fixture
def copied_over(tmp_path):
    """``x.wav`` extracted, then replaced by ``shutil.copy2`` (as `cp -p`) of
    an older WAV holding different audio: the mtime goes back, the ctime on."""
    older = _wav(tmp_path / "elsewhere/older.wav", 5)
    past = time.time() - 1000
    os.utime(older, (past, past))
    wav = _wav(tmp_path / "audio/x.wav", 4)
    (tmp_path / "meta.txt").write_text("audio/x.wav\tcar\n")
    _extract(tmp_path / "meta.txt", tmp_path / "cache")
    first = pipeline.extract_clip(wav, V1)
    time.sleep(0.05)  # so the copy's ctime lands on a later clock tick than the entry
    shutil.copy2(older, wav)
    assert wav.stat().st_mtime < pipeline.cache_path(tmp_path / "cache", wav, V1).stat().st_mtime
    return tmp_path, wav, first


def test_copied_in_older_audio_gives_its_own_features(copied_over):
    root, wav, first = copied_over
    spec = pipeline.clip_features(wav, V1, root / "cache")
    assert spec.data.tobytes() == pipeline.extract_clip(wav, V1).data.tobytes()
    assert spec.data.tobytes() != first.data.tobytes()


def test_extract_redoes_copied_in_older_audio(copied_over, capsys):
    root, _, _ = copied_over
    capsys.readouterr()
    _extract(root / "meta.txt", root / "cache")
    assert "extracted features for 1 clips (0 already cached)" in capsys.readouterr().out
