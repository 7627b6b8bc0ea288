"""Every step after `load_manifest` opens and keys a clip by the file that
`load_manifest` resolved, its entry's ``wav``: not a second spelling built
from the manifest's directory and the row's own path."""

import os

import numpy as np

from helpers import write_wav
from scenecls import cli, pipeline
from scenecls.features import V1


def _wav(path):
    path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(path, np.random.default_rng(0).uniform(-0.5, 0.5, (1, 44100)), 44100)


def _manifest(path, row):
    path.write_text(f"{row}\tcar\n")
    return path


def _record_clip_features(monkeypatch):
    calls = []
    real = pipeline.clip_features

    def recording(wav_path, variant, cache_dir=None):
        calls.append(wav_path)
        return real(wav_path, variant, cache_dir)

    monkeypatch.setattr(pipeline, "clip_features", recording)
    return calls


def test_extract_and_build_dataset_hand_clip_features_the_resolved_file(tmp_path, monkeypatch):
    _wav(tmp_path / "audio/a.wav")
    meta = _manifest(tmp_path / "meta.txt", "./audio/../audio/a.wav")
    (entry,) = pipeline.load_manifest(meta).entries
    calls = _record_clip_features(monkeypatch)

    cache = tmp_path / "cache"
    assert cli.main(["extract", "--manifest", str(meta), "--variant", "v1",
                     "--cache", str(cache), "--workers", "1"]) == 0
    pipeline.build_dataset(pipeline.load_manifest(meta), V1, cache)
    pipeline.build_dataset(pipeline.load_manifest(meta), V1)
    assert calls == [entry.wav] * 3


def test_a_file_symlink_reads_the_entry_extract_wrote_for_its_target(tmp_path, monkeypatch):
    _wav(tmp_path / "audio/real.wav")
    os.symlink("real.wav", tmp_path / "audio/link.wav")
    cache = tmp_path / "cache"
    real_meta = _manifest(tmp_path / "real.txt", "audio/real.wav")
    assert cli.main(["extract", "--manifest", str(real_meta), "--variant", "v1",
                     "--cache", str(cache), "--workers", "1"]) == 0
    written = pipeline.build_dataset(pipeline.load_manifest(real_meta), V1, cache)

    def no_extract(wav_path, variant):
        raise AssertionError(f"extracted {wav_path} again")

    monkeypatch.setattr(pipeline, "extract_clip", no_extract)
    linked = pipeline.build_dataset(
        pipeline.load_manifest(_manifest(tmp_path / "link.txt", "audio/link.wav")), V1, cache)
    assert len(list(cache.glob("*.lmsf"))) == 1
    assert linked.clip_ids == ["audio/link.wav"]
    np.testing.assert_array_equal(linked.segments, written.segments)
