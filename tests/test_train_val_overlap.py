"""Training never validates on its own clips. Two manifests can name one
file by different spellings (`audio/a.wav` beside the training list,
`../audio/a.wav` beside the validation list); their clip ids differ, so the
id check in `pipeline.train` cannot see it. `run_training` compares the
resolved files that `load_manifest` found, and rejects the run, naming the
file, before any clip is read."""

import re

import pytest

from scenecls import pipeline


def test_a_file_in_both_manifests_is_rejected_before_any_extraction(tmp_path, monkeypatch):
    data = tmp_path / "data"
    (data / "folds").mkdir(parents=True)
    (data / "train.txt").write_text("audio/a.wav\tcar\naudio/b.wav\tbus\n")
    (data / "folds/val.txt").write_text("../audio/c.wav\tpark\n../audio/a.wav\tcar\n")
    calls = []

    def spy(wav_path, variant):
        calls.append(wav_path)
        raise AssertionError("the front end ran")

    monkeypatch.setattr(pipeline, "extract_clip", spy)
    config = pipeline.TrainConfig(
        model="cnn-1d", train_manifest=str(data / "train.txt"),
        val_manifest=str(data / "folds/val.txt"), cache_dir=str(tmp_path / "cache"),
        checkpoint_dir=str(tmp_path / "ckpt"), epochs=1)
    wav = str((data / "audio/a.wav").resolve())
    with pytest.raises(ValueError, match="files in both train and validation manifests: "
                       + re.escape(wav) + "$"):
        pipeline.run_training(config)
    assert calls == []
    assert not (tmp_path / "ckpt").exists()


def test_the_entries_keep_the_resolved_path(tmp_path):
    (tmp_path / "meta.txt").write_text("./audio/../audio/a.wav\tcar\n")
    entry, = pipeline.load_manifest(tmp_path / "meta.txt").entries
    assert entry.path == "./audio/../audio/a.wav"
    assert entry.wav == (tmp_path / "audio/a.wav").resolve()
