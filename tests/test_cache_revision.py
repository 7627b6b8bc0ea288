"""The cache key carries the front end's revision: an entry named as the
previous front end named it (a hash of the WAV path alone) is a miss for
`clip_features` and for `scenecls extract`'s stat-only count, whatever it
holds."""

import hashlib
import os
from pathlib import Path

import numpy as np

from helpers import write_wav
from scenecls import cli, features, pipeline
from scenecls.features import V1


def _previous_name(cache, wav, variant):
    digest = hashlib.sha1(str(Path(wav).resolve()).encode("utf-8")).hexdigest()[:16]
    return Path(cache) / f"{Path(wav).stem}.{digest}.{variant.id}.lmsf"


def _plant(cpath, wav):
    """A fresh, well-formed entry of the right size holding other features."""
    cpath.parent.mkdir(parents=True, exist_ok=True)
    planted = np.full((V1.total_frames, V1.n_mels), 7.0, dtype=np.float32)
    features.save_features(cpath, features.LogMelSpectrogram(planted, V1))
    assert os.path.getsize(cpath) == features.lmsf_size(V1)
    later = os.path.getmtime(wav) + 10
    os.utime(cpath, (later, later))
    return planted


def _clip(tmp_path):
    wav = tmp_path / "audio/a.wav"
    wav.parent.mkdir()
    write_wav(wav, np.random.default_rng(3).uniform(-0.5, 0.5, (2, 44100)), 44100, bits=24)
    return wav


def test_previous_entry_is_not_returned(tmp_path):
    wav, cache = _clip(tmp_path), tmp_path / "cache"
    old = _previous_name(cache, wav, V1)
    planted = _plant(old, wav)
    assert pipeline.cache_path(cache, wav, V1) != old
    assert pipeline.cache_path(cache, wav, V1).suffix == ".lmsf"

    spec = pipeline.clip_features(wav, V1, cache)
    assert not np.array_equal(spec.data, planted)
    assert spec.data.tobytes() == pipeline.extract_clip(wav, V1).data.tobytes()
    assert pipeline.cache_path(cache, wav, V1).is_file()


def test_previous_entry_is_not_counted_as_cached(tmp_path, capsys):
    wav, cache = _clip(tmp_path), tmp_path / "cache"
    (tmp_path / "meta.txt").write_text("audio/a.wav\tpark\n")
    _plant(_previous_name(cache, wav, V1), wav)
    argv = ["extract", "--manifest", str(tmp_path / "meta.txt"), "--variant", "v1",
            "--cache", str(cache), "--workers", "1"]
    assert cli.main(argv) == 0
    assert "extracted features for 1 clips (0 already cached)" in capsys.readouterr().out
    spec = features.load_features(pipeline.cache_path(cache, wav, V1))
    assert spec.data.tobytes() == pipeline.extract_clip(wav, V1).data.tobytes()
