"""A cache entry that passes the stat rule (fresh, its variant's size) but
cannot be read is extracted again: `pipeline.clip_features` warns, naming
the entry, returns the front end's features and rewrites the entry as a
valid LMSF file."""

import logging

import numpy as np

from helpers import write_wav
from scenecls import features, pipeline
from scenecls.features import V1


def test_a_hit_with_a_bad_magic_is_extracted_again(tmp_path, monkeypatch, caplog):
    wav = tmp_path / "a.wav"
    write_wav(wav, np.random.default_rng(11).uniform(-0.5, 0.5, (1, 44100)), 44100)
    cache = tmp_path / "cache"
    expected = pipeline.clip_features(wav, V1, cache)
    entry = pipeline.cache_path(cache, wav, V1)
    good = entry.read_bytes()
    entry.write_bytes(b"JUNK" + good[4:])  # a fresh entry of the right size
    assert pipeline.cache_hit(entry, wav, V1)

    calls = []
    extract = pipeline.extract_clip
    monkeypatch.setattr(pipeline, "extract_clip", lambda *a: calls.append(a) or extract(*a))
    with caplog.at_level(logging.WARNING, logger="scenecls.pipeline"):
        spec = pipeline.clip_features(wav, V1, cache)

    assert len(calls) == 1
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and str(entry) in warnings[0]
    assert "not a feature cache file" in warnings[0]
    assert spec.data.tobytes() == expected.data.tobytes()
    assert entry.read_bytes() == good
    assert features.load_features(entry).data.tobytes() == expected.data.tobytes()
