"""A manifest names each file once. Two rows whose paths are spelled
differently but resolve to one WAV (`audio/a.wav`, `./audio/a.wav`) would
share one cache entry, so the second row is an error naming its line, as an
identical row is, and `scenecls extract` runs no front end on such a
manifest."""

import numpy as np
import pytest

from helpers import write_wav
from scenecls import cli, pipeline


@pytest.fixture()
def alias_manifest(tmp_path):
    (tmp_path / "audio").mkdir()
    write_wav(tmp_path / "audio/a.wav", np.random.default_rng(3).uniform(-0.5, 0.5, (1, 44100)),
              44100)
    (tmp_path / "meta.txt").write_text("audio/a.wav\tcar\n./audio/a.wav\tbus\n")
    return tmp_path / "meta.txt"


@pytest.mark.parametrize("alias", ["./audio/a.wav", "audio/../audio/a.wav"])
def test_two_spellings_of_one_file_are_a_duplicate(alias_manifest, alias):
    alias_manifest.write_text(f"audio/a.wav\tcar\n{alias}\tbus\n")
    with pytest.raises(ValueError, match=rf"meta\.txt:2: duplicate of line 1: '{alias}'"):
        pipeline.load_manifest(alias_manifest)


@pytest.mark.parametrize("workers", [1, 2])
def test_extract_rejects_the_manifest_and_runs_no_front_end(alias_manifest, tmp_path,
                                                            monkeypatch, capsys, workers):
    calls = []
    monkeypatch.setattr(pipeline, "extract_clip", lambda *a, **k: calls.append(a))
    code = cli.main(["extract", "--manifest", str(alias_manifest), "--variant", "v1",
                     "--cache", str(tmp_path / "cache"), "--workers", str(workers)])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error: ") and "duplicate of line 1" in err
    assert "extracted" not in out
    assert calls == []
    assert not list(tmp_path.glob("cache/*.lmsf"))
