"""A warm `scenecls extract` re-run submits only stale clips: it decodes no
cached file and still counts the cached ones."""

import numpy as np

from helpers import write_wav
from scenecls import cli, features


def test_warm_rerun_decodes_no_cache_file(tmp_path, monkeypatch, capsys):
    (tmp_path / "audio").mkdir()
    rng = np.random.default_rng(2)
    rows = []
    for i in range(3):
        write_wav(tmp_path / f"audio/c{i}.wav", rng.uniform(-0.5, 0.5, (1, 16000)), 16000)
        rows.append(f"audio/c{i}.wav\tcar")
    (tmp_path / "meta.txt").write_text("\n".join(rows) + "\n")
    argv = ["extract", "--manifest", str(tmp_path / "meta.txt"), "--variant", "v1",
            "--cache", str(tmp_path / "cache"), "--workers", "1"]
    assert cli.main(argv) == 0
    assert "extracted features for 3 clips (0 already cached)" in capsys.readouterr().out

    decoded = []
    real = features.load_features
    monkeypatch.setattr(features, "load_features", lambda path: decoded.append(path) or real(path))
    assert cli.main(argv) == 0
    assert "extracted features for 3 clips (3 already cached)" in capsys.readouterr().out
    assert decoded == []
