"""A clip path with a comma cannot round-trip through a prediction dump,
whose fields are comma-separated: `scenecls evaluate` would write a row that
`scenecls report` then rejects. So `load_manifest` rejects such a row with
its line number, as it does an unknown label, and `evaluate` exits 1 before
it writes any dump."""

import numpy as np
import pytest

from helpers import write_wav
from scenecls import cli, models, pipeline


@pytest.fixture()
def comma_manifest(tmp_path):
    (tmp_path / "audio").mkdir()
    write_wav(tmp_path / "audio/a,b.wav",
              np.random.default_rng(5).uniform(-0.5, 0.5, (1, 44100)), 44100)
    (tmp_path / "meta.txt").write_text("audio/a,b.wav\tcar\n")
    return tmp_path / "meta.txt"


def test_a_comma_in_a_clip_path_is_an_error_naming_its_line(comma_manifest):
    comma_manifest.write_text("\naudio/x.wav\tbus\naudio/a,b.wav\tcar\n")
    with pytest.raises(ValueError, match=r"meta\.txt:3: comma in clip path 'audio/a,b\.wav'"):
        pipeline.load_manifest(comma_manifest)


def test_evaluate_exits_1_and_writes_no_dump(comma_manifest, tmp_path, capsys):
    ckpt = tmp_path / "cnn-1d.spck"
    models.save_model(models.build_model("cnn-1d", seed=1), ckpt)
    out = tmp_path / "out"
    code = cli.main(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(comma_manifest),
                     "--out", str(out), "--cache", str(tmp_path / "cache")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "comma in clip path" in err
    assert not list(tmp_path.rglob("*.predictions.csv"))
