"""A manifest row whose path is empty after stripping names no clip: it
would resolve to the manifest's own directory, which `extract` then fails to
open with no row number. `load_manifest` rejects it, naming the row."""

import numpy as np
import pytest

from helpers import write_wav
from scenecls import cli, pipeline


@pytest.mark.parametrize("row", ["\tbeach", "  \tbeach", " \t beach "])
def test_an_empty_path_is_an_error_naming_its_row(tmp_path, row):
    meta = tmp_path / "meta.txt"
    meta.write_text(f"audio/a.wav\tbus\n\n{row}\n")
    with pytest.raises(ValueError, match=r"meta\.txt:3: empty clip path$"):
        pipeline.load_manifest(meta)


def test_extract_exits_1_naming_the_row(tmp_path, capsys):
    (tmp_path / "audio").mkdir()
    write_wav(tmp_path / "audio/a.wav",
              np.random.default_rng(3).uniform(-0.5, 0.5, (1, 44100)), 44100)
    meta = tmp_path / "meta.txt"
    meta.write_text("audio/a.wav\tbus\n\tbeach\n")
    code = cli.main(["extract", "--manifest", str(meta), "--variant", "v2",
                     "--cache", str(tmp_path / "cache"), "--workers", "1"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {meta}:2: empty clip path\n"
    assert not list(tmp_path.rglob("*.lmsf"))  # no row was extracted
