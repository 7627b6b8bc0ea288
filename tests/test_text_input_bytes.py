"""A byte that is not UTF-8 text, or a NUL byte, in a manifest row, a config
value or a prediction dump row: every command that reads the file exits 1
with one line, `error: <path>:<line>: ...`, never a traceback or a message
that names neither the file nor the line."""

import numpy as np
import pytest

from scenecls import cli, evaluation

BAD = {"non-UTF-8": b"\xff", "NUL": b"\x00"}


def assert_error_names(capsys, rc, path, line):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {path}:{line}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def write_manifest(path, bad=b""):
    path.write_bytes(b"a.wav\tbeach\n\nb" + bad + b".wav\tbus\n")
    return 3  # the bad row's line


def write_dump(path, bad=b""):
    probs = np.full((2, evaluation.N_CLASSES), 1.0 / evaluation.N_CLASSES)
    evaluation.write_prediction_dump(path, ["c0", "c1"], ["beach", "bus"], probs)
    path.write_bytes(path.read_bytes().replace(b"c1,", b"c" + bad + b"1,"))
    return 2


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD)
def test_extract_names_the_manifest_line(tmp_path, capsys, bad):
    manifest = tmp_path / "m.tsv"
    line = write_manifest(manifest, bad)
    rc = cli.main(["extract", "--manifest", str(manifest), "--variant", "v1",
                   "--cache", str(tmp_path / "cache"), "--workers", "1"])
    assert_error_names(capsys, rc, manifest, line)


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD)
def test_train_names_the_config_line(tmp_path, capsys, bad):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"# run\nmodel = cnn-1d\ntrain_manifest = m" + bad + b".tsv\n")
    rc = cli.main(["train", "--config", str(config)])
    assert_error_names(capsys, rc, config, 3)


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD)
def test_train_names_the_manifest_line(tmp_path, capsys, bad):
    manifest = tmp_path / "m.tsv"
    line = write_manifest(manifest, bad)
    config = tmp_path / "run.cfg"
    config.write_text(f"model = cnn-1d\ntrain_manifest = {manifest}\nval_manifest = {manifest}\n")
    rc = cli.main(["train", "--config", str(config)])
    assert_error_names(capsys, rc, manifest, line)


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD)
def test_report_names_the_dump_line(tmp_path, capsys, bad):
    dump = tmp_path / "m.predictions.csv"
    line = write_dump(dump, bad)
    rc = cli.main(["report", "--dumps", str(dump)])
    assert_error_names(capsys, rc, dump, line)


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD)
def test_ensemble_names_the_dump_line(tmp_path, capsys, bad):
    good, dump = tmp_path / "a.predictions.csv", tmp_path / "b.predictions.csv"
    write_dump(good)
    line = write_dump(dump, bad)
    rc = cli.main(["ensemble", "--dumps", f"{good},{dump}", "--baseline", "0"])
    assert_error_names(capsys, rc, dump, line)


def test_a_bad_byte_in_a_comment_is_refused_too(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"model = cnn-1d  # \xff\n")
    with pytest.raises(ValueError, match=r":1: not UTF-8 text"):
        list(evaluation.text_lines(config, comment="#"))
