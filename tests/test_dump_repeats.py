"""A prediction dump that gives one clip id twice is refused, naming the
repeated line and the line that first gave the id. Read as it stands, the
confusion matrix would count that clip twice: rows a.wav car->car and
b.wav car->bus twice scored car at 33.3 instead of 50.0."""

import pytest

from scenecls import cli, evaluation

REPEAT = "clip 'b.wav' already read on line 2; a dump's clip set names each clip once"


def _row(cid, true, predicted):
    probs = ["0.0"] * evaluation.N_CLASSES
    probs[evaluation.CLASS_INDEX[predicted]] = "1.0"
    return f"{cid},{true}," + ",".join(probs) + "\n"


def _dump(path):
    path.write_text(_row("a.wav", "car", "car") + _row("b.wav", "car", "bus") + "\n"
                    + _row("b.wav", "car", "bus"))
    return path


def test_the_reader_names_both_lines(tmp_path):
    path = _dump(tmp_path / "m.predictions.csv")
    with pytest.raises(ValueError) as err:
        evaluation.read_prediction_dump(path)
    assert str(err.value) == f"{path}:4: {REPEAT}"


def test_report_refuses_it(tmp_path, capsys):
    path = _dump(tmp_path / "m.predictions.csv")
    assert cli.main(["report", "--dumps", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:4: {REPEAT}\n"
    assert "33.3" not in captured.out


def test_ensemble_refuses_it(tmp_path, capsys):
    bad = _dump(tmp_path / "m.predictions.csv")
    good = tmp_path / "n.predictions.csv"
    good.write_text(_row("a.wav", "car", "car") + _row("b.wav", "car", "bus"))
    assert cli.main(["ensemble", "--dumps", f"{good},{bad}", "--baseline", "0"]) == 1
    assert capsys.readouterr().err == f"error: {bad}:4: {REPEAT}\n"


def test_distinct_ids_read_in_file_order(tmp_path):
    path = tmp_path / "m.predictions.csv"
    path.write_text(_row("b.wav", "car", "bus") + _row("a.wav", "car", "car"))
    ids, labels, probs = evaluation.read_prediction_dump(path)
    assert ids == ["b.wav", "a.wav"]
    assert labels.tolist() == [evaluation.CLASS_INDEX["car"]] * 2
    assert probs.shape == (2, evaluation.N_CLASSES)


def test_ensemble_still_refuses_a_different_clip_set(tmp_path, capsys):
    one = tmp_path / "m.predictions.csv"
    one.write_text(_row("a.wav", "car", "car") + _row("b.wav", "car", "bus"))
    other = tmp_path / "n.predictions.csv"
    other.write_text(_row("a.wav", "car", "car") + _row("c.wav", "car", "bus"))
    assert cli.main(["ensemble", "--dumps", f"{one},{other}", "--baseline", "0"]) == 1
    assert capsys.readouterr().err == ("error: dump n covers a different clip set "
                                       "(e.g. ['b.wav', 'c.wav'])\n")
