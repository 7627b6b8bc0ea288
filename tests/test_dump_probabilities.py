"""A prediction dump row with a NaN, infinite or negative probability is an
error naming its file and line, in the reader and in `scenecls report`. A
NaN row's argmax is class 0, so read as it stands it would score as a
correct `beach`."""

import numpy as np
import pytest

from scenecls import cli, evaluation


def _dump(path, value):
    row = ["0.0"] * evaluation.N_CLASSES
    row[3] = value
    good = ",".join(f"{1 / evaluation.N_CLASSES}" for _ in range(evaluation.N_CLASSES))
    path.write_text(f"a.wav,bus,{good}\nb.wav,beach,{','.join(row)}\n")
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_reader_rejects_the_row_and_names_its_line(tmp_path, value):
    path = _dump(tmp_path / "m.predictions.csv", value)
    with pytest.raises(ValueError, match=rf"m\.predictions\.csv:2: probability .* negative or not finite"):
        evaluation.read_prediction_dump(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_report_exits_1_naming_the_line(tmp_path, capsys, value):
    path = _dump(tmp_path / "m.predictions.csv", value)
    assert cli.main(["report", "--dumps", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:2: probability ")


def test_a_row_of_nan_does_not_score_as_beach(tmp_path, capsys):
    path = tmp_path / "m.predictions.csv"
    path.write_text("a.wav,beach," + ",".join(["nan"] * evaluation.N_CLASSES) + "\n")
    assert cli.main(["report", "--dumps", str(path)]) == 1
    assert "100.0" not in capsys.readouterr().out


def test_zero_and_tiny_probabilities_still_read(tmp_path):
    path = _dump(tmp_path / "m.predictions.csv", "1e-300")
    ids, labels, probs = evaluation.read_prediction_dump(path)
    assert ids == ["a.wav", "b.wav"]
    np.testing.assert_array_equal(labels, [1, 0])
    assert probs[1, 3] == 1e-300 and probs[1, 0] == 0.0
