"""`ensemble` and `report` refuse dumps they cannot score: two dumps that
give one clip different true labels (the fused rows were once scored
against the first dump's labels), and a dump with no rows (once reported
only as "no predictions to score", naming no file). Each is one
`error: ...` line naming the file, exit 1."""

import numpy as np
import pytest

from scenecls import cli, evaluation
from scenecls.evaluation import CLASSES, N_CLASSES


def _dump(path, labels, seed=0):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(N_CLASSES), size=len(labels))
    ids = [f"clip{i:02d}" for i in range(len(labels))]
    evaluation.write_prediction_dump(path, ids, [CLASSES[i] for i in labels], probs)
    return str(path)


def _run(capsys, command, paths):
    args = [command, "--dumps", ",".join(paths)]
    if command == "ensemble":
        args += ["--baseline", "0", "--k", "2"]
    code = cli.main(args)
    return code, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("command", ["ensemble", "report"])
def test_dumps_disagreeing_on_a_label_are_refused(tmp_path, capsys, command):
    labels = np.repeat(np.arange(N_CLASSES), 2)
    a = _dump(tmp_path / "a.predictions.csv", labels)
    b = _dump(tmp_path / "b.predictions.csv", (labels + 1) % N_CLASSES, seed=1)
    code, err = _run(capsys, command, [a, b])
    assert code == 1
    assert err == [f"error: dumps {a} and {b} disagree on clip 'clip00': labels "
                   f"{CLASSES[0]} and {CLASSES[1]}"]


def test_one_disagreeing_clip_is_named(tmp_path, capsys):
    labels = np.repeat(np.arange(N_CLASSES), 2)
    other = labels.copy()
    other[17] = (other[17] + 3) % N_CLASSES
    a = _dump(tmp_path / "a.predictions.csv", labels)
    b = _dump(tmp_path / "b.predictions.csv", labels, seed=1)
    c = _dump(tmp_path / "c.predictions.csv", other, seed=2)
    code, err = _run(capsys, "ensemble", [a, b, c])
    assert code == 1
    assert err == [f"error: dumps {a} and {c} disagree on clip 'clip17': labels "
                   f"{CLASSES[labels[17]]} and {CLASSES[other[17]]}"]


@pytest.mark.parametrize("text", ["", "\n\n", "  \r\n"])
def test_an_empty_dump_is_an_error_naming_it(tmp_path, text):
    path = tmp_path / "empty.predictions.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        evaluation.read_prediction_dump(path)
    assert str(info.value) == f"{path}: no prediction rows"


@pytest.mark.parametrize("command", ["ensemble", "report"])
def test_cli_names_the_empty_dump(tmp_path, capsys, command):
    a = _dump(tmp_path / "a.predictions.csv", np.arange(N_CLASSES))
    empty = tmp_path / "e.predictions.csv"
    empty.write_text("")
    code, err = _run(capsys, command, [a, str(empty)])
    assert code == 1
    assert err == [f"error: {empty}: no prediction rows"]
