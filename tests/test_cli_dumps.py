"""`ensemble` and `report` over prediction dumps written directly, without a
trained model: the fused dump read back, too few dumps, colliding names."""

import numpy as np
import pytest

from scenecls import cli, evaluation
from scenecls.evaluation import CLASSES, N_CLASSES


@pytest.fixture
def dumps(tmp_path):
    """Three members over 30 clips, two per class, each right on most of them."""
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(N_CLASSES), 2)
    ids = [f"clip{i:02d}" for i in range(len(labels))]
    paths, members = [], []
    for m in range(3):
        probs = rng.dirichlet(np.ones(N_CLASSES), size=len(labels))
        probs[np.arange(len(labels)), labels] += rng.uniform(0.0, 1.5, len(labels))
        probs /= probs.sum(axis=1, keepdims=True)
        path = tmp_path / f"m{m}.predictions.csv"
        evaluation.write_prediction_dump(path, ids, [CLASSES[i] for i in labels], probs)
        paths.append(str(path))
        members.append(evaluation.read_prediction_dump(path)[2])
    return paths, np.stack(members)


def test_ensemble_out_is_read_back_by_report(dumps, tmp_path, capsys):
    paths, members = dumps
    out = tmp_path / "ens.csv"
    assert cli.main(["ensemble", "--dumps", ",".join(paths), "--baseline", "0",
                     "--k", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    macro = [ln for ln in printed.splitlines() if ln.startswith("ensemble macro accuracy")][0]

    _, _, fused = evaluation.read_prediction_dump(out)
    per_clip = [evaluation.ensemble_geomean(members[:, i]) for i in range(members.shape[1])]
    np.testing.assert_allclose(fused, np.stack(per_clip), rtol=1e-9)

    assert cli.main(["report", "--dumps", str(out)]) == 0
    average = [ln for ln in capsys.readouterr().out.splitlines()
               if ln.startswith("Average Accuracy")][0]
    assert average.split()[-1] == macro.split()[-1]


def test_ensemble_of_one_dump_exits_2(dumps, capsys):
    assert cli.main(["ensemble", "--dumps", dumps[0][0], "--baseline", "0"]) == 2
    assert "need at least two prediction dumps" in capsys.readouterr().err


def test_dumps_with_the_same_stem_collide(dumps, tmp_path, capsys):
    first = dumps[0][0]
    (tmp_path / "other").mkdir()
    second = tmp_path / "other" / "m0.predictions.csv"
    second.write_text(open(first).read())
    assert cli.main(["ensemble", "--dumps", f"{first},{second}", "--baseline", "0"]) == 1
    assert "dump names collide" in capsys.readouterr().err
