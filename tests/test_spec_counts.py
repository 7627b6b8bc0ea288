"""Every count on a model-spec line is a positive integer, and no layer's
output shape has an empty axis; each case is a ValueError naming its line.

Before these checks `maxpool1d 0` raised a bare ZeroDivisionError, a
negative input dimension was blamed on a later line, and a zero count or a
pool larger than its input parsed and failed only at the first forward.
A negative training seed is a config error naming the key and the file.
"""

import re

import pytest

from scenecls import cli, models, pipeline

HEADER = "name t\nvariant v1\n"
TAIL = "flatten\ndense 15\nsoftmax\n"


def _refused(text, line):
    with pytest.raises(ValueError, match="^" + re.escape(f"spec line {line!r}: ")):
        models.parse_model_spec(text)


@pytest.mark.parametrize("input_line", ["input -3 64 1", "input 0 64 1", "input 111 0",
                                        "input 111 64 -1"])
def test_an_input_dimension_below_one_names_the_input_line(input_line):
    _refused(f"{HEADER}{input_line}\n{TAIL}", input_line)


@pytest.mark.parametrize("input_line, line", [
    ("input 111 64 1", "conv2d 0 3 3"),
    ("input 111 64 1", "conv2d 4 -3 3"),
    ("input 111 64", "conv1d 0 5"),
    ("input 111 64", "conv1d 4 -1"),
    ("input 111 64", "maxpool1d 0"),
    ("input 111 64 1", "maxpool2d 0 2"),
    ("input 111 64 1", "maxpool2d 3 -2"),
    ("input 111 64 1", "fire 0 4"),
    ("input 111 64 1", "fire 2 0"),
])
def test_a_count_below_one_names_its_line(input_line, line):
    _refused(f"{HEADER}{input_line}\n{line}\n{TAIL}", line)


def test_a_zero_count_says_what_it_wanted():
    with pytest.raises(ValueError, match=re.escape("expected a positive integer, got '0'")):
        models.parse_model_spec(f"{HEADER}input 111 64\nmaxpool1d 0\n{TAIL}")


def test_a_dense_of_no_units_names_its_line():
    _refused(f"{HEADER}input 8\ndense 0\nsoftmax\n", "dense 0")


@pytest.mark.parametrize("input_line, line, shape", [
    ("input 111 64 1", "maxpool2d 200 2", (0, 32, 1)),
    ("input 111 64 1", "maxpool2d 2 65", (55, 0, 1)),
    ("input 111 64", "maxpool1d 112", (0, 64)),
])
def test_a_pool_that_leaves_an_empty_axis_names_its_line(input_line, line, shape):
    text = f"{HEADER}{input_line}\n{line}\n{TAIL}"
    _refused(text, line)
    with pytest.raises(ValueError, match=re.escape(f"output shape {shape}")):
        models.parse_model_spec(text)


@pytest.mark.parametrize("line", ["maxpool2d 111 64", "maxpool1d 111"])
def test_a_pool_as_large_as_its_input_still_parses(line):
    input_line = "input 111 64 1" if line.startswith("maxpool2d") else "input 111 64"
    graph = models.parse_model_spec(f"{HEADER}{input_line}\n{line}\n{TAIL}")
    assert graph.trace_shapes()[0][1][:1] == (1,)


def test_a_negative_seed_is_a_config_error(tmp_path):
    cpath = tmp_path / "run.cfg"
    cpath.write_text("model = cnn-1d\nseed = -1\n")
    with pytest.raises(ValueError) as err:
        pipeline.parse_config(cpath)
    assert str(err.value) == f"{cpath}: seed must be >= 0"


def test_train_reports_a_negative_seed_as_an_error(tmp_path, capsys):
    cpath = tmp_path / "run.cfg"
    cpath.write_text("model = cnn-1d\nseed = -1\n")
    assert cli.main(["train", "--config", str(cpath)]) == 1
    assert capsys.readouterr().err == f"error: {cpath}: seed must be >= 0\n"


def test_seed_zero_is_still_a_seed():
    assert pipeline.TrainConfig("cnn-1d", seed=0).seed == 0
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        pipeline.TrainConfig("cnn-1d", seed=-5)
