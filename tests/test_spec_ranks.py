"""A model spec checks each layer's input rank against its kind.

Each `models._KINDS` entry states the rank of the per-sample input shape
its kind accepts. A layer line that gets another rank is a ValueError naming
the line and the shape it got, where it used to be a bare IndexError, or a
graph that parsed and failed only at its first forward. An `input` header
whose numbers cannot be read is a ValueError naming that line.
"""

import re

import pytest

from scenecls import models

HEADER = "name t\nvariant v1\n"

# (input line, layer line, the shape that layer gets)
MISMATCHES = [
    ("input 111", "conv1d 2 3", (111,)),
    ("input 111", "conv2d 2 3 3", (111,)),
    ("input 111 64", "conv2d 2 3 3", (111, 64)),
    ("input 111 64 1 1", "conv2d 2 3 3", (111, 64, 1, 1)),
    ("input 111 64 1", "conv1d 2 3", (111, 64, 1)),
    ("input 111", "maxpool1d 2", (111,)),
    ("input 111 64", "maxpool2d 2 2", (111, 64)),
    ("input 111 64", "fire 2 3", (111, 64)),
    ("input 111 64", "dense 15", (111, 64)),
]


@pytest.mark.parametrize("input_line,line,shape", MISMATCHES)
def test_a_layer_given_the_wrong_rank_names_its_line_and_shape(input_line, line, shape):
    text = f"{HEADER}{input_line}\n{line}\nflatten\ndense 15\nsoftmax\n"
    want = re.escape(f"spec line {line!r}: ") + r".*rank.*" + re.escape(f"got shape {shape}")
    with pytest.raises(ValueError, match=want):
        models.parse_model_spec(text)


def test_a_mismatch_after_other_layers_names_the_shape_they_made():
    text = f"{HEADER}input 12 8 1\nconv2d 2 3 3\nflatten\nconv2d 2 3 3\nsoftmax\n"
    with pytest.raises(ValueError, match=re.escape("'conv2d 2 3 3': conv2d takes a rank-3 "
                                                   "input, got shape (192,)")):
        models.parse_model_spec(text)


@pytest.mark.parametrize("input_line", ["input 111 x", "input 111 64.0 1", "input ,"])
def test_an_unreadable_input_line_names_itself(input_line):
    text = f"{HEADER}{input_line}\nflatten\ndense 15\nsoftmax\n"
    with pytest.raises(ValueError, match="^" + re.escape(f"spec line {input_line!r}: ")):
        models.parse_model_spec(text)


@pytest.mark.parametrize("input_line", ["input 6", "input 6 4", "input 6 4 2"])
def test_kinds_of_any_rank_take_every_rank(input_line):
    text = f"{HEADER}{input_line}\nbatchnorm\nrelu\ndropout 0.5\nflatten\ndense 15\nsoftmax\n"
    models.parse_model_spec(text)


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_every_registry_model_still_parses(name):
    assert models.build_model(name).spec_text
