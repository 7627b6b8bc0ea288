"""Every layer line of a model spec takes exactly its kind's numbers.

A line with one number too many used to parse, the extra number silently
ignored (`relu 3`, `softmax 1`, `dense 4 7`, `dropout 0.5 0.9`), and one too
few failed, if at all, with an unpacking error naming neither the kind nor
the line (`maxpool2d 3`). Both are now a ValueError naming the line, and a
checkpoint carrying such a line is a CheckpointError naming the file.
"""

import re

import pytest

from scenecls import models, nn
from scenecls.features import V1, V2

SMALL = {
    "lenet": lambda: models.build_lenet(3, V2, base_filters=2, dense_units=4, seed=0),
    "squeezenet": lambda: models.build_squeezenet_mini(V1, width=0.05, dropout_rate=0.1),
    "cnn1d": lambda: models.build_cnn1d(V1, width=0.05, dense_units=8, dropout_rate=0.2),
}

# Per kind: a small model whose spec holds the line, and the line.
LINES = {
    "conv2d": ("lenet", "conv2d 2 3 3"),
    "conv1d": ("cnn1d", "conv1d 3 5"),
    "batchnorm": ("lenet", "batchnorm"),
    "relu": ("lenet", "relu"),
    "maxpool2d": ("lenet", "maxpool2d 3 2"),
    "maxpool1d": ("cnn1d", "maxpool1d 3"),
    "globalavgpool": ("squeezenet", "globalavgpool"),
    "dropout": ("lenet", "dropout 0.5"),
    "flatten": ("lenet", "flatten"),
    "dense": ("lenet", "dense 4"),
    "softmax": ("lenet", "softmax"),
    "fire": ("squeezenet", "fire 1 3"),
}
TOO_MANY = {kind: line + (" 0.9" if kind == "dropout" else " 7")
            for kind, (_, line) in LINES.items()}
TOO_FEW = {kind: line.rsplit(" ", 1)[0] for kind, (_, line) in LINES.items() if " " in line}
WRONG_COUNTS = sorted(TOO_MANY.items()) + sorted(TOO_FEW.items())


def _spec_with(kind, new_line):
    """The small model's spec text with its first ``kind`` line replaced, and
    the model itself."""
    graph = SMALL[LINES[kind][0]]()
    lines = models.format_model_spec(graph).splitlines()
    lines[lines.index(LINES[kind][1])] = new_line
    return "\n".join(lines) + "\n", graph


def test_every_layer_kind_is_covered():
    kinds = {cls.kind for cls in vars(nn).values()
             if isinstance(cls, type) and issubclass(cls, nn.Layer) and cls is not nn.Layer}
    assert set(LINES) == kinds


@pytest.mark.parametrize("kind", sorted(LINES))
def test_the_unchanged_lines_parse(kind):
    text, _ = _spec_with(kind, LINES[kind][1])
    assert models.format_model_spec(models.parse_model_spec(text)) == text


@pytest.mark.parametrize("kind,bad", WRONG_COUNTS)
def test_a_wrong_count_of_numbers_is_a_value_error_naming_the_line(kind, bad):
    text, _ = _spec_with(kind, bad)
    with pytest.raises(ValueError, match=re.escape(repr(bad))) as err:
        models.parse_model_spec(text)
    assert not isinstance(err.value, nn.CheckpointError)
    assert f"{kind} takes {len(LINES[kind][1].split()) - 1} numbers" in str(err.value)


@pytest.mark.parametrize("kind,bad", WRONG_COUNTS)
def test_load_model_of_such_a_checkpoint_is_a_checkpoint_error(kind, bad, tmp_path):
    text, graph = _spec_with(kind, bad)
    path = tmp_path / "bad.spck"
    nn.write_checkpoint(path, text, graph.state_tensors())
    want = "^" + re.escape(f"{path}: model spec: ") + ".*" + re.escape(repr(bad))
    with pytest.raises(nn.CheckpointError, match=want):
        models.load_model(path)


@pytest.mark.parametrize("kind,bad", [("dense", "dense four"), ("dropout", "dropout half"),
                                      ("fire", "fire 1 3.0"), ("maxpool1d", "maxpool1d 3e0")])
def test_a_number_its_type_cannot_read_names_the_line(kind, bad):
    text, _ = _spec_with(kind, bad)
    want = re.escape(repr(bad)) + ": (invalid literal|could not convert)"
    with pytest.raises(ValueError, match=want):
        models.parse_model_spec(text)


def test_a_number_its_layer_refuses_names_the_line():
    text, _ = _spec_with("conv2d", "conv2d 2 4 4")
    with pytest.raises(ValueError, match=re.escape("'conv2d 2 4 4'") + ".*odd"):
        models.parse_model_spec(text)


def test_an_unknown_kind_stays_a_checkpoint_error():
    text, _ = _spec_with("relu", "gelu")
    with pytest.raises(nn.CheckpointError, match="unknown layer kind 'gelu'"):
        models.parse_model_spec(text)

