"""A malformed model spec inside a checkpoint is a CheckpointError naming the file.

The spec's shape pass used to fail with whatever the broken line raised: a
bare ValueError, a ZeroDivisionError from a zero pool, or a MemoryError from
a dense layer no machine can hold, none of them naming the file and the last
two ending `scenecls predict` in a traceback.
"""

import re

import pytest

from scenecls import cli, models, nn
from scenecls.features import V2

# (line of the small LeNet's spec, what replaces it)
BAD_LINES = {
    "conv2d 2 3 x": ("conv2d 2 3 3", "conv2d 2 3 x"),
    "even kernel": ("conv2d 2 3 3", "conv2d 2 4 4"),
    "conv2d without arguments": ("conv2d 2 3 3", "conv2d"),
    "negative channels": ("conv2d 2 3 3", "conv2d -2 3 3"),
    "dropout above 1": ("dropout 0.5", "dropout 1.5"),
    "non-numeric input": ("input 43 64 1", "input 43 x 1"),
    "zero pool": ("maxpool2d 3 2", "maxpool2d 0 2"),
    "dense too large to allocate": ("dense 4", "dense 4000000000"),
}
# The spec errors parse_model_spec reports as a ValueError of its own.
VALUE_ERRORS = ["conv2d 2 3 x", "even kernel", "conv2d without arguments",
                "negative channels", "dropout above 1", "non-numeric input"]


def _bad_checkpoint(tmp_path, case):
    """A checkpoint whose spec has one bad line and whose tensors are the valid model's."""
    graph = models.build_lenet(3, V2, base_filters=2, dense_units=4, seed=0)
    old, new = BAD_LINES[case]
    lines = models.format_model_spec(graph).splitlines()
    lines[lines.index(old)] = new
    path = tmp_path / "badspec.spck"
    nn.write_checkpoint(path, "\n".join(lines) + "\n", graph.state_tensors())
    return path


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_load_model_raises_a_checkpoint_error_naming_the_file(case, tmp_path):
    path = _bad_checkpoint(tmp_path, case)
    with pytest.raises(nn.CheckpointError, match="^" + re.escape(f"{path}: model spec: ")):
        models.load_model(path)


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_predict_prints_the_error_and_returns_one(case, tmp_path, capsys):
    path = _bad_checkpoint(tmp_path, case)
    argv = ["predict", "--checkpoint", str(path), "--wav", str(tmp_path / "clip.wav")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: model spec: ")


@pytest.mark.parametrize("case", VALUE_ERRORS)
def test_parse_model_spec_still_raises_a_value_error(case, tmp_path):
    spec_text, _ = nn.read_checkpoint(_bad_checkpoint(tmp_path, case))
    with pytest.raises(ValueError):
        models.parse_model_spec(spec_text)
