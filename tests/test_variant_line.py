"""A model spec's `variant` line takes exactly one name, as layer lines
take exactly their kind's numbers. Extra text was once parsed as the first
name and written into every checkpoint's spec."""

import pytest

from scenecls import cli, models, nn


def _spec(variant_line):
    text = models.format_model_spec(models.build_cnn1d(width=0.05, dense_units=4))
    return text.replace("variant v1\n", variant_line + "\n")


@pytest.mark.parametrize("line, count", [("variant v1 junk 7", 3), ("variant v1 v2", 2)])
def test_extra_text_on_the_variant_line_is_refused(line, count):
    with pytest.raises(ValueError) as info:
        models.parse_model_spec(_spec(line))
    assert str(info.value) == f"spec line {line!r}: variant takes one name, got {count}"


def test_a_checkpoint_with_extra_variant_text_names_its_file(tmp_path, capsys):
    graph = models.build_cnn1d(width=0.05, dense_units=4)
    path = tmp_path / "junk.spck"
    nn.write_checkpoint(path, _spec("variant v1 junk 7"), graph.state_tensors())
    with pytest.raises(nn.CheckpointError) as info:
        models.load_model(path)
    assert str(info.value).startswith(f"{path}: model spec: spec line 'variant v1 junk 7': ")

    assert cli.main(["predict", "--checkpoint", str(path), "--wav", str(tmp_path / "a.wav")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {path}: model spec: spec line 'variant v1 junk 7': "
                   "variant takes one name, got 3"]
