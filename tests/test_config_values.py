"""A config value that must be an integer and is not names the file, the line,
the key and the value."""

import pytest

from scenecls import cli, pipeline


@pytest.mark.parametrize("key, value", [("batch_size", "abc"), ("epochs", "1.5"),
                                        ("seed", "")])
def test_non_integer_value_names_file_line_and_key(tmp_path, key, value):
    cpath = tmp_path / "run.cfg"
    cpath.write_text(f"model = cnn-v2-1\n# a comment\n{key} = {value}\n")
    with pytest.raises(ValueError) as err:
        pipeline.parse_config(cpath)
    assert str(err.value) == f"{cpath}:3: {key} must be an integer, got {value!r}"


def test_train_reports_it_as_an_error(tmp_path, capsys):
    cpath = tmp_path / "run.cfg"
    cpath.write_text("model = cnn-v2-1\nbatch_size = abc\n")
    assert cli.main(["train", "--config", str(cpath)]) == 1
    assert capsys.readouterr().err == f"error: {cpath}:2: batch_size must be an integer, got 'abc'\n"
