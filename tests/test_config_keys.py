"""A config key outside TrainConfig's fields, or one set twice, is an error
naming the file and line, not a TypeError's wording or a silent last-wins."""

import pytest

from scenecls import cli, pipeline


def test_a_key_set_twice_names_both_lines(tmp_path):
    cpath = tmp_path / "run.cfg"
    cpath.write_text("model = cnn-1d\nepochs = 10\n# more\nepochs = 200\n")
    with pytest.raises(ValueError) as err:
        pipeline.parse_config(cpath)
    assert str(err.value) == f"{cpath}:4: epochs already set on line 2"


def test_variant_set_twice_is_an_error_too(tmp_path):
    cpath = tmp_path / "run.cfg"
    cpath.write_text("model = cnn-v1\nvariant = v2\nvariant = v2\n")
    with pytest.raises(ValueError, match=r"run\.cfg:3: variant already set on line 2$"):
        pipeline.parse_config(cpath)


def test_an_unknown_key_names_its_line(tmp_path):
    cpath = tmp_path / "run.cfg"
    cpath.write_text("model = cnn-1d\nepoch = 10\n")
    with pytest.raises(ValueError) as err:
        pipeline.parse_config(cpath)
    assert str(err.value) == f"{cpath}:2: unknown key 'epoch'"


def test_train_reports_it_as_an_error(tmp_path, capsys):
    cpath = tmp_path / "run.cfg"
    cpath.write_text("model = cnn-1d\nseed = 1\nseed = 2\n")
    assert cli.main(["train", "--config", str(cpath)]) == 1
    assert capsys.readouterr().err == f"error: {cpath}:3: seed already set on line 2\n"


def test_every_field_once_still_parses(tmp_path):
    cpath = tmp_path / "run.cfg"
    cpath.write_text("model = cnn-v1\nvariant = v2\ntrain_manifest = t.txt\n"
                     "val_manifest = v.txt\ncache_dir = c\ncheckpoint_dir = k\n"
                     "batch_size = 8\nepochs = 2\nseed = 3\n")
    cfg = pipeline.parse_config(cpath)
    assert (cfg.model, cfg.batch_size, cfg.epochs, cfg.seed) == ("cnn-v1", 8, 2, 3)
    assert (cfg.train_manifest, cfg.checkpoint_dir) == ("t.txt", "k")
