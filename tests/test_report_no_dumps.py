"""`report` and `ensemble` given no prediction dumps: a one-line error and
an exit code, never a traceback."""

import pytest

from scenecls import cli


@pytest.mark.parametrize("dumps", [",", ""])
def test_report_of_no_dumps_is_an_error(dumps, capsys):
    assert cli.main(["report", "--dumps", dumps]) == 1
    assert capsys.readouterr().err == "error: no prediction dumps given\n"


def test_ensemble_of_no_dumps_still_exits_2(capsys):
    assert cli.main(["ensemble", "--dumps", ",", "--baseline", "0"]) == 2
    assert "need at least two prediction dumps" in capsys.readouterr().err


def test_load_dumps_refuses_an_empty_list():
    with pytest.raises(ValueError, match="no prediction dumps given"):
        cli._load_dumps([])
