"""Manifests, configs and prediction dumps end their lines at LF, CRLF or CR,
the breaks text mode reads: each spelling reads the same rows, and an error
names the same line number."""

import numpy as np
import pytest

from scenecls import evaluation, pipeline

BREAKS = {"LF": b"\n", "CRLF": b"\r\n", "CR": b"\r"}


def write_lines(path, lines, brk):
    path.write_bytes(brk.join(lines) + brk)
    return path


def dump_row(clip, label):
    probs = ",".join(f"{v:.10e}" for v in np.linspace(0.01, 0.15, evaluation.N_CLASSES))
    return f"{clip},{label},{probs}".encode()


MANIFEST = [b"a.wav\tbeach", b"", b"  ", b"sub/b.wav\tbus ", b"c.wav\ttram"]
CONFIG = [b"# a run", b"model = cnn-1d", b"", b"epochs = 3  # short", b"seed=7",
          b"train_manifest = t.tsv"]
DUMP = [dump_row("a.wav", "beach"), b"", dump_row("b.wav", "bus")]


def read_all(tmp_path, brk):
    d = tmp_path / brk.hex()
    d.mkdir()
    manifest = pipeline.load_manifest(write_lines(d / "m.tsv", MANIFEST, brk))
    config = pipeline.parse_config(write_lines(d / "run.cfg", CONFIG, brk))
    ids, labels, probs = evaluation.read_prediction_dump(write_lines(d / "p.csv", DUMP, brk))
    return ([(e.path, e.label, e.wav.relative_to(d)) for e in manifest.entries], config,
            ids, labels.tolist(), probs.tobytes())


@pytest.mark.parametrize("brk", [BREAKS["CRLF"], BREAKS["CR"]], ids=["CRLF", "CR"])
def test_each_break_reads_the_same_rows(tmp_path, brk):
    want = read_all(tmp_path, b"\n")
    assert want[0][1][0] == "sub/b.wav" and want[1].epochs == 3 and len(want[2]) == 2
    assert read_all(tmp_path, brk) == want


@pytest.mark.parametrize("brk", BREAKS.values(), ids=BREAKS)
def test_errors_name_the_same_line(tmp_path, brk):
    bad_manifest = write_lines(tmp_path / "m.tsv", [b"a.wav\tbeach", b"", b"b.wav\tnowhere"], brk)
    with pytest.raises(ValueError, match=r"m\.tsv:3: unknown scene label"):
        pipeline.load_manifest(bad_manifest)
    bad_config = write_lines(tmp_path / "run.cfg", [b"model = cnn-1d", b"# x", b"colour = red"],
                             brk)
    with pytest.raises(ValueError, match=r"run\.cfg:3: unknown key"):
        pipeline.parse_config(bad_config)


def test_other_unicode_breaks_stay_inside_a_line(tmp_path):
    """Text mode splits at LF, CRLF and CR only: a form feed, NEL or U+2028
    is text, though str.splitlines would break there."""
    text = "a\x0cb\x85c\u2028d"
    path = write_lines(tmp_path / "x.txt", [text.encode()], b"\n")
    assert list(evaluation.text_lines(path)) == [(1, text)]
