"""`scenecls extract` says how fast it ran: after its summary line, one line
with the clips it extracted, the seconds they took, the rate and the
failures."""

import re

import numpy as np

from helpers import write_wav
from scenecls import cli

RATE_LINE = re.compile(r"^(\d+) clips in (\d+\.\d\d) s \((\d+\.\d) clips/s\), (\d+) failed$")


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out.splitlines()


def test_rate_line_counts_extracted_clips_and_failures(tmp_path, capsys):
    (tmp_path / "audio").mkdir()
    rng = np.random.default_rng(4)
    rows = []
    for i in range(3):
        write_wav(tmp_path / f"audio/c{i}.wav", rng.uniform(-0.5, 0.5, (1, 16000)), 16000)
        rows.append(f"audio/c{i}.wav\tcar")
    (tmp_path / "meta.txt").write_text("\n".join(rows) + "\n")
    argv = ["extract", "--manifest", str(tmp_path / "meta.txt"), "--variant", "v1",
            "--cache", str(tmp_path / "cache"), "--workers", "1"]

    code, lines = _run(argv, capsys)
    assert code == 0
    assert lines[0] == f"extracted features for 3 clips (0 already cached) -> {tmp_path / 'cache'}"
    m = RATE_LINE.match(lines[1])
    assert m, lines
    n, seconds, rate, failed = int(m[1]), float(m[2]), float(m[3]), int(m[4])
    assert (n, failed) == (3, 0)
    assert seconds >= 0 and rate > 0  # three 1 s clips may take under 5 ms

    code, lines = _run(argv, capsys)  # warm: nothing to extract
    assert code == 0
    assert "(3 already cached)" in lines[0]
    assert RATE_LINE.match(lines[1])[1] == "0" and lines[1].endswith(", 0 failed")

    (tmp_path / "audio/bad.wav").write_bytes(b"not a wav")
    (tmp_path / "meta.txt").write_text("\n".join(rows + ["audio/bad.wav\tcar"]) + "\n")
    code, lines = _run(argv, capsys)
    assert code == 1
    m = RATE_LINE.match(lines[1])
    assert (int(m[1]), int(m[4])) == (1, 1)
