"""tools/front_digest.py runs in a child process and prints one digest line
per (variant, rate) pair: every standard rate from 8 to 192 kHz at or above
the variant's rate, and 16,001 and 16,383 Hz for v1. A short clip keeps the
run to a second or two."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

V1_RATES = [16000, 16001, 16383, 22050, 32000, 44100, 48000, 88200, 96000, 176400, 192000]
V2_RATES = [44100, 48000, 88200, 96000, 176400, 192000]


def test_front_digest_prints_a_line_per_variant_and_rate():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "front_digest.py"), "3", "0.05"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    pairs = [("v1", r) for r in V1_RATES] + [("v2", r) for r in V2_RATES]
    assert [(ln.split()[0], int(ln.split()[1])) for ln in lines] == pairs
    for ln in lines:
        assert re.fullmatch(r"v[12] +\d+ Hz [0-9a-f]{12}", ln)
    assert len({ln.split()[-1] for ln in lines}) == len(lines)
