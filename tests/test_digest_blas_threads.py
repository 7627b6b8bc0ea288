"""tools/bit_digest.py pins one BLAS thread unless OPENBLAS_NUM_THREADS is
set: OpenBLAS's own default thread count changes the step, ckpt and row
digests of the models whose products it splits across threads, so a run
from a shell without the variable must print what a one-thread run
prints."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _digest_lines(**threads):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(threads, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bit_digest.py"), "0"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_bit_digest_without_the_variable_matches_one_thread():
    assert _digest_lines() == _digest_lines(OPENBLAS_NUM_THREADS="1")
