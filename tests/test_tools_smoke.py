"""Each script in tools/ runs in a child process and prints what its
docstring promises: code_lines.py a count per module and a total,
bit_digest.py one line of digests per registry model, the same on a second
run, and step_memory.py a line per step and the max RSS."""

import os
import re
import subprocess
import sys
from pathlib import Path

from scenecls import models

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / script), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_code_lines_counts_each_module_and_the_total():
    lines = _run("code_lines.py")
    modules = sorted(p.name for p in (ROOT / "src" / "scenecls").glob("*.py"))
    assert [ln.split()[0] for ln in lines] == modules + ["total"]
    counts = [int(ln.split()[1]) for ln in lines]
    assert all(n > 0 for n in counts) and counts[-1] == sum(counts[:-1])


def test_bit_digest_prints_one_stable_line_per_model():
    lines = _run("bit_digest.py", "0")
    assert [ln.split()[0] for ln in lines] == list(models.MODEL_NAMES)
    for ln in lines:
        assert re.fullmatch(r"\S+ +init=\w{12} state=\w{12} step=\w{12} ckpt=\w{12} row=\w{12}", ln)
    assert _run("bit_digest.py", "0") == lines


def test_step_memory_reports_a_step_and_the_max_rss():
    lines = _run("step_memory.py", "cnn-1d", "8", "1")
    assert any(ln.startswith("step 0:") for ln in lines)
    assert any(ln.startswith("max RSS") for ln in lines)
