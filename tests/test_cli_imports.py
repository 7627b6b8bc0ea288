"""Importing `scenecls.cli` loads no process pool: `extract` imports one only
where it starts one, so every other command, and `extract --workers 1`,
starts without `multiprocessing`."""

import os
import subprocess
import sys
from pathlib import Path

import scenecls


def test_cli_import_leaves_multiprocessing_unloaded():
    code = ("import sys\n"
            "import scenecls.cli\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules))\n")
    src = str(Path(scenecls.__file__).parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
