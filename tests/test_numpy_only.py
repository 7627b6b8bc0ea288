"""scenecls runs on numpy and the standard library alone: no module of the
package imports anything else, and a v1 extraction, which resamples, leaves
scipy unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from helpers import write_wav

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scenecls"


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    allowed = set(sys.stdlib_module_names) | {"numpy", "scenecls", "__future__"}
    foreign = {(p.name, root) for p in modules for root in _imported_roots(p)
               if root not in allowed}
    assert foreign == set()


def test_v1_extract_leaves_scipy_unloaded(tmp_path):
    write_wav(tmp_path / "a.wav", np.random.default_rng(0).uniform(-0.5, 0.5, (2, 44100)),
              44100, bits=24)
    (tmp_path / "meta.txt").write_text("a.wav\tbeach\n")
    code = (
        "import sys\n"
        "from scenecls import cli\n"
        f"rc = cli.main(['extract', '--manifest', {str(tmp_path / 'meta.txt')!r},"
        f" '--variant', 'v1', '--cache', {str(tmp_path / 'cache')!r}, '--workers', '1'])\n"
        "print('exit', rc, 'scipy', 'scipy' in sys.modules)\n"
    )
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "exit 0 scipy False"
    assert len(list((tmp_path / "cache").glob("*.v1.lmsf"))) == 1
