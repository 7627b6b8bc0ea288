"""`scenecls extract --workers N` runs its stale clips on threads of the one
process: a bad clip fails alone, nothing forks, no process pool is loaded,
and no more threads start than there are clips, all gone when it returns.
Worker counts stay small: these tests start at most two threads."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import scenecls
from helpers import write_wav
from scenecls import cli, pipeline


def _manifest(root, n_good, bad=False):
    rng = np.random.default_rng(7)
    (root / "audio").mkdir(parents=True)
    rows = []
    for i in range(n_good):
        write_wav(root / f"audio/g{i}.wav", rng.uniform(-0.5, 0.5, (1, 44100)), 44100)
        rows.append(f"audio/g{i}.wav\tcar")
    if bad:
        (root / "audio/bad.wav").write_bytes(b"not a wav at all")
        rows.insert(1, "audio/bad.wav\tbeach")
    (root / "meta.txt").write_text("\n".join(rows) + "\n")
    return root / "meta.txt"


def _extract(manifest, cache, workers):
    return cli.main(["extract", "--manifest", str(manifest), "--variant", "v1",
                     "--cache", str(cache), "--workers", str(workers)])


def _entries(cache):
    return {p.name: p.read_bytes() for p in cache.glob("*.lmsf")}


def test_a_bad_clip_fails_alone_on_two_workers(tmp_path, capsys):
    manifest = _manifest(tmp_path, 3, bad=True)
    assert _extract(manifest, tmp_path / "serial", 1) == 1
    capsys.readouterr()
    assert _extract(manifest, tmp_path / "threads", 2) == 1
    out, err = capsys.readouterr()
    assert "extracted features for 3 clips (0 already cached)" in out
    assert "4 clips in" in out and "1 failed" in out
    assert [line.split(":")[0] for line in err.splitlines() if line.startswith("FAILED")] \
        == ["FAILED audio/bad.wav"]
    serial = _entries(tmp_path / "serial")
    assert len(serial) == 3
    assert _entries(tmp_path / "threads") == serial


def test_two_workers_fork_nothing_and_load_no_process_pool(tmp_path):
    manifest = _manifest(tmp_path, 3)
    code = ("import os, sys\n"
            "forks = []\n"
            "real_fork = os.fork\n"
            "def fork():\n"
            "    forks.append(1)\n"
            "    return real_fork()\n"
            "os.fork = fork\n"
            "from scenecls import cli\n"
            f"rc = cli.main(['extract', '--manifest', {str(manifest)!r}, '--variant', 'v1',"
            f" '--cache', {str(tmp_path / 'cache')!r}, '--workers', '2'])\n"
            "loaded = [m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules]\n"
            "print(rc, len(forks), loaded)\n")
    src = str(Path(scenecls.__file__).parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 0 []"
    assert len(_entries(tmp_path / "cache")) == 3


def test_no_more_threads_than_stale_clips_and_none_left(tmp_path, monkeypatch):
    manifest = _manifest(tmp_path, 2)
    ran_on = set()
    clip_features = pipeline.clip_features

    def spy(*args):
        ran_on.add(threading.get_ident())
        return clip_features(*args)

    monkeypatch.setattr(pipeline, "clip_features", spy)
    before = threading.active_count()
    assert _extract(manifest, tmp_path / "cache", 4) == 0
    assert 1 <= len(ran_on) <= 2
    assert threading.active_count() == before
    assert len(_entries(tmp_path / "cache")) == 2
