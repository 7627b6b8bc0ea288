"""The `nn` worker pool's life: no thread at import or on one core, a pool
only once a pass is dealt out, none carried into a forked child; and the one
core count that both the pool and `scenecls extract --workers` start from."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import scenecls
from helpers import write_wav
from scenecls import cli, models, nn
from scenecls.features import V1


def _step(graph):
    x = np.random.default_rng(0).standard_normal((6, *graph.input_shape)).astype(np.float32)
    nn.loss_and_gradients(graph, x, [0, 1, 2, 3, 4, 5])
    return [p.grad.copy() for p in graph.parameters()]


@pytest.fixture
def no_pool(monkeypatch):
    """A process without a pool yet, and passes small enough blocks to deal."""
    monkeypatch.setattr(nn, "_pool", None)
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 4096)
    yield
    if nn._pool is not None:
        nn._pool.shutdown()


def _small_lenet():
    graph = models.build_lenet(3, V1, base_filters=4, dense_units=8, seed=2)
    graph.cast(np.float32)
    return graph


def test_importing_scenecls_starts_no_thread_and_loads_no_executor():
    code = ("import sys, threading\n"
            "import scenecls.cli\n"
            "print(threading.active_count(), 'concurrent.futures.thread' in sys.modules)\n")
    src = str(Path(scenecls.__file__).parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "False"]


def test_one_worker_makes_no_pool_and_starts_no_thread(no_pool, monkeypatch):
    monkeypatch.setattr(nn, "cores", lambda: 1)
    before = threading.active_count()
    _step(_small_lenet())
    assert nn._pool is None
    assert threading.active_count() == before


def _wav_set(root, n):
    rng = np.random.default_rng(3)
    (root / "audio").mkdir()
    rows = []
    for i in range(n):
        write_wav(root / f"audio/c{i}.wav", rng.uniform(-0.5, 0.5, (1, 44100)), 44100)
        rows.append(f"audio/c{i}.wav\tcar")
    (root / "meta.txt").write_text("\n".join(rows) + "\n")
    return root / "meta.txt"


def test_extract_workers_fork_cleanly_after_the_pool_ran(no_pool, monkeypatch, tmp_path):
    monkeypatch.setattr(nn, "cores", lambda: 2)
    _step(_small_lenet())
    assert nn._pool is not None
    manifest = _wav_set(tmp_path, 3)
    caches = {}
    for workers in ("2", "1"):
        cache = tmp_path / f"cache{workers}"
        assert cli.main(["extract", "--manifest", str(manifest), "--variant", "v1",
                         "--cache", str(cache), "--workers", workers]) == 0
        caches[workers] = {p.name: p.read_bytes() for p in cache.glob("*.lmsf")}
    assert len(caches["1"]) == 3
    assert caches["2"] == caches["1"]


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_a_forked_child_deals_to_a_pool_of_its_own(no_pool, monkeypatch):
    """The child inherits the parent's executor but none of its threads; work
    submitted to it would never run, and this test would time out."""
    monkeypatch.setattr(nn, "cores", lambda: 2)
    want = _step(_small_lenet())
    assert nn._pool is not None
    pid = os.fork()
    if pid == 0:  # the child: report through the exit status only
        code = 3
        try:
            fresh = nn._pool is None
            same = all(a.tobytes() == b.tobytes() for a, b in zip(_step(_small_lenet()), want))
            code = 0 if fresh and same and nn._pool is not None else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on the parent's pool")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


def test_the_core_count_is_the_affinity_set_and_the_extract_default():
    if hasattr(os, "sched_getaffinity"):
        assert nn.cores() == len(os.sched_getaffinity(0))
    args = cli.build_parser().parse_args(
        ["extract", "--manifest", "m", "--variant", "v1", "--cache", "c"])
    assert args.workers == nn.cores()


@pytest.mark.parametrize("workers", ["0", "-2", "two"])
def test_extract_rejects_a_worker_count_below_one(workers, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["extract", "--manifest", str(tmp_path / "m.txt"), "--variant", "v1",
                  "--cache", str(tmp_path / "cache"), "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()
