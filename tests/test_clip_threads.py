"""`evaluation.predict_clips` deals its clips across cores: one run per core,
the first in the calling thread on the graph itself, each other run on its
own twin. The rows keep the bytes of a serial `predict_clip` loop at any
worker count, forced here through `nn.cores`."""

import re
import sys
import threading

import numpy as np
import pytest

from scenecls import evaluation, nn
from scenecls.features import V1
from test_step_guards import SMALL_GRAPHS


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool yet, and passes small enough to deal within one clip; the pool
    this test makes is shut down after it."""
    monkeypatch.setattr(nn, "_pool", None)
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 4096)
    yield
    if nn._pool is not None:
        nn._pool.shutdown()


def _graph(name):
    graph = SMALL_GRAPHS[name]()
    graph.cast(np.float32)
    return graph


def _clips(n, seed=5):
    shape = (n, V1.n_segments, V1.segment_frames, V1.n_mels)
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_rows_equal_serial_predict_clip(name, workers, fresh_pool, monkeypatch):
    graph, clips = _graph(name), _clips(5)
    monkeypatch.setattr(nn, "cores", lambda: workers)
    # each clip alone, its passes dealt at 2 and 3 cores
    want = np.stack([evaluation.predict_clip(graph, clip) for clip in clips])

    seen = []  # (thread, graph) per clip
    inner = evaluation.predict_clip

    def spy(g, clip):
        seen.append((threading.get_ident(), id(g)))
        return inner(g, clip)

    monkeypatch.setattr(evaluation, "predict_clip", spy)
    got = evaluation.predict_clips(graph, clips)
    assert got.shape == (5, evaluation.N_CLASSES) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert len(seen) == 5
    # one graph per run, each in one thread: the original in the calling
    # thread, every twin on the pool
    threads = {}
    for t, g in seen:
        threads.setdefault(g, set()).add(t)
    assert len(threads) == workers
    assert all(len(ts) == 1 for ts in threads.values())
    assert threads.pop(id(graph)) == {threading.get_ident()}
    assert threading.get_ident() not in set().union(*threads.values())


class _NoPool:
    def submit(self, *args):
        raise AssertionError("a pass was dealt to the pool")


@pytest.mark.parametrize("n", [0, 1])
def test_zero_or_one_clip_starts_no_thread_and_builds_no_twin(n, monkeypatch):
    graph, clips = _graph("lenet-7x7"), _clips(n)
    monkeypatch.setattr(nn, "cores", lambda: 2)
    monkeypatch.setattr(nn, "_pool", _NoPool())
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 1 << 40)  # no pass within the clip is dealt

    def no_twin(self):
        raise AssertionError("a twin was built")

    monkeypatch.setattr(nn.ModelGraph, "twin", no_twin)
    before = threading.active_count()
    got = evaluation.predict_clips(graph, clips)
    assert threading.active_count() == before
    assert got.shape == (n, evaluation.N_CLASSES)
    if n:
        assert got[0].tobytes() == evaluation.predict_clip(graph, clips[0]).tobytes()


def test_wrong_segment_count_in_second_run_raises_as_serial(fresh_pool, monkeypatch):
    graph = _graph("cnn-1d")
    good, bad = _clips(1)[0], _clips(1)[0][:-1]
    with pytest.raises(ValueError) as serial:
        evaluation.predict_clip(graph, bad)
    monkeypatch.setattr(nn, "cores", lambda: 2)
    with pytest.raises(ValueError, match=re.escape(str(serial.value))):
        evaluation.predict_clips(graph, [good, bad])


def test_more_runs_than_cores_with_fast_switching(fresh_pool, monkeypatch):
    """Four runs of twins on a machine of two cores or fewer, switching threads
    as often as the interpreter allows: every row still has its serial bytes."""
    graph, clips = _graph("cnn-1d"), _clips(9, seed=6)
    want = np.stack([evaluation.predict_clip(graph, clip) for clip in clips])
    monkeypatch.setattr(nn, "cores", lambda: 4)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: got.append(evaluation.predict_clips(graph, clips)),
                                  daemon=True)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive() and len(got) == 1
    assert got[0].tobytes() == want.tobytes()
