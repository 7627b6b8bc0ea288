"""`nn._deal` on an error: no run outlives the pass, the pass re-raises the
caller's error or else the first pool run's, and the next pass still deals
its runs out to the pool."""

import threading
import time

import pytest

from scenecls import nn


@pytest.fixture
def fresh_pool(monkeypatch):
    """A process without a pool yet; each test sets the cores it deals to."""
    monkeypatch.setattr(nn, "_pool", None)
    yield
    if nn._pool is not None:
        nn._pool.shutdown()


def _deal(workers, monkeypatch, fn):
    monkeypatch.setattr(nn, "cores", lambda: workers)
    nn._deal(workers, workers * nn._BLOCK_BYTES, fn)


class RunError(Exception):
    pass


def test_a_callers_error_waits_for_the_pool_run_then_the_next_pass_deals(fresh_pool,
                                                                        monkeypatch):
    pool_started, pool_done = threading.Event(), threading.Event()

    def failing(i0, i1):
        if i0 == 0:
            assert pool_started.wait(10)
            raise RunError("caller")
        pool_started.set()
        time.sleep(0.2)
        pool_done.set()

    with pytest.raises(RunError, match="caller"):
        _deal(2, monkeypatch, failing)
    assert pool_done.is_set()

    runs = {}

    def recording(i0, i1):
        runs[i0, i1] = threading.current_thread().name

    _deal(2, monkeypatch, recording)
    assert runs[0, 1] == threading.current_thread().name
    assert runs[1, 2].startswith("scenecls-nn")


def test_the_first_pool_runs_error_is_raised_when_the_caller_succeeds(fresh_pool,
                                                                      monkeypatch):
    second_failed = threading.Event()
    done = []

    def fn(i0, i1):
        if i0 == 1:
            assert second_failed.wait(10)
            raise RunError("first pool run")
        if i0 == 2:
            second_failed.set()
            raise RunError("second pool run")
        done.append(i0)

    with pytest.raises(RunError, match="first pool run"):
        _deal(3, monkeypatch, fn)
    assert done == [0]
