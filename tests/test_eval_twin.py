"""What lets clips run on threads: an eval forward through a ModelGraph keeps
no backward caches, `ModelGraph.twin` shares the weights and copies nothing
else of size, and a `_deal` inside a dealt run stays in its thread."""

import math
import threading

import numpy as np
import pytest

from scenecls import nn
from test_step_guards import SMALL_GRAPHS


def _graph(name):
    graph = SMALL_GRAPHS[name]()
    graph.cast(np.float32)
    return graph


def _x(graph, n=3, seed=1):
    return np.random.default_rng(seed).standard_normal((n, *graph.input_shape)).astype(np.float32)


def _layers(graph):
    """Every layer with a path, Fire's sublayers included."""
    todo = [(f"{i:02d}.{layer.kind}", layer) for i, layer in enumerate(graph.layers)]
    while todo:
        path, layer = todo.pop()
        yield path, layer
        todo += [(f"{path}.{k}", v) for k, v in vars(layer).items() if isinstance(v, nn.Layer)]


def _held(graph):
    """(layer path, attribute) -> value for what layers hold from a forward:
    arrays and tuples, other than the running statistics."""
    out = {}
    for path, layer in _layers(graph):
        stats = {id(a) for _, a in layer.extra_state()}
        for k, v in vars(layer).items():
            if isinstance(v, (np.ndarray, tuple)) and id(v) not in stats:
                out[path, k] = v
    return out


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_eval_forward_keeps_no_cache_and_train_forward_keeps_them(name):
    graph = _graph(name)
    graph.forward(_x(graph), train=True)
    kept = _held(graph)
    assert kept
    if name == "squeezenet":  # the sublayers of every Fire module keep theirs
        assert {k for k in kept if k[0].count(".") == 2} == {
            (f"{i:02d}.fire.{sub}", attr)
            for i, layer in enumerate(graph.layers) if layer.kind == "fire"
            for sub, attr in (("squeeze", "_x"), ("expand1", "_x"), ("expand3", "_x"),
                              ("_relu_sq", "_mask"), ("_relu_e1", "_mask"),
                              ("_relu_e3", "_mask"))}
    graph.forward(_x(graph), train=False)
    assert _held(graph) == {}
    layers = dict(_layers(graph))
    assert all(getattr(layers[path], attr) is None for path, attr in kept)


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_twin_shares_weights_and_stats_and_holds_no_cache(name):
    graph = _graph(name)
    graph.forward(_x(graph, n=4), train=True)
    twin = graph.twin()
    assert twin is not graph and twin.layers is not graph.layers
    mine, theirs = graph.parameters(), twin.parameters()
    assert len(mine) == len(theirs) and all(a is b for a, b in zip(mine, theirs))
    stats = [(a, b) for la, lb in zip(graph.layers, twin.layers)
             for (_, a), (_, b) in zip(la.extra_state(), lb.extra_state())]
    assert all(a is b for a, b in stats)
    assert len(stats) == 2 * sum(layer.kind == "batchnorm" for layer in graph.layers)
    assert all(a is not b for (_, a), (_, b) in zip(_layers(graph), _layers(twin)))
    assert _held(twin) == {} and _held(graph) == {}

    x = _x(graph, seed=2)
    assert twin.forward(x).tobytes() == graph.forward(x).tobytes()


@pytest.fixture
def fresh_pool(monkeypatch):
    """A one-thread pool made by this test, shut down after it."""
    monkeypatch.setattr(nn, "_pool", None)
    monkeypatch.setattr(nn, "cores", lambda: 2)
    yield
    if nn._pool is not None:
        nn._pool.shutdown()


def test_deal_inside_a_dealt_run_stays_in_its_thread(fresh_pool):
    outer, inner = [], []

    def run(i0, i1):
        outer.append(threading.get_ident())
        me = threading.get_ident()
        nn._deal(6, math.inf, lambda j0, j1: inner.append((me, threading.get_ident(), j0, j1)))

    done = []
    # at two cores and one pool thread, a nested deal that waited on the pool
    # it runs on would never return
    caller = threading.Thread(target=lambda: done.append(nn._deal(2, math.inf, run)), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "a nested _deal did not return"
    assert done == [None]
    assert len(outer) == 2 and len(set(outer)) == 2  # the outer pass was dealt
    assert sorted(inner) == sorted((t, t, 0, 6) for t in outer)

    # outside any run the same call deals again
    inner.clear()
    nn._deal(6, math.inf, lambda j0, j1: inner.append((j0, j1)))
    assert sorted(inner) == [(0, 3), (3, 6)]
