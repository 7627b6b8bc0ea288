"""Two cores, same bits: the passes `nn._deal` splits across its worker
threads give the bytes they give in one thread. The worker count is forced
through `nn.cores`, so a one-core machine still runs the two-worker path,
and `_BLOCK_BYTES` is shrunk so that these small inputs reach the pool."""

import threading

import numpy as np
import pytest

from scenecls import models, nn, pipeline
from scenecls.features import V1

SMALL = 1024  # block bytes: every pass below spans several blocks


@pytest.fixture
def threads_seen(monkeypatch):
    """The threads that ran any part of a dealt pass."""
    seen = set()
    deal = nn._deal

    def spy(n, nbytes, fn):
        def run(i0, i1):
            seen.add(threading.get_ident())
            return fn(i0, i1)

        return deal(n, nbytes, run)

    monkeypatch.setattr(nn, "_deal", spy)
    monkeypatch.setattr(nn, "_BLOCK_BYTES", SMALL)
    return seen


def _on(workers, monkeypatch, seen, fn):
    """fn() with `workers` cores; checks how many threads did the work."""
    monkeypatch.setattr(nn, "cores", lambda: workers)
    seen.clear()
    out = fn()
    assert (len(seen) > 1) == (workers > 1), "the pass did not reach the pool"
    return out


def _cast(layer, dtype, rng):
    for _, p in layer.named_params():
        p.value = rng.standard_normal(p.value.shape).astype(dtype)
    return layer


LAYERS = {
    "conv 7x7 one channel": (lambda: nn.Conv2D(1, 8, 7, 7), (5, 23, 16, 1)),
    "conv 3x3 8->16": (lambda: nn.Conv2D(8, 16, 3, 3), (5, 13, 10, 8)),
    "conv 1x1": (lambda: nn.Conv2D(16, 8, 1, 1), (5, 13, 10, 16)),
    "conv1d": (lambda: nn.Conv1D(16, 24, 5), (5, 37, 16)),
    "batchnorm": (lambda: nn.BatchNorm(8), (5, 13, 10, 8)),
    "relu": (nn.ReLU, (5, 13, 10, 8)),
    "maxpool2d": (lambda: nn.MaxPool2D(3, 2), (5, 37, 16, 8)),
    "maxpool1d": (lambda: nn.MaxPool1D(3), (5, 37, 16)),
}


def _pass(name, dtype, train):
    """Forward and backward of a fresh layer; every output and gradient as
    bytes, the layer's cached state included."""
    make, shape = LAYERS[name]
    rng = np.random.default_rng(7)
    layer = _cast(make(), dtype, rng)
    x = rng.standard_normal(shape).astype(dtype)
    x[0, :2] = 0.0  # ties in the pools, zeros at the ReLU's edge
    y = layer.forward(x, train=train)
    g = rng.standard_normal(y.shape).astype(dtype)
    gx = layer.backward(g)
    out = [y, gx]
    out += [p.grad for _, p in layer.named_params()]
    out += [a for _, a in layer.extra_state()]
    out += [a for a in (getattr(layer, "_mask", None), *(getattr(layer, "_cache", None) or ()))
            if isinstance(a, np.ndarray)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in out]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("name", list(LAYERS))
def test_a_split_layer_gives_the_same_bytes_on_one_two_and_three_workers(
        name, train, dtype, threads_seen, monkeypatch):
    want = _on(1, monkeypatch, threads_seen, lambda: _pass(name, dtype, train))
    for workers in (2, 3):
        assert _on(workers, monkeypatch, threads_seen, lambda: _pass(name, dtype, train)) == want


def _random_set(n_clips, seed, prefix):
    rng = np.random.default_rng(seed)
    segments = rng.standard_normal((n_clips, V1.n_segments, V1.segment_frames, V1.n_mels))
    labels = np.arange(n_clips) % 3
    return pipeline.SegmentDataset(segments.astype(np.float32), labels,
                                   [f"{prefix}{i}" for i in range(n_clips)])


GRAPHS = {
    "lenet 7x7": lambda: models.build_lenet(7, V1, base_filters=4, dense_units=16, seed=1),
    "cnn-1d": lambda: models.build_cnn1d(V1, width=0.1, dense_units=16, seed=1),
}


@pytest.mark.filterwarnings("ignore:classes without evaluated clips")
@pytest.mark.parametrize("name", list(GRAPHS))
def test_training_gives_the_same_history_and_state_on_one_and_two_workers(
        name, threads_seen, monkeypatch):
    cfg = pipeline.TrainConfig(model="cnn-v2-3", batch_size=16, epochs=2, seed=3)

    def train():
        graph = GRAPHS[name]()
        history = pipeline.train(graph, _random_set(4, 1, "t"), _random_set(2, 2, "v"), cfg)
        return history.epochs, [(n, a.tobytes()) for n, a in graph.state_tensors()]

    one = _on(1, monkeypatch, threads_seen, train)
    two = _on(2, monkeypatch, threads_seen, train)
    assert two[0] == one[0]
    assert [n for n, _ in two[1]] == [n for n, _ in one[1]]
    for (n, got), (_, want) in zip(two[1], one[1]):
        assert got == want, n
