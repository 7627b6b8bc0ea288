"""A graph's train step holds only what its backward has still to read.

`ModelGraph.backward_from_logits` drops each layer's caches once that
layer's backward has returned, Fire's six sublayers included; only the
final Softmax, which is never backpropagated, keeps its output. The
gradients are the bits a plain reversed loop of `layer.backward`, keeping
every cache, gives. A layer called directly keeps its caches, so a Fire can
run its backward twice to the same bits; its in-place sum of the two
branches' input gradients gives the bits of a plain ``a + b``.
"""

import numpy as np
import pytest

from scenecls import models, nn

SPECS = {
    "conv1d": """name c1
variant v1
input 12 5
conv1d 4 3
batchnorm
relu
maxpool1d 2
conv1d 3 3
relu
dropout 0.25
flatten
dense 15
softmax
""",
    "conv2d": """name c2
variant v1
input 8 6 1
conv2d 3 3 3
batchnorm
relu
maxpool2d 2 2
conv2d 4 3 3
batchnorm
relu
dropout 0.3
flatten
dense 6
relu
dense 15
softmax
""",
    "fire": """name f
variant v1
input 8 8 1
conv2d 4 3 3
relu
fire 2 3
batchnorm
fire 3 4
dropout 0.2
conv2d 15 1 1
globalavgpool
softmax
""",
}


def _layers(layer):
    """``layer`` and every layer it holds, depth first."""
    yield layer
    for value in vars(layer).values():
        if isinstance(value, nn.Layer):
            yield from _layers(value)


def _batch(graph, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((5, *graph.input_shape)), rng.integers(0, 15, 5)


def _reference_grads(spec, x, labels):
    """The gradients of a hand-written reversed backward loop that drops no cache."""
    graph = models.parse_model_spec(spec, seed=3)
    graph.seed_dropout(4)
    probs = graph.forward(x, train=True)
    _, dlogits = nn.cross_entropy(probs, labels)
    g = dlogits
    for layer in reversed(graph.layers[:-1]):
        g = layer.backward(g)
    return probs, [p.grad.copy() for p in graph.parameters()]


@pytest.mark.parametrize("name", SPECS)
def test_loss_and_gradients_leaves_no_cache_but_the_softmax_output(name):
    graph = models.parse_model_spec(SPECS[name], seed=3)
    graph.seed_dropout(4)
    x, labels = _batch(graph)
    _, probs = nn.loss_and_gradients(graph, x, labels)
    *body, softmax = graph.layers
    held = [(layer.kind, attr) for top in body for layer in _layers(top)
            for attr in nn._CACHES if getattr(layer, attr) is not None]
    assert held == []
    assert softmax._out is probs


@pytest.mark.parametrize("name", SPECS)
def test_gradients_are_the_bits_of_a_loop_that_keeps_every_cache(name):
    graph = models.parse_model_spec(SPECS[name], seed=3)
    graph.seed_dropout(4)
    x, labels = _batch(graph)
    _, probs = nn.loss_and_gradients(graph, x, labels)
    want_probs, want = _reference_grads(SPECS[name], x, labels)
    np.testing.assert_array_equal(probs, want_probs)
    got = [p.grad for p in graph.parameters()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _fire_and_gout():
    fire = nn.Fire(3, 2, 4, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    fire.forward(rng.standard_normal((2, 5, 5, 3)), train=True)
    return fire, rng.standard_normal((2, 5, 5, 8))


def test_a_fire_called_directly_keeps_its_caches_and_repeats_its_backward():
    fire, gout = _fire_and_gout()
    first = fire.backward(gout)
    grads = [p.grad.copy() for _, p in fire.named_params()]
    inner = [layer for layer in _layers(fire) if layer is not fire]
    assert len(inner) == 6
    for layer in inner:
        assert any(getattr(layer, attr) is not None for attr in nn._CACHES), layer.kind
    second = fire.backward(gout)
    assert first.tobytes() == second.tobytes()
    for want, (_, p) in zip(grads, fire.named_params()):
        assert want.tobytes() == p.grad.tobytes()


def test_fire_adds_its_branch_gradients_as_a_plain_sum_would():
    fire, gout = _fire_and_gout()
    got = fire.backward(gout)
    e = fire.expand_ch
    gs = (fire.expand1.backward(fire._relu_e1.backward(gout[..., :e]))
          + fire.expand3.backward(fire._relu_e3.backward(gout[..., e:])))
    want = fire.squeeze.backward(fire._relu_sq.backward(gs))
    assert got.tobytes() == want.tobytes()
