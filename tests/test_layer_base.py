"""What `nn.Layer` states once for every kind: the backward caches start as
None, `named_params` lists Parameter attributes in the order the constructor
set them and then each sublayer's as "<attribute>.<name>", and `init_params`
draws each sublayer's weights in attribute order from one stream."""

import numpy as np
import pytest

from scenecls import nn


def _caching_layers():
    """(layer, input) for every kind whose backward reads a cache."""
    rng = np.random.default_rng(0)
    x4 = rng.standard_normal((2, 4, 4, 3))
    x3 = rng.standard_normal((2, 4, 3))
    return {
        "relu": (nn.ReLU(), x4),
        "flatten": (nn.Flatten(), x4),
        "dense": (nn.Dense(3, 2, rng), x4[:, 0, 0, :]),
        "conv2d": (nn.Conv2D(3, 2, 3, 3, rng), x4),
        "conv1d": (nn.Conv1D(3, 2, 3, rng), x3),
        "batchnorm": (nn.BatchNorm(3), x4),
        "maxpool2d": (nn.MaxPool2D(2, 2), x4),
        "maxpool1d": (nn.MaxPool1D(2), x3),
        "globalavgpool": (nn.GlobalAvgPool(), x4),
        "softmax": (nn.Softmax(), x4[:, 0, 0, :]),
    }


@pytest.mark.parametrize("kind", sorted(_caching_layers()))
def test_backward_before_forward_names_the_kind(kind):
    layer, x = _caching_layers()[kind]
    assert layer.kind == kind
    gout = np.ones_like(layer.forward(x, train=True))
    fresh, _ = _caching_layers()[kind]
    with pytest.raises(RuntimeError, match=f"^{kind}: backward called before forward$"):
        fresh.backward(gout)
    layer.backward(gout)  # after a forward the same call runs


def test_fire_backward_before_forward_raises():
    fire = nn.Fire(3, 2, 2, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="backward called before forward"):
        fire.backward(np.ones((2, 4, 4, 4)))


def test_dropout_backward_before_forward_returns_its_input():
    g = np.arange(6.0).reshape(2, 3)
    assert nn.Dropout(0.5).backward(g) is g


@pytest.mark.parametrize("layer", [
    nn.ReLU(), nn.Flatten(), nn.Dense(3, 2), nn.Conv2D(3, 2, 3, 3), nn.Conv1D(3, 2, 3),
    nn.BatchNorm(3), nn.MaxPool2D(2, 2), nn.MaxPool1D(2), nn.GlobalAvgPool(),
    nn.Dropout(0.5), nn.Softmax(), nn.Fire(3, 2, 2)], ids=lambda layer: layer.kind)
def test_no_constructor_sets_a_cache(layer):
    assert not set(vars(layer)) & set(nn._CACHES)
    for name in nn._CACHES:
        assert getattr(layer, name) is None


def test_named_params_in_checkpoint_order():
    dense = nn.Dense(3, 2)
    assert dense.named_params() == [("weights", dense.weights), ("bias", dense.bias)]
    conv = nn.Conv2D(3, 2, 3, 5)
    assert conv.named_params() == [("kernels", conv.kernels), ("bias", conv.bias)]
    conv1 = nn.Conv1D(3, 2, 5)
    assert conv1.named_params() == [("kernels", conv1.kernels), ("bias", conv1.bias)]
    assert conv1.kernels.value.shape == (2, 5, 3)
    bn = nn.BatchNorm(4)
    assert bn.named_params() == [("gain", bn.gain), ("shift", bn.shift)]


def test_fire_names_its_sublayers_parameters():
    fire = nn.Fire(3, 2, 4)
    assert fire.named_params() == [
        ("squeeze.kernels", fire.squeeze.kernels), ("squeeze.bias", fire.squeeze.bias),
        ("expand1.kernels", fire.expand1.kernels), ("expand1.bias", fire.expand1.bias),
        ("expand3.kernels", fire.expand3.kernels), ("expand3.bias", fire.expand3.bias)]


@pytest.mark.parametrize("layer", [
    nn.ReLU(), nn.Flatten(), nn.MaxPool2D(2, 2), nn.MaxPool1D(2), nn.GlobalAvgPool(),
    nn.Dropout(0.5, np.random.default_rng(0)), nn.Softmax()], ids=lambda layer: layer.kind)
def test_kinds_without_parameters_list_none(layer):
    assert layer.named_params() == []


def test_fire_draws_its_convolutions_weights_from_one_stream_in_order():
    stream = np.random.default_rng(11)
    fire = nn.Fire(3, 2, 4, stream)
    rng = np.random.default_rng(11)
    convs = [nn.Conv2D(3, 2, 1, 1), nn.Conv2D(2, 4, 1, 1), nn.Conv2D(2, 4, 3, 3)]
    for conv in convs:
        conv.init_params(rng)
    for conv, mine in zip(convs, (fire.squeeze, fire.expand1, fire.expand3)):
        np.testing.assert_array_equal(mine.kernels.value, conv.kernels.value)
        np.testing.assert_array_equal(mine.bias.value, conv.bias.value)
    assert stream.random() == rng.random()  # and drew nothing more


def test_a_new_composite_declares_only_its_attributes():
    class Block(nn.Layer):
        def __init__(self, rng=None):
            self.scale = nn.Parameter(np.ones(2))
            self.inner = nn.Dense(2, 2)
            self.outer = nn.Dense(2, 3)
            if rng is not None:
                self.init_params(rng)

    block = Block(np.random.default_rng(4))
    assert [name for name, _ in block.named_params()] == [
        "scale", "inner.weights", "inner.bias", "outer.weights", "outer.bias"]
    rng = np.random.default_rng(4)
    np.testing.assert_array_equal(block.inner.weights.value, nn.Dense(2, 2, rng).weights.value)
    np.testing.assert_array_equal(block.outer.weights.value, nn.Dense(2, 3, rng).weights.value)
    np.testing.assert_array_equal(block.scale.value, np.ones(2))
