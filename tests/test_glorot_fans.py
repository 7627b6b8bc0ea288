"""One init rule: `Layer.init_params` draws every Parameter of two or more
axes, shaped (out, ..., in), as Glorot-uniform with fan-in prod(shape[1:])
and fan-out prod(shape[:-1]), in float64 and kept in the layer's dtype.

That is fan-in ``in`` and fan-out ``units`` for Dense's (units, in) weights,
and fan-in taps * cin and fan-out taps * cout for Conv2D's (cout, kh, kw,
cin) and Conv1D's (cout, k, cin) kernels. Biases, BatchNorm gains and
shifts are not drawn. The reference below draws each weight with those fans
in layer order from a twin stream, without going through `init_params`.
"""

import numpy as np
import pytest

from scenecls import models, nn


def _glorot(rng, shape, fan_in, fan_out):
    """Glorot & Bengio's uniform draw, written out here as the reference."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def test_dense_draws_with_fans_in_and_units():
    layer = nn.Dense(7, 5, np.random.default_rng(3))
    twin = np.random.default_rng(3)
    np.testing.assert_array_equal(layer.weights.value, _glorot(twin, (5, 7), 7, 5))
    np.testing.assert_array_equal(layer.bias.value, np.zeros(5))


def test_conv2d_draws_with_fans_of_taps_times_channels():
    layer = nn.Conv2D(4, 6, 3, 5, np.random.default_rng(8))
    twin = np.random.default_rng(8)
    want = _glorot(twin, (6, 3, 5, 4), 3 * 5 * 4, 3 * 5 * 6)
    np.testing.assert_array_equal(layer.kernels.value, want)
    np.testing.assert_array_equal(layer.bias.value, np.zeros(6))


def test_conv1d_draws_with_fans_of_taps_times_channels():
    layer = nn.Conv1D(4, 6, 5, np.random.default_rng(9))
    twin = np.random.default_rng(9)
    np.testing.assert_array_equal(layer.kernels.value, _glorot(twin, (6, 5, 4), 5 * 4, 5 * 6))
    np.testing.assert_array_equal(layer.bias.value, np.zeros(6))


def test_a_float32_layer_keeps_the_float64_draws_cast():
    layer = nn.Conv2D(2, 3, 3, 3, dtype=np.float32)
    layer.init_params(np.random.default_rng(1))
    want = _glorot(np.random.default_rng(1), (3, 3, 3, 2), 18, 27)
    assert layer.kernels.value.dtype == np.float32
    np.testing.assert_array_equal(layer.kernels.value, want.astype(np.float32))


def test_any_layer_draws_its_weights_by_their_shape_and_nothing_else():
    class Bilinear(nn.Layer):
        def __init__(self):
            self.gate = nn.Parameter(np.zeros(3))
            self.mix = nn.Parameter(np.zeros((3, 2, 4)))
            self.inner = nn.Dense(4, 2)

    layer = Bilinear()
    layer.init_params(np.random.default_rng(6))
    twin = np.random.default_rng(6)
    np.testing.assert_array_equal(layer.mix.value, _glorot(twin, (3, 2, 4), 8, 6))
    np.testing.assert_array_equal(layer.inner.weights.value, _glorot(twin, (2, 4), 4, 2))
    np.testing.assert_array_equal(layer.gate.value, np.zeros(3))
    np.testing.assert_array_equal(layer.inner.bias.value, np.zeros(2))


def _reference_weights(graph, seed):
    """Each conv, dense and Fire-sublayer weight of ``graph``, in layer
    order, as a twin stream draws it with the fans of its layer kind."""
    rng = np.random.default_rng(seed)
    want = {}
    for i, layer in enumerate(graph.layers):
        convs = {"": layer} if isinstance(layer, nn.Conv2D) else {}
        if isinstance(layer, nn.Fire):
            convs = {"squeeze.": layer.squeeze, "expand1.": layer.expand1,
                     "expand3.": layer.expand3}
        for prefix, conv in convs.items():
            shape = conv.kernels.value.shape
            cout, taps, cin = shape[0], int(np.prod(shape[1:-1])), shape[-1]
            want[f"{i:02d}.{layer.kind}.{prefix}kernels"] = _glorot(
                rng, shape, taps * cin, taps * cout)
        if isinstance(layer, nn.Dense):
            units, n_in = layer.weights.value.shape
            want[f"{i:02d}.dense.weights"] = _glorot(rng, (units, n_in), n_in, units)
    return want


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_every_registry_model_draws_as_the_reference_loop(name):
    seed = 21
    graph = models.parse_model_spec(models.format_model_spec(models.build_model(name)), seed)
    want = _reference_weights(graph, seed)
    assert want
    for tensor, value in graph.state_tensors():
        if tensor in want:
            np.testing.assert_array_equal(value, want.pop(tensor), err_msg=tensor)
        elif tensor.endswith((".eg2", ".edx2", ".bias", ".shift", ".running_mean")):
            assert not value.any(), tensor
        else:
            assert tensor.endswith((".gain", ".running_var")), tensor
            assert (value == 1).all(), tensor
    assert want == {}
