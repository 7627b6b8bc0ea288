"""Float64 oracles for the training-step engine: the convolution input
gradient is the adjoint of the convolution, a graph's parameter gradients
equal those of a full layer-by-layer backward, and the fused BatchNorm
passes match the textbook formulas (Ioffe & Szegedy, arXiv 1502.03167)."""

import numpy as np
import pytest

from scenecls import nn

TOL = 1e-12


def rng_of(seed):
    return np.random.default_rng(seed)


# --- convolution input gradient: <conv(x), g> == <x, conv.backward(g)> ------


def _adjoint_gap(conv, x):
    """|<conv(x), g> - <x, dx>| relative to the larger inner product."""
    conv.bias.value[:] = 0.0  # the linear part of the affine map
    y = conv.forward(x, train=True)
    g = rng_of(99).standard_normal(y.shape)
    dx = conv.backward(g)
    assert dx.shape == x.shape
    lhs, rhs = float(np.vdot(y, g)), float(np.vdot(x, dx))
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize("cin,cout,kh,kw,h,w", [
    (1, 4, 7, 7, 9, 8),    # cin = 1, as in a graph's first layer
    (3, 2, 3, 5, 6, 7),    # kh != kw
    (5, 3, 1, 1, 4, 3),    # 1x1
    (2, 2, 5, 3, 5, 5),
    (1, 1, 3, 3, 3, 3),
])
def test_conv2d_input_gradient_is_the_adjoint(cin, cout, kh, kw, h, w):
    rng = rng_of(cin * 100 + kh * 10 + kw)
    conv = nn.Conv2D(cin, cout, kh, kw, rng)
    assert _adjoint_gap(conv, rng.standard_normal((3, h, w, cin))) < TOL


def test_conv2d_adjoint_random_cases():
    rng = rng_of(2024)
    for _ in range(20):
        cin, cout = (int(v) for v in rng.integers(1, 5, 2))
        kh, kw = (int(v) for v in rng.choice([1, 3, 5, 7], 2))
        h, w = (int(v) for v in rng.integers(1, 10, 2))
        conv = nn.Conv2D(cin, cout, kh, kw, rng)
        assert _adjoint_gap(conv, rng.standard_normal((2, h, w, cin))) < TOL


@pytest.mark.parametrize("cin,cout,k,t", [(1, 3, 5, 9), (4, 2, 1, 6), (3, 3, 3, 2), (2, 5, 7, 11)])
def test_conv1d_input_gradient_is_the_adjoint(cin, cout, k, t):
    rng = rng_of(cin * 10 + k)
    conv = nn.Conv1D(cin, cout, k, rng)
    assert _adjoint_gap(conv, rng.standard_normal((3, t, cin))) < TOL


# --- graph backward == explicit full backward -------------------------------


def _lenet_layers(seed):
    rng = rng_of(seed)
    return [
        nn.Conv2D(1, 3, 3, 5, rng), nn.BatchNorm(3), nn.ReLU(), nn.MaxPool2D(2, 2),
        nn.Conv2D(3, 4, 3, 3, rng), nn.BatchNorm(4), nn.ReLU(), nn.Dropout(0.25),
        nn.Flatten(), nn.Dense(4 * 3 * 4, 6, rng), nn.ReLU(), nn.Dense(6, 15, rng), nn.Softmax(),
    ]


def _conv1d_layers(seed):
    rng = rng_of(seed)
    return [
        nn.Conv1D(4, 3, 5, rng), nn.BatchNorm(3), nn.ReLU(), nn.MaxPool1D(3),
        nn.Conv1D(3, 2, 3, rng), nn.BatchNorm(2), nn.ReLU(),
        nn.Flatten(), nn.Dense(2 * 3, 15, rng), nn.Softmax(),
    ]


@pytest.mark.parametrize("make,input_shape", [(_lenet_layers, (6, 8, 1)),
                                              (_conv1d_layers, (9, 4))])
def test_graph_parameter_gradients_equal_full_backward(make, input_shape):
    graph = nn.ModelGraph("g", make(5), input_shape, None)
    standalone = make(5)  # same weights and dropout stream, never bound to a graph
    x = rng_of(6).standard_normal((4, *input_shape))
    y = np.array([0, 3, 7, 14])
    nn.loss_and_gradients(graph, x, y)

    h = x
    for layer in standalone:
        h = layer.forward(h, train=True)
    _, g = nn.cross_entropy(h, y)
    for layer in reversed(standalone[:-1]):
        g = layer.backward(g)
    assert g.shape == x.shape  # a standalone first layer returns its input gradient

    got = graph.parameters()
    want = [p for layer in standalone for _, p in layer.named_params()]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=TOL, err_msg=a.name)


# --- fused BatchNorm == textbook --------------------------------------------


def _textbook_train(x, gain, shift, eps, dy):
    axes = tuple(range(x.ndim - 1))
    m = x.size // x.shape[-1]
    mu = x.sum(axis=axes) / m
    var = ((x - mu) ** 2).sum(axis=axes) / m
    x_hat = (x - mu) / np.sqrt(var + eps)
    y = gain * x_hat + shift
    dx_hat = dy * gain
    dvar = (dx_hat * (x - mu) * -0.5 * (var + eps) ** -1.5).sum(axis=axes)
    dmu = (-dx_hat / np.sqrt(var + eps)).sum(axis=axes)
    dmu += dvar * (-2.0 * (x - mu)).sum(axis=axes) / m
    dx = dx_hat / np.sqrt(var + eps) + dvar * 2.0 * (x - mu) / m + dmu / m
    return y, mu, var, dx, (dy * x_hat).sum(axis=axes), dy.sum(axis=axes)


@pytest.mark.parametrize("shape", [(4, 5, 6, 3), (7, 9, 2), (16, 4)])
def test_batchnorm_train_matches_textbook(shape):
    rng = rng_of(len(shape))
    c = shape[-1]
    bn = nn.BatchNorm(c)
    bn.gain.value[:] = rng.uniform(0.5, 2.0, c)
    bn.shift.value[:] = rng.standard_normal(c)
    x = rng.standard_normal(shape) * 3.0 + 1.5
    dy = rng.standard_normal(shape)
    y, mu, var, dx, dgain, dshift = _textbook_train(x, bn.gain.value, bn.shift.value, bn.eps, dy)

    np.testing.assert_allclose(bn.forward(x, train=True), y, rtol=0, atol=TOL)
    np.testing.assert_allclose(bn.running_mean, 0.01 * mu, rtol=0, atol=TOL)
    np.testing.assert_allclose(bn.running_var, 0.99 + 0.01 * var, rtol=0, atol=TOL)
    np.testing.assert_allclose(bn.backward(dy), dx, rtol=0, atol=TOL)
    np.testing.assert_allclose(bn.gain.grad, dgain, rtol=0, atol=TOL)
    np.testing.assert_allclose(bn.shift.grad, dshift, rtol=0, atol=TOL)


@pytest.mark.parametrize("shape", [(4, 5, 6, 3), (7, 9, 2), (16, 4)])
def test_batchnorm_eval_matches_textbook(shape):
    rng = rng_of(10 + len(shape))
    c = shape[-1]
    bn = nn.BatchNorm(c)
    bn.gain.value[:] = rng.uniform(0.5, 2.0, c)
    bn.shift.value[:] = rng.standard_normal(c)
    bn.running_mean[:] = rng.standard_normal(c)
    bn.running_var[:] = rng.uniform(0.2, 3.0, c)
    x = rng.standard_normal(shape)
    dy = rng.standard_normal(shape)
    axes = tuple(range(len(shape) - 1))
    x_hat = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)

    np.testing.assert_allclose(bn.forward(x, train=False), bn.gain.value * x_hat + bn.shift.value,
                               rtol=0, atol=TOL)
    np.testing.assert_allclose(bn.backward(dy),
                               dy * bn.gain.value / np.sqrt(bn.running_var + bn.eps),
                               rtol=0, atol=TOL)
    np.testing.assert_allclose(bn.gain.grad, (dy * x_hat).sum(axis=axes), rtol=0, atol=TOL)
    np.testing.assert_allclose(bn.shift.grad, dy.sum(axis=axes), rtol=0, atol=TOL)
