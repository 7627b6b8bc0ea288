"""The 1-D layers run exactly the 2-D code: Conv1D and MaxPool1D define no
forward or backward of their own, and give bit for bit what Conv2D and
MaxPool2D give on the width-1 view (N, T, 1, C) of their input."""

import numpy as np
import pytest

from scenecls import nn


@pytest.mark.parametrize("cls", [nn.Conv1D, nn.MaxPool1D])
def test_a_1d_layer_defines_no_pass_of_its_own(cls):
    assert "forward" not in vars(cls)
    assert "backward" not in vars(cls)


def _width1_conv(conv1):
    """A Conv2D with ``conv1``'s kernels reshaped to (out, k, 1, in) and its bias."""
    cout, k, cin = conv1.kernels.value.shape
    conv2 = nn.Conv2D(cin, cout, k, 1, dtype=conv1.kernels.value.dtype)
    conv2.kernels.value = conv1.kernels.value.reshape(cout, k, 1, cin).copy()
    conv2.bias.value = conv1.bias.value.copy()
    return conv2


def _same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin, k", [(1, 3), (6, 5), (4, 1)])
def test_conv1d_is_conv2d_on_the_width1_view(dtype, cin, k):
    rng = np.random.default_rng(cin * 10 + k)
    conv1 = nn.Conv1D(cin, 7, k, rng, dtype=dtype)
    conv1.bias.value = rng.standard_normal(7).astype(dtype)
    conv2 = _width1_conv(conv1)
    x = rng.standard_normal((3, 19, cin)).astype(dtype)
    gout = rng.standard_normal((3, 19, 7)).astype(dtype)

    out1 = conv1.forward(x, train=True)
    out2 = conv2.forward(x[:, :, None, :], train=True)
    _same_bits(out1, out2[:, :, 0, :])
    gx1 = conv1.backward(gout)
    gx2 = conv2.backward(gout[:, :, None, :])
    _same_bits(gx1, gx2[:, :, 0, :])
    _same_bits(conv1.kernels.grad, conv2.kernels.grad[:, :, 0, :])
    _same_bits(conv1.bias.grad, conv2.bias.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p, t", [(3, 20), (2, 9), (1, 5)])
def test_maxpool1d_is_maxpool2d_on_the_width1_view(dtype, p, t):
    rng = np.random.default_rng(p * 100 + t)
    # few distinct values, so windows hold ties that only the first maximum takes
    x = rng.integers(0, 3, (4, t, 5)).astype(dtype)
    pool1, pool2 = nn.MaxPool1D(p), nn.MaxPool2D(p, 1)
    out1 = pool1.forward(x, train=True)
    out2 = pool2.forward(x[:, :, None, :], train=True)
    _same_bits(out1, out2[:, :, 0, :])
    gout = rng.standard_normal(out1.shape).astype(dtype)
    _same_bits(pool1.backward(gout), pool2.backward(gout[:, :, None, :])[:, :, 0, :])


def test_a_first_layer_conv1d_still_returns_no_input_gradient():
    rng = np.random.default_rng(0)
    conv = nn.Conv1D(4, 3, 5, rng)
    ref = _width1_conv(conv)
    conv._input_grad = False
    x = rng.standard_normal((2, 11, 4))
    gout = rng.standard_normal((2, 11, 3))
    conv.forward(x, train=True)
    assert conv.backward(gout) is None
    ref.forward(x[:, :, None, :], train=True)
    ref.backward(gout[:, :, None, :])
    _same_bits(conv.kernels.grad, ref.kernels.grad[:, :, 0, :])
    _same_bits(conv.bias.grad, ref.bias.grad)


def test_conv2d_keeps_its_own_input_check():
    conv = nn.Conv2D(2, 3, 3, 3)
    with pytest.raises(ValueError, match=r"^conv2d expects \(N,H,W,2\) input, got \(4, 5, 2\)$"):
        conv.forward(np.zeros((4, 5, 2)))


@pytest.mark.parametrize("pool, x, shape", [
    (nn.MaxPool2D(2, 2), np.zeros((0, 4, 4, 3)), (0, 2, 2, 3)),
    (nn.MaxPool1D(2), np.zeros((0, 4, 3)), (0, 2, 3)),
])
def test_pooling_an_empty_batch_still_gives_an_empty_batch(pool, x, shape):
    assert pool.forward(x).shape == shape
    assert pool.backward(np.zeros(shape)).shape == x.shape
