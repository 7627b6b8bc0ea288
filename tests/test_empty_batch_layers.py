"""An empty batch through the convolutions and Flatten: an empty output of
the right shape, zero kernel and bias gradients and an empty input
gradient, as MaxPool2D, ReLU, Dense and GlobalAvgPool already give.
BatchNorm still refuses one by name."""

import numpy as np
import pytest

from scenecls import nn


@pytest.mark.parametrize("make, shape, out_shape", [
    (lambda rng: nn.Conv2D(3, 4, 3, 3, rng), (0, 4, 4, 3), (0, 4, 4, 4)),
    (lambda rng: nn.Conv2D(1, 2, 5, 3, rng), (0, 6, 5, 1), (0, 6, 5, 2)),
    (lambda rng: nn.Conv2D(3, 2, 1, 1, rng), (0, 4, 4, 3), (0, 4, 4, 2)),
    (lambda rng: nn.Conv1D(3, 4, 3, rng), (0, 4, 3), (0, 4, 4)),
    (lambda rng: nn.Flatten(), (0, 4, 4, 3), (0, 48)),
])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_empty_batch_forward_and_backward(make, shape, out_shape, dtype):
    layer = make(np.random.default_rng(0))
    x = np.zeros(shape, dtype)
    for train in (False, True):
        out = layer.forward(x, train=train)
        assert out.shape == out_shape
    gx = layer.backward(np.zeros(out_shape, dtype))
    assert gx.shape == shape
    for _, p in layer.named_params():
        assert p.grad.shape == p.value.shape and not p.grad.any()


def test_batchnorm_still_refuses_an_empty_batch():
    with pytest.raises(ValueError, match="batchnorm on an empty batch"):
        nn.BatchNorm(3).forward(np.zeros((0, 4, 4, 3)), train=True)
