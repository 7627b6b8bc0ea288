"""Inference costs that do not depend on the data: ReLU is branch-free but
gives np.where's bits, and a checkpoint is read as the float32 it stores."""

import numpy as np
import pytest

from scenecls import models, nn
from scenecls.features import V1

SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e-45, -1e-45, 3e38, -3e38]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_forward_equals_where_bit_for_bit(dtype):
    rng = np.random.default_rng(0)
    x = np.concatenate([np.array(SPECIAL, dtype), rng.standard_normal(997).astype(dtype)])
    x = np.tile(x, 3).reshape(3, 1, -1, 1)  # odd inner length: SIMD body and tail
    relu = nn.ReLU()
    out = relu.forward(x)
    want = np.where(x > 0.0, x, 0.0)
    assert out.dtype == dtype
    assert out.tobytes() == want.tobytes()
    np.testing.assert_array_equal(relu.backward(np.ones_like(x)), (x > 0.0).astype(dtype))


def test_read_checkpoint_gives_the_stored_float32_values(tmp_path):
    graph = models.build_lenet(3, V1, base_filters=2, dense_units=8, seed=4)
    path = tmp_path / "m.spck"
    models.save_model(graph, path)
    _, tensors = nn.read_checkpoint(path)
    for name, arr in graph.state_tensors():
        assert tensors[name].dtype == np.float32, name
        assert not tensors[name].flags.writeable, name
        np.testing.assert_array_equal(tensors[name], arr.astype(np.float32))
