"""A checkpoint names each tensor once.

A repeated name used to overwrite the earlier entry in silence, so a file
with a second, different copy of a tensor loaded the second one.
"""

import numpy as np
import pytest

from scenecls import models, nn
from scenecls.features import V2


@pytest.fixture
def small_checkpoint(tmp_path):
    graph = models.build_lenet(3, V2, base_filters=2, dense_units=4, seed=0)
    return graph, tmp_path


def test_duplicate_tensor_name_is_a_named_checkpoint_error(small_checkpoint):
    graph, tmp_path = small_checkpoint
    tensors = graph.state_tensors()
    kernels = dict(tensors)["00.conv2d.kernels"]
    path = tmp_path / "dup.spck"
    nn.write_checkpoint(path, models.format_model_spec(graph),
                        tensors + [("00.conv2d.kernels", np.full_like(kernels, 7.0))])
    with pytest.raises(nn.CheckpointError, match=r"dup\.spck.*00\.conv2d\.kernels"):
        nn.read_checkpoint(path)
    with pytest.raises(nn.CheckpointError, match="duplicate"):
        models.load_model(path)


def test_distinct_names_still_read(small_checkpoint):
    graph, tmp_path = small_checkpoint
    path = tmp_path / "ok.spck"
    models.save_model(graph, path)
    _, tensors = nn.read_checkpoint(path)
    assert list(tensors) == [name for name, _ in graph.state_tensors()]
