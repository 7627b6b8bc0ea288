"""`ModelGraph.load_state` applies all of a state or none of it: with every
name right but one shape wrong it raises before writing any array, so every
tensor keeps its bytes."""

import numpy as np
import pytest

from scenecls import models, nn
from scenecls.features import V2


def test_a_wrong_shape_writes_no_tensor():
    graph = models.build_lenet(3, V2, base_filters=2, dense_units=4, seed=0)
    before = {name: arr.tobytes() for name, arr in graph.state_tensors()}
    names = list(before)
    bad = names[-1]  # the last tensor: every other one would be copied first
    tensors = {name: np.full_like(arr, 7.0) for name, arr in graph.state_tensors()}
    tensors[bad] = np.full(tensors[bad].size + 1, 7.0)
    with pytest.raises(nn.CheckpointError, match="shape"):
        graph.load_state(tensors)
    assert {name: arr.tobytes() for name, arr in graph.state_tensors()} == before

