"""A Fire backward with nothing to read names `fire`, not the inner ReLU it
would otherwise reach first."""

import numpy as np
import pytest

from scenecls import nn
from scenecls.features import V1


def test_fire_backward_before_any_forward_names_fire():
    fire = nn.Fire(3, 2, 4, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="^fire: backward called before forward$"):
        fire.backward(np.ones((1, 4, 4, 8)))


def test_fire_backward_after_an_eval_forward_through_a_graph_names_fire():
    fire = nn.Fire(1, 2, 4, np.random.default_rng(0))
    graph = nn.ModelGraph("f", [fire, nn.GlobalAvgPool(), nn.Softmax()], (4, 4, 1), V1)
    graph.forward(np.ones((2, 4, 4, 1)))  # eval: each layer's caches dropped once done
    with pytest.raises(RuntimeError, match="^fire: backward called before forward$"):
        fire.backward(np.ones((2, 4, 4, 8)))

