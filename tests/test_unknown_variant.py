"""A checkpoint spec naming a feature variant that does not exist is a
CheckpointError naming the file, raised by `models.load_model` before any
tensor is read."""

import re

import pytest

from scenecls import models, nn
from scenecls.features import V2


def test_unknown_variant_is_a_named_checkpoint_error(tmp_path):
    graph = models.build_lenet(3, V2, base_filters=2, dense_units=4, seed=0)
    spec = models.format_model_spec(graph)
    assert "variant v2\n" in spec
    path = tmp_path / "v9.spck"
    nn.write_checkpoint(path, spec.replace("variant v2\n", "variant v9\n"),
                        graph.state_tensors())
    message = f"^{re.escape(str(path))}: model spec: unknown variant 'v9'$"
    with pytest.raises(nn.CheckpointError, match=message):
        models.load_model(path)
