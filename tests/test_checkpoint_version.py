"""A checkpoint whose version byte is not the one this reader writes is a
CheckpointError naming the file, from `read_checkpoint` and from
`models.load_model`, before any spec or tensor is read."""

import re

import pytest

from scenecls import models, nn
from scenecls.features import V2


@pytest.mark.parametrize("read", [nn.read_checkpoint, models.load_model])
def test_version_2_is_a_named_checkpoint_error(tmp_path, read):
    graph = models.build_lenet(3, V2, base_filters=2, dense_units=4, seed=0)
    path = tmp_path / "v2.spck"
    nn.write_checkpoint(path, models.format_model_spec(graph), graph.state_tensors())
    data = bytearray(path.read_bytes())
    assert data[:5] == b"SPCK\x01"
    data[4] = 2
    path.write_bytes(bytes(data))
    message = f"^{re.escape(str(path))}: unsupported version 2$"
    with pytest.raises(nn.CheckpointError, match=message):
        read(path)
