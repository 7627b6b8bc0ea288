"""`models.load_model` reads a checkpoint once, straight into the graph.

Each stored tensor is read into the array the float32 shape pass allocated
for it, found by name: no per-tensor bytes, no second copy, and neither
`nn.read_checkpoint` nor `ModelGraph.load_state` on the way. Every
malformed or mismatched file is still a CheckpointError naming the file.
"""

import gc
import re
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenecls import models, nn
from scenecls.features import V2

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)
EXTREMES = [0, 1, 64, 0x7FFFFFFF, 0xFFFFFFFF]
# A LeNet small enough that tensor headers are a large share of its file.
TINY_SPEC = """name tiny-lenet
variant v2
input 6 4 1
conv2d 2 3 3
batchnorm
relu
maxpool2d 3 2
dropout 0.5
flatten
dense 3
relu
dense 15
softmax
"""


def edits(size: int, span: int):
    """Byte overwrites and 32-bit overwrites in the first ``span`` bytes,
    then a cut to a prefix (often the whole file)."""
    return st.tuples(
        st.lists(st.tuples(st.integers(0, span - 1), st.integers(0, 255)), max_size=6),
        st.lists(st.tuples(st.integers(0, span - 4), st.sampled_from(EXTREMES)), max_size=2),
        st.one_of(st.just(size), st.integers(0, size)),
    )


def mutate(raw: bytes, edit) -> bytes:
    byte_edits, word_edits, keep = edit
    out = bytearray(raw)
    for pos, value in byte_edits:
        out[pos] = value
    for pos, value in word_edits:
        out[pos : pos + 4] = struct.pack("<I", value)
    return bytes(out[:keep])


def _trained(graph):
    """``graph`` in float32 after one Adadelta step, so that every stored
    tensor holds values of its own."""
    graph.cast(np.float32)
    graph.seed_dropout(1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, *graph.input_shape)).astype(np.float32)
    nn.loss_and_gradients(graph, x, np.arange(3))
    nn.Adadelta(graph.parameters()).step()
    return graph


@pytest.fixture
def lenet(tmp_path):
    graph = _trained(models.build_lenet(3, V2, base_filters=2, dense_units=4, seed=0))
    path = tmp_path / "lenet.spck"
    models.save_model(graph, path)
    return graph, path


def _state_bytes(graph):
    return [(name, arr.dtype, arr.tobytes()) for name, arr in graph.state_tensors()]


def test_load_model_reads_neither_through_read_checkpoint_nor_load_state(lenet, monkeypatch):
    graph, path = lenet

    def forbidden(*args, **kwargs):
        raise AssertionError("load_model went through a second copy")

    monkeypatch.setattr(nn, "read_checkpoint", forbidden)
    monkeypatch.setattr(nn.ModelGraph, "load_state", forbidden)
    assert _state_bytes(models.load_model(path)) == _state_bytes(graph)


def test_load_peak_stays_under_one_and_a_half_file_sizes(tmp_path):
    path = tmp_path / "cnn-v2-1.spck"
    models.save_model(models.build_model("cnn-v2-1", seed=0), path)
    size = path.stat().st_size
    gc.collect()
    tracemalloc.start()
    try:
        graph = models.load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.name == "cnn-v2-1"
    assert peak < 1.5 * size, f"load peak {peak / size:.2f}x the {size}-byte checkpoint"


def test_tensors_in_reverse_order_load_bit_identically(lenet, tmp_path):
    graph, path = lenet
    reversed_path = tmp_path / "reversed.spck"
    nn.write_checkpoint(reversed_path, models.format_model_spec(graph),
                        graph.state_tensors()[::-1])
    assert reversed_path.read_bytes() != path.read_bytes()
    assert _state_bytes(models.load_model(reversed_path)) == _state_bytes(models.load_model(path))


def _missing(tensors):
    return tensors[:-1]


def _extra(tensors):
    return tensors + [("99.extra", np.zeros(2, np.float32))]


def _duplicate(tensors):
    return tensors + [tensors[0]]


def _wrong_shape(tensors):
    return [(n, a[:1] if n == "00.conv2d.bias" else a) for n, a in tensors]


@pytest.mark.parametrize("edit, message", [
    (_missing, "state mismatch"),
    (_extra, "state mismatch"),
    (_duplicate, "duplicate"),
    (_wrong_shape, "00.conv2d.bias: shape"),
])
def test_mismatched_tensors_are_checkpoint_errors_naming_the_file(lenet, tmp_path, edit, message):
    graph, _ = lenet
    path = tmp_path / f"{edit.__name__[1:]}.spck"
    nn.write_checkpoint(path, models.format_model_spec(graph), edit(graph.state_tensors()))
    with pytest.raises(nn.CheckpointError, match=re.escape(str(path)) + ".*" + message):
        models.load_model(path)


def test_the_little_endian_payload_is_swapped_once_on_a_big_endian_host(lenet, monkeypatch):
    graph, path = lenet
    monkeypatch.setattr(sys, "byteorder", "big")
    loaded = models.load_model(path)
    for (name, want), (_, got) in zip(graph.state_tensors(), loaded.state_tensors()):
        assert got.tobytes() == want.astype("<f4").byteswap().tobytes(), name


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """(path to write fuzzed copies to, spec header bytes, tensor section bytes)."""
    work = tmp_path_factory.mktemp("single-read-fuzz")
    models.save_model(_trained(models.parse_model_spec(TINY_SPEC, seed=2)), work / "tiny.spck")
    raw = (work / "tiny.spck").read_bytes()
    head = 4 + 5 + len(TINY_SPEC.encode())
    return work / "fuzz.spck", raw[:head], raw[head:]


@FUZZ
@given(data=st.data())
def test_load_model_raises_only_named_checkpoint_errors(tiny, data):
    path, head, body = tiny
    path.write_bytes(head + mutate(body, data.draw(edits(len(body), len(body)))))
    try:
        models.load_model(path)
    except nn.CheckpointError as exc:
        assert str(path) in str(exc)
