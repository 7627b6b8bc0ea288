"""`models.load_model` fills float32 parameters straight from the checkpoint.

Its shape pass allocates each tensor once, in float32, and `load_state`
copies the checkpoint's values in: nothing is drawn at random, nothing is
built in float64 first and nothing is cast. The graph it returns must be
the one the older route gave (parse with fresh draws, cast to float32,
then load), bit for bit, also after a further Adadelta step.
"""

import numpy as np
import pytest

from scenecls import models, nn
from scenecls.features import V1, V2


def _stepped(graph, seed):
    """``graph`` in float32 after two Adadelta steps, so that parameters,
    accumulators and running statistics all hold non-trivial values."""
    graph.cast(np.float32)
    graph.seed_dropout(seed)
    rng = np.random.default_rng(seed)
    opt = nn.Adadelta(graph.parameters())
    for _ in range(2):
        x = rng.standard_normal((4, *graph.input_shape)).astype(np.float32)
        nn.loss_and_gradients(graph, x, rng.integers(0, 15, 4))
        opt.step()
    return graph


SMALL = {
    "lenet": lambda: models.build_lenet(3, V2, base_filters=2, dense_units=8, seed=4),
    "squeezenet": lambda: models.build_squeezenet_mini(V1, width=0.05, seed=4),
    "cnn1d": lambda: models.build_cnn1d(V1, width=0.05, dense_units=8, seed=4),
}


@pytest.fixture(params=sorted(SMALL))
def checkpoint(request, tmp_path):
    path = tmp_path / f"{request.param}.spck"
    models.save_model(_stepped(SMALL[request.param](), 9), path)
    return path


def _old_way(path):
    spec_text, tensors = nn.read_checkpoint(path)
    graph = models.parse_model_spec(spec_text)
    graph.cast(np.float32)
    graph.load_state(tensors)
    return graph


def test_load_draws_no_random_numbers(checkpoint, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("load_model drew random numbers")

    spec_text, _ = nn.read_checkpoint(checkpoint)
    monkeypatch.setattr(nn, "glorot_uniform", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    with pytest.raises(AssertionError, match="drew random"):
        models.parse_model_spec(spec_text)  # the patches do bite
    graph = models.load_model(checkpoint)
    graph.forward(np.zeros((2, *graph.input_shape), np.float32))


def test_every_tensor_is_float32_contiguous_writable_and_owned(checkpoint):
    _, read = nn.read_checkpoint(checkpoint)
    graph = models.load_model(checkpoint)
    assert graph.dtype == np.float32
    arrays = dict(graph.state_tensors())
    arrays.update((p.name + ".grad", p.grad) for p in graph.parameters())
    for name, arr in arrays.items():
        assert arr.dtype == np.float32, name
        assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata, name
        if name in read:
            assert not np.shares_memory(arr, read[name]), name
            assert np.array_equal(arr, read[name]), name
    for p in graph.parameters():
        assert not p.grad.any(), p.name


def test_resumed_adadelta_step_matches_the_cast_graph(checkpoint):
    new, old = models.load_model(checkpoint), _old_way(checkpoint)
    for graph in (new, old):
        graph.seed_dropout(3)
        x = np.random.default_rng(3).standard_normal((5, *graph.input_shape))
        nn.loss_and_gradients(graph, x, np.arange(5) % 15)
        nn.Adadelta(graph.parameters()).step()
    assert new.dtype == old.dtype == np.float32
    got, want = new.state_tensors(), old.state_tensors()
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for p, q in zip(new.parameters(), old.parameters()):
        assert p.grad.dtype == q.grad.dtype and p.grad.tobytes() == q.grad.tobytes(), p.name


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_registry_checkpoint_loads_and_resaves_byte_identically(name, tmp_path):
    first, second = tmp_path / "a.spck", tmp_path / "b.spck"
    models.save_model(models.build_model(name, seed=0), first)
    models.save_model(models.load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_load_keeps_the_name_and_shape_checks(tmp_path):
    graph = SMALL["lenet"]()
    spec = models.format_model_spec(graph)
    tensors = graph.state_tensors()
    nn.write_checkpoint(tmp_path / "short.spck", spec, tensors[:-1])
    with pytest.raises(nn.CheckpointError, match="state mismatch"):
        models.load_model(tmp_path / "short.spck")
    bad = [(n, a[:1] if n == "00.conv2d.bias" else a) for n, a in tensors]
    nn.write_checkpoint(tmp_path / "shape.spck", spec, bad)
    with pytest.raises(nn.CheckpointError, match="00.conv2d.bias: shape"):
        models.load_model(tmp_path / "shape.spck")


def test_conv1d_kernels_are_three_dimensional_and_keep_the_width_one_draws():
    conv1 = nn.Conv1D(4, 3, 5, np.random.default_rng(6))
    conv2 = nn.Conv2D(4, 3, 5, 1, np.random.default_rng(6))
    k = conv1.kernels
    assert k.value.shape == k.grad.shape == k.eg2.shape == k.edx2.shape == (3, 5, 4)
    assert np.array_equal(k.value, conv2.kernels.value[:, :, 0, :])
    assert nn.Conv1D(4, 3, 5, dtype=np.float32).kernels.grad.dtype == np.float32
