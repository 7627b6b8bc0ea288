"""Cache-blocked convolution: `nn.Conv2D` (and `Conv1D`, its width-1 case)
runs im2col and its GEMMs over blocks of whole samples of about
`nn._BLOCK_BYTES` patch bytes each. How the batch is cut must not change a
forward output bit, and must change the gradients only by summation order.
Also the branch-free max-pool backward, which routes the same values as a
`copyto(where=)` of each window's first maximum."""

import tracemalloc

import numpy as np
import pytest

from scenecls import evaluation, models, nn

WHOLE = 1 << 40  # a block size no test batch reaches: one block, one GEMM


def _conv(cin, cout, kh, kw, seed, dtype):
    rng = np.random.default_rng(seed)
    conv = nn.Conv1D(cin, cout, kh, rng) if kw is None else nn.Conv2D(cin, cout, kh, kw, rng)
    conv.bias.value[:] = rng.standard_normal(cout)
    for _, p in conv.named_params():
        p.value = p.value.astype(dtype)
    return conv


def _patch_bytes(x, kh, kw):
    """Patch bytes of one sample of ``x`` (N, H, W, C)."""
    return int(np.prod(x.shape[1:])) * kh * kw * x.itemsize


def _samples_per_block(x, kh, kw):
    return [len(cols) // (x.shape[1] * x.shape[2]) for _, cols in nn._patch_blocks(x, kh, kw)]


def _run(conv, x, g, block, monkeypatch):
    monkeypatch.setattr(nn, "_BLOCK_BYTES", block)
    y = conv.forward(x, train=True)
    gx = conv.backward(g)
    return y, gx, conv.kernels.grad.copy(), conv.bias.grad.copy()


# (cin, cout, kh, kw, per-sample input shape); kw None is a Conv1D
SHAPES = {
    "7x7": (8, 16, 7, 7, (37, 32, 8)),
    "3x3": (16, 64, 3, 3, (55, 32, 16)),
    "1x1": (128, 16, 1, 1, (55, 32, 128)),
    "conv1d": (64, 128, 5, None, (37, 64)),
}


@pytest.mark.parametrize("name", list(SHAPES))
def test_forward_is_bit_identical_with_a_ragged_last_block(name, monkeypatch):
    cin, cout, kh, kw, shape = SHAPES[name]
    conv = _conv(cin, cout, kh, kw, 1, np.float32)
    x = np.random.default_rng(2).standard_normal((5, *shape)).astype(np.float32)
    x4 = x if kw is not None else x[:, :, None, :]
    kw4 = kw or 1
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 2 * _patch_bytes(x4, kh, kw4))
    assert _samples_per_block(x4, kh, kw4) == [2, 2, 1]
    blocked = conv.forward(x)
    monkeypatch.setattr(nn, "_BLOCK_BYTES", WHOLE)
    assert _samples_per_block(x4, kh, kw4) == [5]
    whole = conv.forward(x)
    assert blocked.dtype == np.float32
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("name", list(SHAPES))
def test_gradients_under_tiny_blocks_match_the_whole_batch(name, monkeypatch):
    cin, cout, kh, kw, shape = SHAPES[name]
    conv = _conv(cin, cout, kh, kw, 3, np.float64)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, *shape))
    g = rng.standard_normal((*x.shape[:-1], cout))
    tiny = _run(conv, x, g, 1, monkeypatch)  # one sample per block
    whole = _run(conv, x, g, WHOLE, monkeypatch)
    assert tiny[0].tobytes() == whole[0].tobytes()
    for got, want in zip(tiny[1:], whole[1:]):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_registry_predictions_are_byte_identical_whatever_the_block_size(name, monkeypatch):
    graph = models.build_model(name, seed=5)
    graph.cast(np.float32)
    v = graph.variant
    clips = np.random.default_rng(6).standard_normal(
        (2, v.n_segments, v.segment_frames, v.n_mels)).astype(np.float32)
    outs = []
    for block in (1, 256 << 10, nn._BLOCK_BYTES, WHOLE):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", block)
        outs.append(evaluation.predict_clips(graph, clips).tobytes())
    assert outs[1:] == outs[:-1]


def test_conv_step_memory_stays_near_its_input_and_output():
    """No whole-batch patch matrix: that alone would be 16x the input plus
    output of this layer (cnn-v2-3's second convolution at batch 256)."""
    conv = _conv(8, 16, 7, 7, 7, np.float32)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((256, 37, 32, 8), dtype=np.float32)
    g = rng.standard_normal((256, 37, 32, 16), dtype=np.float32)
    tracemalloc.start()
    try:
        conv.forward(x, train=True)
        conv.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * (x.nbytes + g.nbytes)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("ph,pw,shape", [(3, 2, (4, 37, 32, 16)), (2, 2, (3, 9, 7, 5)),
                                         (3, 1, (4, 111, 1, 64))])
def test_maxpool_backward_routes_the_values_copyto_routed(train, ph, pw, shape):
    """Finite gradients only: with a NaN in ``gout`` the positions that get
    no gradient read 0 * NaN, which `Adadelta.step` rejects either way."""
    rng = np.random.default_rng(9)
    x = rng.integers(0, 4, shape).astype(np.float32)  # ties in many windows
    pool = nn.MaxPool2D(ph, pw)
    out = pool.forward(x, train=train)
    g = rng.standard_normal(out.shape).astype(np.float32)
    want = np.zeros_like(x)
    wwin = pool._windows(want, *out.shape[1:3])
    hit = pool._cache[0]
    free = np.ones(out.shape, dtype=bool)
    for i in range(ph):
        for j in range(pw):
            first = hit[:, :, i, :, j, :] & free
            np.copyto(wwin[:, :, i, :, j, :], g, where=first)
            free &= ~first
    got = pool.backward(g)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, want)
