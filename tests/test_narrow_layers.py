"""Narrow-channel layers run along whole rows: max pooling as a running
maximum over window offsets, per-channel sums by einsum and per-channel
broadcasts over (N, H*W*C) rows in BatchNorm and the convolution's bias, and
the one-channel convolution's patches built tap-major. Each must give the
bits of the straightforward form, which the references below spell out the
way the layers used to compute them."""

import numpy as np
import pytest

from scenecls import nn

WHOLE = 1 << 40  # a block size no test batch reaches


def _pool_reference(x, ph, pw):
    """Output and hit mask of a max over the window axes of a reshaped view."""
    n, h, w, c = x.shape
    h2, w2 = h // ph, w // pw
    win = x[:, : h2 * ph, : w2 * pw, :].reshape(n, h2, ph, w2, pw, c)
    out = win.max(axis=(2, 4))
    return out, win == out[:, :, None, :, None, :]


def _pool_input(shape, dtype, seed):
    """Values on a coarse grid, so windows hold ties; a third are after-ReLU
    zeros, and a few are NaN."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, shape).astype(dtype) / 2
    x = np.fmax(x, 0.0) + 0.0
    x.flat[rng.choice(x.size, 5, replace=False)] = np.nan
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ph, pw, shape", [
    (3, 2, (3, 38, 33, 8)),   # cnn-v2-3's pool, with remainder rows and cols
    (2, 2, (2, 11, 8, 64)),   # squeezenet's
    (1, 1, (2, 4, 4, 3)),
])
def test_maxpool2d_forward_matches_a_max_over_the_window_axes(ph, pw, shape, dtype):
    x = _pool_input(shape, dtype, 1)
    want, want_hit = _pool_reference(x, ph, pw)
    for train in (True, False):
        pool = nn.MaxPool2D(ph, pw)
        got = pool.forward(x, train)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(pool._cache[0], want_hit)
    assert np.isnan(want).any() and (want == 0.0).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool1d_forward_matches_a_max_over_the_window_axis(dtype):
    x = _pool_input((4, 112, 64), dtype, 2)  # cnn-1d's first pool, one spare step
    want, want_hit = _pool_reference(x[:, :, None, :], 3, 1)
    pool = nn.MaxPool1D(3)
    got = pool.forward(x, train=True)
    assert got.tobytes() == want[:, :, 0, :].tobytes()
    assert np.array_equal(pool._cache[0], want_hit)


class _ReferenceBatchNorm(nn.BatchNorm):
    """BatchNorm with sum(axis=0) and mean(axis=0) statistics and every
    per-channel broadcast over (N*H*W, C) rows."""

    def forward(self, x, train=False):
        x2 = x.reshape(-1, x.shape[-1])
        if train:
            mean = x2.mean(axis=0)
            x_hat = x2 - mean
            var = np.einsum("ij,ij->j", x_hat, x_hat) / len(x2)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
            x_hat = x2 - mean
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        out = x_hat * self.gain.value
        out += self.shift.value
        self._cache = (x_hat, inv_std, train)
        return out.reshape(x.shape)

    def backward(self, gout):
        x_hat, inv_std, train = self._cache
        g2 = gout.reshape(x_hat.shape)
        self.gain.grad = np.einsum("ij,ij->j", g2, x_hat)
        self.shift.grad = g2.sum(axis=0)
        if not train:
            return gout * self.gain.value * inv_std
        m = len(x_hat)
        gx = x_hat * (self.gain.grad / m)
        np.subtract(g2, gx, out=gx)
        gx -= self.shift.grad / m
        gx *= self.gain.value * inv_std
        return gx.reshape(gout.shape)


def _batchnorms(c, dtype, seed):
    """The layer and its reference with equal, non-trivial parameters."""
    rng = np.random.default_rng(seed)
    pair = nn.BatchNorm(c), _ReferenceBatchNorm(c)
    gain, shift = rng.uniform(0.5, 2.0, c), rng.standard_normal(c)
    mean, var = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
    for bn in pair:
        bn.gain.value, bn.shift.value = gain.astype(dtype), shift.astype(dtype)
        bn.running_mean, bn.running_var = mean.astype(dtype), var.astype(dtype)
    return pair


# per-sample BatchNorm inputs of cnn-v2-3 (first three) and cnn-1d, and one channel
BN_SHAPES = [(111, 64, 8), (37, 32, 16), (12, 16, 32), (111, 64), (37, 128), (12, 256), (9, 5, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", BN_SHAPES)
@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_forward_and_backward_bits_match_the_narrow_form(shape, dtype, train):
    rng = np.random.default_rng(3)
    x = (3.0 * rng.standard_normal((6, *shape)) + 1.5).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    bn, ref = _batchnorms(shape[-1], dtype, 4)
    results = []
    for layer in (bn, ref):
        y = layer.forward(x, train)
        gx = layer.backward(g)
        results.append([y, gx, layer.gain.grad, layer.shift.grad,
                        layer.running_mean, layer.running_var])
    for got, want in zip(*results):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _one_channel_reference(x, kernels, bias, g, step):
    """Forward output and kernel gradient by a sliding-window im2col over the
    same blocks of ``step`` samples, its columns in (kh, kw) order."""
    cout, kh, kw, _ = kernels.shape
    n, h, w, _ = x.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    kmat = kernels.transpose(1, 2, 3, 0).reshape(-1, cout)
    gflat = g.reshape(-1, cout)
    out = np.empty((n * h * w, cout), x.dtype)
    gk = np.zeros((cout, kh * kw), x.dtype)
    for s in range(0, n, step):
        block = np.pad(x[s : s + step], ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        win = np.lib.stride_tricks.sliding_window_view(block, (kh, kw), axis=(1, 2))
        cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw)
        rows = slice(s * h * w, s * h * w + len(cols))
        np.matmul(cols, kmat, out=out[rows])
        gk += gflat[rows].T @ cols
    out = out.reshape(n, h, w, cout)
    out += bias
    return out, gk.reshape(kernels.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_one_channel_conv_matches_a_sliding_window_im2col(k, dtype, monkeypatch):
    rng = np.random.default_rng(k)
    conv = nn.Conv2D(1, 8, k, k, rng)
    conv.bias.value = rng.standard_normal(8)
    for _, p in conv.named_params():
        p.value = p.value.astype(dtype)
    x = rng.standard_normal((5, 37, 32, 1)).astype(dtype)
    g = rng.standard_normal((5, 37, 32, 8)).astype(dtype)
    sample = 37 * 32 * k * k * x.itemsize  # one sample's patch bytes
    for block, step in ((2 * sample, 2), (WHOLE, 5)):  # blocks of 2, 2, 1 samples; one block
        monkeypatch.setattr(nn, "_BLOCK_BYTES", block)
        want_y, want_gk = _one_channel_reference(x, conv.kernels.value, conv.bias.value, g, step)
        y = conv.forward(x, train=True)
        conv.backward(g)
        assert y.dtype == dtype
        assert y.tobytes() == want_y.tobytes()
        assert conv.kernels.grad.tobytes() == want_gk.tobytes()
        assert conv.bias.grad.tobytes() == g.reshape(-1, 8).sum(axis=0).tobytes()


@pytest.mark.parametrize("cout", [1, 16])
def test_conv_bias_passes_match_the_narrow_broadcast_and_sum(cout):
    rng = np.random.default_rng(cout)
    conv = nn.Conv2D(8, cout, 3, 3, rng)
    conv.bias.value = rng.standard_normal(cout)
    for _, p in conv.named_params():
        p.value = p.value.astype(np.float32)
    x = rng.standard_normal((3, 37, 32, 8)).astype(np.float32)
    g = rng.standard_normal((3, 37, 32, cout)).astype(np.float32)
    want = nn._conv_same(x, conv.kernels.value.transpose(1, 2, 3, 0).reshape(-1, cout), 3, 3)
    want += conv.bias.value
    assert conv.forward(x, train=True).tobytes() == want.tobytes()
    conv.backward(g)
    assert conv.bias.grad.tobytes() == g.reshape(-1, cout).sum(axis=0).tobytes()


def test_one_channel_patches_keep_block_sizing(monkeypatch):
    x = np.zeros((5, 37, 32, 1), np.float32)
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 2 * 37 * 32 * 49 * 4)
    blocks = list(nn._patch_blocks(x, 7, 7))
    assert [cols.shape for _, cols in blocks] == [(2 * 37 * 32, 49)] * 2 + [(37 * 32, 49)]
    assert [rows.start for rows, _ in blocks] == [0, 2 * 37 * 32, 4 * 37 * 32]
