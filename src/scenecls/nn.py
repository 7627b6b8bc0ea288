"""Minimal deterministic neural-network engine on numpy arrays.

Tensors are C-contiguous ndarrays in their ModelGraph's ``dtype``, the one
its layers were built in. A layer with parameters allocates them once, as
zeros in its ``dtype`` (float64 unless told otherwise); `Layer.init_params`,
or an ``rng`` given to the constructor, then draws its weights in float64.
Graphs built by `models.build_model`, `models.parse_model_spec` or directly
are float64, and the finite-difference and oracle tests run on that.
Float32 is the one precision that training, inference and checkpoints use:
`pipeline.train` casts its graph, and `models.load_model` builds one in
float32 and reads the checkpoint into it. Every layer keeps its input's
dtype, except that Softmax returns its 15-wide output in float64, so fused
rows sum to 1 within 1e-8.

Spatial layout is channels-last: 2-D feature maps are (batch, height,
width, channels), 1-D sequences are (batch, time, channels). Every layer
implements an exact analytic backward pass; correctness is pinned by
finite-difference tests rather than runtime checks. A layer's forward keeps
on the layer what its backward reads. A ModelGraph drops that as soon as
each layer is done with it (`_forget`): an eval forward after each layer's
forward, a train step's backward after each layer's backward. So inference
holds no caches between calls, and a train step holds only the caches of
the layers its backward has still to run. A layer called directly keeps
its own.

A Layer subclass declares only what differs from `Layer`: its Parameter
attributes, set in checkpoint order; its sublayers, as attributes (Fire's
three convolutions); and what its backward reads, kept under a `_CACHES`
name that `Layer` sets to None. `Layer.named_params` and `init_params`
walk those attributes, so no kind lists its parameters or sublayers again.
`init_params` draws every weight, a Parameter of two or more axes shaped
(out, ..., in), as Glorot-uniform with fans taken from its shape: fan-in
prod(shape[1:]), fan-out prod(shape[:-1]). That is (in, units) for Dense
and (taps * cin, taps * cout) for the convolutions; biases, gains and
shifts are not drawn, so no kind writes an init rule of its own.

Convolutions are stride-1 with "same" zero padding, computed as im2col plus
GEMM over blocks of whole samples of about _BLOCK_BYTES patch bytes each, so
no patch matrix of the whole batch is ever built. `_block_bounds` cuts these
blocks, and the front end's resampler and STFT blocks, by the one
_BLOCK_BYTES. The forward pass writes each block's output rows and adds the
bias to them, and how the batch is cut changes none of their bits; the
kernel gradient sums one product per block; the input gradient is the same
blocked convolution of the output gradient by the flipped, in/out-swapped
kernels, and a ModelGraph's first layer skips it. A one-channel input builds
its patches tap-major, in one copy along whole padded rows, and the GEMMs
read them transposed. Max pooling windows equal their stride and drop
trailing remainders. The 1-D layers differ from the 2-D ones only in their
constructors: Conv2D's and MaxPool2D's code runs on the `_as4` view, which
gives an (N, T, C) sequence as (N, T, 1, C) and (out, k, in) kernels as
(out, k, 1, in), and hands results back in the caller's rank.

A pass over a batch is dealt out (`_deal`) in contiguous runs, one per core
this process may run on (`cores`, its CPU affinity set): the first run in
the calling thread, the others on a pool of threads made by the first pass
that needs it. That covers the convolution's blocks, each GEMM writing its
own output rows, to which the run then adds the bias (the input gradient is
such a convolution, without bias); the kernel gradient's per-block products,
each into its own slot, which one loop then adds in block order; and, split
by whole samples, the elementwise passes of ReLU, max pooling (the running
maximum and hit mask) and BatchNorm (centring, scaling and shift) and their
gradients. A pass goes to the pool only when it spans at least cores() *
_BLOCK_BYTES bytes, so a clip's few segments mostly stay in one thread. A
dealt run deals nothing again: every pass inside it runs whole in the run's
thread. `evaluation.predict_clips` deals whole clips that way, one run per
core, each run on its own `ModelGraph.twin` (layers keep their caches on
themselves), so each clip's forward stays in one thread. In
one thread stay the sums whose order is pinned (BatchNorm's channel sums and
variance, the bias gradients), Dropout's random draws, Dense, Adadelta, and
a one-channel input's kernel gradient, whose long thin GEMMs ran slower on
two threads. No bit depends on the worker count: every element is computed
by the same operations on the same operands whichever thread runs it, each
block's GEMM is the call one thread makes, and every sum adds in its
one-thread order. Threads overlap because numpy releases the GIL inside
GEMMs, copies and ufuncs. The pool assumes one BLAS thread per worker
(OPENBLAS_NUM_THREADS=1, as the benchmark sets); with OpenBLAS's default of
a thread per core the two counts multiply. On one core no pool is made and
no thread started, and a forked child drops the pool it inherits.

Layers over few channels run along long rows, not loops as short as the
channel count, with the bits of the plain forms: max pooling is a running
np.maximum over the window offsets in row-major order; per-channel sums are
einsums, which add rows in sum(axis=0)'s order; and per-channel broadcasts
(BatchNorm, the convolution bias) run on each sample's H*W*C row against
the channel vector tiled to its length.
"""

from __future__ import annotations

import copy
import math
import os
import struct
import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class OptimizerError(RuntimeError):
    """Raised when an update step would be invalid (e.g. non-finite gradient)."""


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


class Parameter:
    """A trainable tensor with its gradient and Adadelta accumulators, all in
    the value's dtype: a floating-point value keeps its own, anything else
    becomes float64."""

    __slots__ = ("name", "value", "grad", "eg2", "edx2")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.name = name
        value = np.asarray(value)
        dtype = value.dtype if value.dtype.kind == "f" else np.float64
        self.value = np.ascontiguousarray(value, dtype)
        # np.zeros, not zeros_like: calloc'd pages cost nothing until written
        self.grad = np.zeros(self.value.shape, self.value.dtype)
        self.eg2 = np.zeros(self.value.shape, self.value.dtype)   # running E[g^2]
        self.edx2 = np.zeros(self.value.shape, self.value.dtype)  # running E[dx^2]


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """The base of every layer kind; the module docstring says what a kind
    declares and what it gets from here."""

    kind = "layer"
    # ModelGraph clears this on its first layer, whose input gradient nothing
    # reads; a layer that can then skip computing it returns None instead.
    _input_grad = True
    _x = _mask = _cache = _shape = _out = None  # no forward has run yet

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def named_params(self):
        """Each Parameter attribute in the order the constructor set it, then
        each sublayer's as ``"<attribute>.<name>"``: the checkpoint's names."""
        attrs = vars(self).items()
        return ([(name, v) for name, v in attrs if isinstance(v, Parameter)]
                + [(f"{name}.{local}", p) for name, v in attrs if isinstance(v, Layer)
                   for local, p in v.named_params()])

    def init_params(self, rng: np.random.Generator) -> None:
        """Draw every weight from ``rng`` (they are zero until then), in
        `named_params` order from the one stream. A weight is a Parameter of
        two or more axes, shaped (out, ..., in); it gets Glorot-uniform draws
        in float64 with fan-in prod(shape[1:]) and fan-out prod(shape[:-1]),
        kept in its dtype. Biases, gains and shifts keep their values."""
        for _, p in self.named_params():
            if p.value.ndim >= 2:
                shape = p.value.shape
                p.value = glorot_uniform(rng, shape, math.prod(shape[1:]),
                                         math.prod(shape[:-1])).astype(p.value.dtype, copy=False)

    def extra_state(self):
        """Non-trainable tensors that belong in checkpoints (running stats),
        as (attribute name, array) pairs."""
        return []

    def _need_cache(self, cache):
        if cache is None:
            raise RuntimeError(f"{self.kind}: backward called before forward")
        return cache


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train=False):
        mask = self._mask = np.empty(x.shape, bool)
        out = np.empty_like(x)

        def run(s0, s1):
            np.greater(x[s0:s1], 0.0, out=mask[s0:s1])
            # np.where(mask, x, 0.0) bit for bit (NaN -> 0, -0.0 -> +0.0), but
            # branch-free: where's cost grows fivefold as the signs mix
            np.fmax(x[s0:s1], 0.0, out=out[s0:s1])
            out[s0:s1] += 0.0

        _deal(len(x), x.nbytes, run)
        return out

    def backward(self, gout):
        mask = self._need_cache(self._mask)
        gx = np.empty(gout.shape, gout.dtype)
        _deal(len(gout), gout.nbytes,
              lambda s0, s1: np.multiply(gout[s0:s1], mask[s0:s1], out=gx[s0:s1]))
        return gx


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.reshape(len(x), math.prod(x.shape[1:]))

    def backward(self, gout):
        return gout.reshape(self._need_cache(self._shape))


class Dense(Layer):
    """Affine map; weights are (units, in_features)."""

    kind = "dense"

    def __init__(self, in_features: int, units: int, rng: np.random.Generator | None = None,
                 *, dtype=np.float64):
        self.weights = Parameter(np.zeros((units, in_features), dtype))
        self.bias = Parameter(np.zeros(units, dtype))
        if rng is not None:
            self.init_params(rng)

    def forward(self, x, train=False):
        if x.shape[1] != self.weights.value.shape[1]:
            raise ValueError(
                f"dense expects {self.weights.value.shape[1]} features, got {x.shape[1]}"
            )
        self._x = x
        return x @ self.weights.value.T + self.bias.value

    def backward(self, gout):
        x = self._need_cache(self._x)
        self.weights.grad = gout.T @ x
        self.bias.grad = gout.sum(axis=0)
        return gout @ self.weights.value


def _channel_sums(a2):
    """``a2.sum(axis=0)`` of (M, C) rows, bit for bit. Over two or more
    channels that sum runs row after row in loops C long; einsum adds the
    rows in the same order, faster. One channel is a contiguous column,
    which sum adds pairwise, so it keeps that."""
    return a2.sum(axis=0) if a2.shape[1] == 1 else np.einsum("ij->j", a2)


# Bytes per block for every loop that streams its rows in blocks: the
# convolution's patch rows (`_patch_blocks`), the resampler's input windows and
# the STFT's frames. In the convolution a block's patch rows are still in cache
# when its GEMM reads them: 2 MiB is one core's L2 on the Xeon it was tuned on
# (one BLAS thread), and float32 training steps ran 0-10% faster than at 1 MiB
# and level with 4 MiB. In the front end a clip's temporaries stay a few MB,
# under the allocator's trim threshold, so their pages are reused rather than
# returned to the kernel and faulted in again for every clip.
_BLOCK_BYTES = 2 << 20


def _block_bounds(rows, row_bytes, equal=False):
    """The (r0, r1) blocks, in order, that cover range(rows) exactly, each of
    about _BLOCK_BYTES of `row_bytes`-byte rows and at least one row.

    By default a block holds as many rows as fit and the last one takes the
    rest. With `equal`, the blocks are as few as fit and differ in size by at
    most one row, so none is much smaller than the rest. Each loop keeps its
    own mode, since where the cuts fall is part of its arithmetic.
    """
    if equal:
        n = max(1, min(rows, -(-rows * row_bytes // _BLOCK_BYTES)))
        cuts = [rows * b // n for b in range(n + 1)]
    else:
        cuts = [*range(0, rows, max(1, _BLOCK_BYTES // row_bytes)), rows]
    return [(r0, r1) for r0, r1 in zip(cuts, cuts[1:]) if r0 < r1]


def cores() -> int:
    """The number of cores this process may run on: its CPU affinity set,
    which taskset and cpusets narrow, where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


# The worker threads: made by the first pass that deals work out, one per
# core it counts beyond the caller's; dropped in a forked child, which
# inherits the executor but none of its threads.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)

# Set in a thread while it runs one of `_deal`'s runs.
_in_run = threading.local()


def _run(fn, i0, i1):
    _in_run.on = True
    try:
        fn(i0, i1)
    finally:
        _in_run.on = False


def _deal(n, nbytes, fn):
    """Run ``fn(i0, i1)`` over contiguous runs of ``range(n)``, a parallel
    for: one run per core, the first in the calling thread and the rest on
    the pool, when the pass spans at least cores() * _BLOCK_BYTES bytes;
    otherwise ``fn(0, n)`` in this thread. Returns once every run is done,
    re-raising the first error.

    A dealt run deals nothing again: called from inside one, in the calling
    thread or on the pool, `_deal` runs ``fn(0, n)`` in that thread. So a
    run on a pool thread never waits on the pool it occupies.

    Runs only write, each to its own outputs, and what a run writes must
    not depend on where the runs are cut.
    """
    workers = cores()
    if workers < 2 or n < 2 or nbytes < workers * _BLOCK_BYTES or getattr(_in_run, "on", False):
        fn(0, n)
        return
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures.thread import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(workers - 1, "scenecls-nn")
    runs = min(workers, n)
    cuts = [n * k // runs for k in range(runs + 1)]
    futures = [_pool.submit(_run, fn, i0, i1) for i0, i1 in zip(cuts[1:-1], cuts[2:])]
    try:
        _run(fn, 0, cuts[1])
    finally:
        for f in futures:  # no run may outlive the pass, even one that failed
            f.exception()
    for f in futures:
        f.result()


def _patches(block, kh, kw):
    """The patch matrix of ``block`` (N, H, W, C), "same" zero-padded for a
    kh x kw kernel: rows are output positions in (n, h, w) order, columns
    (kh, kw, C) ordered to match the kernels."""
    n, h, w, c = block.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    if c == 1 and (ph or pw):
        # One channel: a row-major patch copies runs of only kw values, so
        # lay the patches out tap-major instead, in one copy along whole
        # padded rows, and hand the GEMMs the transpose.
        block = np.pad(block[..., 0], ((0, 0), (ph, ph), (pw, pw)))
        win = np.lib.stride_tricks.sliding_window_view(block, (kh, kw), axis=(1, 2))
        return np.ascontiguousarray(win.transpose(3, 4, 0, 1, 2)).reshape(kh * kw, -1).T
    if ph or pw:
        block = np.pad(block, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        win = np.lib.stride_tricks.sliding_window_view(block, (kh, kw), axis=(1, 2))
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * c)
    return block.reshape(-1, c)


def _conv_blocks(x, kh, kw):
    """The (s0, s1) sample blocks of ``x`` (N, H, W, C) for a kh x kw
    kernel, each as many samples as fit in _BLOCK_BYTES of patches
    (`_block_bounds`), at least one, and their patch bytes in all."""
    n, h, w, c = x.shape
    sample = h * w * kh * kw * c * x.itemsize
    return _block_bounds(n, sample), n * sample


def _patch_blocks(x, kh, kw):
    """Yield (row slice, patch matrix) for each block of `_conv_blocks`; a
    batch that fits whole is one block."""
    hw = x.shape[1] * x.shape[2]
    for s0, s1 in _conv_blocks(x, kh, kw)[0]:
        yield slice(s0 * hw, s1 * hw), _patches(x[s0:s1], kh, kw)


def _conv_same(x, kmat, kh, kw, bias=None):
    """Same-padded stride-1 convolution of ``x`` (N, H, W, C) by ``kmat``
    (kh*kw*C, out), plus ``bias`` (out,) if given: one GEMM per batch block
    into its own samples' rows of the output, the blocks dealt out in runs
    (`_deal`). Each run then adds the bias to the samples it wrote, tiled
    along each sample's row as in BatchNorm."""
    n, h, w = x.shape[:3]
    out = np.empty((n * h * w, kmat.shape[1]), np.result_type(x, kmat))
    rows = out.reshape(n, h * w * kmat.shape[1])  # a row per sample
    tbias = None if bias is None else np.tile(bias, h * w)
    blocks, nbytes = _conv_blocks(x, kh, kw)

    def gemms(b0, b1):
        for s0, s1 in blocks[b0:b1]:
            np.matmul(_patches(x[s0:s1], kh, kw), kmat, out=out[s0 * h * w : s1 * h * w])
        if tbias is not None and b0 < b1:  # an empty batch has no blocks
            rows[blocks[b0][0] : blocks[b1 - 1][1]] += tbias

    _deal(len(blocks), nbytes, gemms)
    return out.reshape(n, h, w, kmat.shape[1])


def _as4(a):
    """``a`` as an (N, H, W, C) array: an (N, T, C) sequence as its width-1
    view (N, T, 1, C), (out, k, in) kernels as (out, k, 1, in), and a 4-D
    array unchanged, an empty batch too (which a -1 axis could not size)."""
    return a.reshape(a.shape[0], a.shape[1], math.prod(a.shape[2:-1]), a.shape[-1])


class Conv2D(Layer):
    """Stride-1 same-padded 2-D convolution; kernels are (out, kh, kw, in)."""

    kind = "conv2d"
    _layout = "N,H,W"  # the input axes before the channels, for the error

    def __init__(self, in_channels: int, out_channels: int, kh: int, kw: int,
                 rng: np.random.Generator | None = None, *, dtype=np.float64):
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError("kernel dims must be odd for same padding")
        self.kernels = Parameter(np.zeros((out_channels, kh, kw, in_channels), dtype))
        self.bias = Parameter(np.zeros(out_channels, dtype))
        if rng is not None:
            self.init_params(rng)

    def forward(self, x, train=False):
        kernels = _as4(self.kernels.value)
        cout, kh, kw, cin = kernels.shape
        if x.ndim != self.kernels.value.ndim or x.shape[-1] != cin:
            raise ValueError(f"{self.kind} expects ({self._layout},{cin}) input, got {x.shape}")
        self._x = x
        kmat = kernels.transpose(1, 2, 3, 0).reshape(-1, cout)
        return _conv_same(_as4(x), kmat, kh, kw, self.bias.value).reshape(*x.shape[:-1], cout)

    def backward(self, gout):
        x = _as4(self._need_cache(self._x))
        kernels = _as4(self.kernels.value)
        cout, kh, kw, cin = kernels.shape
        gflat = gout.reshape(-1, cout)
        blocks, nbytes = _conv_blocks(x, kh, kw)
        hw = x.shape[1] * x.shape[2]
        prods = np.empty((len(blocks), cout, kh * kw * cin), np.result_type(gout, x))

        def products(b0, b1):
            for b, (s0, s1) in enumerate(blocks[b0:b1], b0):
                np.matmul(gflat[s0 * hw : s1 * hw].T, _patches(x[s0:s1], kh, kw), out=prods[b])

        # one-channel (tap-major) patches stay in one thread: their long thin
        # GEMMs ran slower on two (cnn-v2-3's first layer, 130 -> 175 ms a step)
        _deal(len(blocks), 0 if cin == 1 else nbytes, products)
        gk = np.zeros(prods.shape[1:], prods.dtype)
        for prod in prods:  # the sum of one product per block, in block order
            gk += prod
        self.kernels.grad = gk.reshape(self.kernels.value.shape)
        self.bias.grad = _channel_sums(gflat)
        if not self._input_grad:
            return None
        # The adjoint of a same-padded odd-kernel convolution is the same
        # convolution of gout with each kernel flipped and in/out swapped.
        flipped = kernels[:, ::-1, ::-1, :].transpose(1, 2, 0, 3).reshape(-1, cin)
        return _conv_same(_as4(gout), flipped, kh, kw).reshape(self._x.shape)


class Conv1D(Conv2D):
    """Stride-1 same-padded 1-D convolution over time; kernels (out, k, in).
    It differs from Conv2D only in its constructor: Conv2D's code runs on
    the width-1 `_as4` views, (N, T, 1, C) input and (out, k, 1, in)
    kernels."""

    kind = "conv1d"
    _layout = "N,T"

    def __init__(self, in_channels: int, out_channels: int, k: int,
                 rng: np.random.Generator | None = None, *, dtype=np.float64):
        super().__init__(in_channels, out_channels, k, 1, rng, dtype=dtype)
        # Conv2D's (out, k, 1, in) kernels in an array of their own without
        # the width axis: the same values in the same order, Glorot draws too
        self.kernels = Parameter(self.kernels.value[:, :, 0, :].copy())


class BatchNorm(Layer):
    """Per-channel (last axis) normalization over batch and spatial axes.

    Training uses biased batch statistics and folds them into running stats
    with ``momentum``; inference uses the running stats. ``eps`` sits inside
    the square root.
    """

    kind = "batchnorm"
    momentum = 0.99
    eps = 1e-5

    def __init__(self, channels: int, *, dtype=np.float64):
        self.gain = Parameter(np.ones(channels, dtype))
        self.shift = Parameter(np.zeros(channels, dtype))
        self.running_mean = np.zeros(channels, dtype)
        self.running_var = np.ones(channels, dtype)

    def forward(self, x, train=False):
        if x.shape[0] == 0:
            raise ValueError("batchnorm on an empty batch")
        c = x.shape[-1]
        x2 = x.reshape(-1, c)
        rows = x.reshape(len(x), -1)
        reps = rows.shape[1] // c  # channel vectors tiled this often fill a row
        # The centring, scaling and shift passes run by whole samples
        # (`_deal`); the channel sums and the variance in one thread, in
        # their pinned order.
        mean = _channel_sums(x2) / len(x2) if train else self.running_mean
        tmean = np.tile(mean, reps)
        x_hat = np.empty(rows.shape, np.result_type(rows, tmean))
        _deal(len(rows), rows.nbytes,
              lambda s0, s1: np.subtract(rows[s0:s1], tmean, out=x_hat[s0:s1]))
        if train:
            h2 = x_hat.reshape(-1, c)
            var = np.einsum("ij,ij->j", h2, h2) / len(x2)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        tinv, tgain, tshift = (np.tile(v, reps) for v in (inv_std, self.gain.value,
                                                           self.shift.value))
        out = np.empty(rows.shape, np.result_type(x_hat, tgain))

        def scale_shift(s0, s1):
            np.multiply(x_hat[s0:s1], tinv, out=x_hat[s0:s1])
            np.multiply(x_hat[s0:s1], tgain, out=out[s0:s1])
            out[s0:s1] += tshift

        _deal(len(rows), rows.nbytes, scale_shift)
        self._cache = (x_hat, inv_std, train)
        return out.reshape(x.shape)

    def backward(self, gout):
        x_hat, inv_std, train = self._need_cache(self._cache)
        c = len(inv_std)
        reps = x_hat.shape[1] // c
        h2 = x_hat.reshape(-1, c)
        g2 = gout.reshape(h2.shape)
        self.gain.grad = np.einsum("ij,ij->j", g2, h2)
        self.shift.grad = _channel_sums(g2)
        rows = gout.reshape(x_hat.shape)
        if not train:
            tgain, tinv = np.tile(self.gain.value, reps), np.tile(inv_std, reps)
            gx = np.empty(rows.shape, np.result_type(rows, tgain, tinv))

            def run(s0, s1):
                np.multiply(rows[s0:s1], tgain, out=gx[s0:s1])
                gx[s0:s1] *= tinv
        else:
            # gain * inv_std * (gout - shift.grad / m - x_hat * gain.grad / m), in one buffer
            m = len(h2)
            tgg, tsg = np.tile(self.gain.grad / m, reps), np.tile(self.shift.grad / m, reps)
            tscale = np.tile(self.gain.value * inv_std, reps)
            gx = np.empty(rows.shape, np.result_type(x_hat, tgg))

            def run(s0, s1):
                g = gx[s0:s1]
                np.multiply(x_hat[s0:s1], tgg, out=g)
                np.subtract(rows[s0:s1], g, out=g)
                g -= tsg
                g *= tscale

        _deal(len(rows), rows.nbytes, run)
        return gx.reshape(gout.shape)

    def extra_state(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


class MaxPool2D(Layer):
    """Non-overlapping max pooling; remainder rows/cols are dropped. On ties
    the gradient goes to the first maximum in row-major window order."""

    kind = "maxpool2d"

    def __init__(self, ph: int, pw: int):
        self.ph, self.pw = ph, pw

    def _windows(self, a, h2, w2):
        """A view of ``a``'s pooled region as (N, H2, ph, W2, pw, C)."""
        n, c = a.shape[0], a.shape[-1]
        return a[:, : h2 * self.ph, : w2 * self.pw, :].reshape(n, h2, self.ph, w2, self.pw, c)

    def forward(self, x, train=False):
        shape, x = x.shape, _as4(x)
        h, w = x.shape[1:3]
        h2, w2 = h // self.ph, w // self.pw
        if h2 == 0 or w2 == 0:
            raise ValueError(f"pool window {self.ph}x{self.pw} larger than input {h}x{w}")
        win = self._windows(x, h2, w2)
        out = np.empty((len(x), h2, w2, x.shape[3]), x.dtype)
        hit = np.empty(win.shape, bool)  # one byte per position: does it hold its window's maximum?

        def run(s0, s1):
            # a running maximum, one np.maximum over the whole output per
            # window offset in row-major order; max(axis=(2, 4)) reduces in
            # loops only ph * pw long
            w, o = win[s0:s1], out[s0:s1]
            np.copyto(o, w[:, :, 0, :, 0, :])
            for i in range(self.ph):
                for j in range(self.pw):
                    if i or j:
                        np.maximum(o, w[:, :, i, :, j, :], out=o)
            np.equal(w, o[:, :, None, :, None, :], out=hit[s0:s1])

        _deal(len(x), x.nbytes, run)
        self._cache = (hit, shape)
        return out.reshape(out.shape[:len(shape) - 1] + out.shape[-1:])

    def backward(self, gout):
        hit, in_shape = self._need_cache(self._cache)
        gx = np.zeros(in_shape, gout.dtype)
        gout = _as4(gout)
        gwin = self._windows(_as4(gx), gout.shape[1], gout.shape[2])

        def run(s0, s1):
            g = gout[s0:s1]
            free = np.ones(g.shape, dtype=bool)  # windows whose maximum is not yet routed
            for i in range(self.ph):
                for j in range(self.pw):
                    first = hit[s0:s1, :, i, :, j, :] & free
                    # branch-free, unlike copyto(where=first), whose cost follows the hits
                    np.multiply(g, first, out=gwin[s0:s1, :, i, :, j, :])
                    free &= ~first

        _deal(len(gout), gx.nbytes, run)
        return gx


class MaxPool1D(MaxPool2D):
    """Max pooling over time. It differs from MaxPool2D only in its
    constructor: MaxPool2D's code runs on the (N, T, 1, C) `_as4` view."""

    kind = "maxpool1d"

    def __init__(self, p: int):
        super().__init__(p, 1)


class GlobalAvgPool(Layer):
    kind = "globalavgpool"

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.mean(axis=tuple(range(1, x.ndim - 1)))

    def backward(self, gout):
        shape = self._need_cache(self._shape)
        spatial = int(np.prod(shape[1:-1]))
        g = gout.reshape(shape[0], *([1] * (len(shape) - 2)), shape[-1])
        return np.broadcast_to(g / spatial, shape).copy()


class Dropout(Layer):
    """Inverted dropout: survivors are scaled by 1/(1-rate) during training."""

    kind = "dropout"

    def __init__(self, rate: float, rng: np.random.Generator | None = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng  # None: np.random.default_rng(0), made by the first training forward

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if self.rng is None:
            self.rng = np.random.default_rng(0)
        self._mask = self.rng.random(x.shape) >= self.rate
        return x * self._mask / (1.0 - self.rate)

    def backward(self, gout):
        if self._mask is None:
            return gout
        return gout * self._mask / (1.0 - self.rate)


class Softmax(Layer):
    """Max-subtracted softmax over the last axis."""

    kind = "softmax"

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        z = np.exp(x - x.max(axis=-1, keepdims=True))
        self._out = z / z.sum(axis=-1, keepdims=True)
        return self._out

    def backward(self, gout):
        out = self._need_cache(self._out)
        return out * (gout - (gout * out).sum(axis=-1, keepdims=True))


class Fire(Layer):
    """Squeeze 1x1 convolution feeding parallel 1x1 and 3x3 expand branches.

    Branch outputs are concatenated along channels, so the module emits
    2 * expand channels. All three convolutions are followed by ReLU.
    """

    kind = "fire"

    def __init__(self, in_channels: int, squeeze: int, expand: int,
                 rng: np.random.Generator | None = None, *, dtype=np.float64):
        if not squeeze < 2 * expand:
            raise ValueError("squeeze channels must be fewer than total expand channels")
        self.squeeze_ch, self.expand_ch = squeeze, expand
        self.squeeze = Conv2D(in_channels, squeeze, 1, 1, dtype=dtype)
        self.expand1 = Conv2D(squeeze, expand, 1, 1, dtype=dtype)
        self.expand3 = Conv2D(squeeze, expand, 3, 3, dtype=dtype)
        self._relu_sq, self._relu_e1, self._relu_e3 = ReLU(), ReLU(), ReLU()
        if rng is not None:
            self.init_params(rng)

    def forward(self, x, train=False):
        s = self._relu_sq.forward(self.squeeze.forward(x, train), train)
        a = self._relu_e1.forward(self.expand1.forward(s, train), train)
        b = self._relu_e3.forward(self.expand3.forward(s, train), train)
        return np.concatenate([a, b], axis=-1)

    def backward(self, gout):
        self._need_cache(self._relu_e1._mask)  # a backward before forward names fire
        e = self.expand_ch
        # one branch to its end, then the other added in (`_conv_same` returns
        # a fresh array): neither ReLU gradient outlives its convolution
        gs = self.expand1.backward(self._relu_e1.backward(gout[..., :e]))
        gs += self.expand3.backward(self._relu_e3.backward(gout[..., e:]))
        return self.squeeze.backward(self._relu_sq.backward(gs))


# The attributes in which layers keep what their backward pass reads
_CACHES = ("_x", "_mask", "_cache", "_shape", "_out")


def _forget(layer) -> None:
    """Drop what ``layer``, and each layer it holds (Fire's six), keeps for
    its backward pass."""
    for name, value in list(vars(layer).items()):
        if name in _CACHES:
            setattr(layer, name, None)
        elif isinstance(value, Layer):
            _forget(value)


class ModelGraph:
    """An ordered layer stack bound to a feature variant and input shape."""

    # the model spec text models.parse_model_spec built the graph from; a
    # graph assembled from layers directly has none
    spec_text = None

    def __init__(self, name: str, layers: list, input_shape: tuple, variant):
        self.name = name
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.variant = variant
        params = self.parameters()
        # the dtype the layers were built in (float64 for a graph without parameters)
        self.dtype = params[0].value.dtype if params else np.dtype(np.float64)
        for i, layer in enumerate(layers):
            layer._input_grad = i > 0
            for local, p in layer.named_params():
                p.name = f"{i:02d}.{layer.kind}.{local}"

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """The graph's output for ``x``. An eval forward drops each layer's
        backward caches as soon as that layer is done, so inference holds
        none between calls; call a layer directly to keep them."""
        x = np.asarray(x, dtype=self.dtype)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"{self.name} expects input {self.input_shape}, got {x.shape[1:]}")
        for layer in self.layers:
            x = layer.forward(x, train)
            if not train:
                _forget(layer)
        return x

    def twin(self) -> "ModelGraph":
        """A copy that shares every parameter and running statistic with this
        graph and keeps its own caches, so that two threads can run eval
        forwards at once, one on each graph. Layers keep caches on
        themselves (Softmax even returns its own), so one graph cannot serve
        two threads. This graph's caches are dropped first, not copied."""
        for layer in self.layers:
            _forget(layer)
        memo = {id(p): p for p in self.parameters()}
        memo.update((id(arr), arr) for layer in self.layers for _, arr in layer.extra_state())
        return copy.deepcopy(self, memo)

    def backward_from_logits(self, dlogits: np.ndarray) -> None:
        """Backpropagate a gradient taken w.r.t. the final softmax's input.

        Returns None: the gradients land on the parameters. Each layer's
        ``backward`` runs once, last to first, and its caches are dropped as
        soon as it returns; a first-layer convolution computes no input
        gradient, since nothing would read it. The final softmax is never
        backpropagated and keeps its output, the probabilities."""
        if not isinstance(self.layers[-1], Softmax):
            raise RuntimeError("graph does not end in softmax")
        g = dlogits.astype(self.dtype, copy=False)
        for layer in reversed(self.layers[:-1]):
            g = layer.backward(g)
            _forget(layer)

    def parameters(self) -> list:
        return [p for layer in self.layers for _, p in layer.named_params()]

    def cast(self, dtype) -> None:
        """Compute in ``dtype`` from now on: converts every parameter with its
        Adadelta accumulators and every running statistic; gradients restart at zero."""
        self.dtype = np.dtype(dtype)
        for p in self.parameters():
            p.value, p.eg2, p.edx2 = (a.astype(dtype) for a in (p.value, p.eg2, p.edx2))
            p.grad = np.zeros(p.value.shape, dtype)
        for layer in self.layers:
            for local, arr in layer.extra_state():
                setattr(layer, local, arr.astype(dtype))

    def state_tensors(self):
        """All persistent tensors in declaration order, as (name, array) refs.

        Per parameter: its value, then its two Adadelta accumulators; per
        layer, any running statistics.
        """
        out = []
        for i, layer in enumerate(self.layers):
            for _, p in layer.named_params():
                out.append((p.name, p.value))
                out.append((p.name + ".eg2", p.eg2))
                out.append((p.name + ".edx2", p.edx2))
            for local, arr in layer.extra_state():
                out.append((f"{i:02d}.{layer.kind}.{local}", arr))
        return out

    def snapshot(self) -> dict:
        return {name: arr.copy() for name, arr in self.state_tensors()}

    def load_state(self, tensors: dict) -> None:
        own = self.state_tensors()
        names = {name for name, _ in own}
        if names != set(tensors):
            missing = sorted(names - set(tensors))[:3]
            extra = sorted(set(tensors) - names)[:3]
            raise CheckpointError(f"state mismatch (missing {missing}, unexpected {extra})")
        for name, arr in own:  # every shape checked before any array is written
            if tensors[name].shape != arr.shape:
                raise CheckpointError(f"{name}: shape {tensors[name].shape} != {arr.shape}")
        for name, arr in own:
            arr[...] = tensors[name]

    def seed_dropout(self, seed: int) -> None:
        streams = np.random.SeedSequence(seed).spawn(len(self.layers))
        for layer, ss in zip(self.layers, streams):
            if isinstance(layer, Dropout):
                layer.rng = np.random.default_rng(ss)

    def trace_shapes(self, batch: int = 2) -> list:
        """(kind, per-sample output shape) after each layer, on a zero input."""
        x = np.zeros((batch, *self.input_shape))
        out = []
        for layer in self.layers:
            x = layer.forward(x, train=False)
            out.append((layer.kind, tuple(x.shape[1:])))
        return out


def cross_entropy(probs: np.ndarray, labels) -> tuple:
    """Mean negative log-likelihood and the fused gradient w.r.t. logits.

    ``probs`` must come from a softmax over those logits; the gradient is
    (probs - onehot) / batch.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    n, c = probs.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= c):
        raise ValueError(f"labels must lie in [0, {c})")
    with np.errstate(divide="ignore"):
        loss = float(-np.log(probs[np.arange(n), labels]).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def loss_and_gradients(graph: ModelGraph, x: np.ndarray, labels) -> tuple:
    """Train-mode forward plus fused backward; gradients land on parameters.

    Returns (mean loss, batch probabilities).
    """
    probs = graph.forward(x, train=True)
    loss, dlogits = cross_entropy(probs, labels)
    graph.backward_from_logits(dlogits)
    return loss, probs


class Adadelta:
    """Adadelta with the canonical rho=0.95, eps=1e-6 constants.

    Per element: accumulate E[g^2], scale the step by
    sqrt(E[dx^2]+eps)/sqrt(E[g^2]+eps), accumulate E[dx^2], apply lr * dx.
    """

    def __init__(self, params, lr: float = 1.0, rho: float = 0.95, eps: float = 1e-6):
        self.params = list(params)
        self.lr, self.rho, self.eps = lr, rho, eps

    def step(self):
        """Update every parameter, or none: all gradients are checked first."""
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise OptimizerError(f"non-finite gradient for {p.name or 'parameter'}")
        for p in self.params:
            g = p.grad
            p.eg2 *= self.rho
            p.eg2 += (1.0 - self.rho) * g * g
            dx = -np.sqrt(p.edx2 + self.eps) / np.sqrt(p.eg2 + self.eps) * g
            p.edx2 *= self.rho
            p.edx2 += (1.0 - self.rho) * dx * dx
            p.value += self.lr * dx


@contextmanager
def atomic_path(path):
    """Yield a per-thread temp name beside ``path`` to write to.

    The temp file is renamed onto ``path`` when the block succeeds and
    removed when it raises, so readers never see a partial file, and two
    writers of one target, in processes or threads, never share a temp file.
    """
    tmp = Path(f"{path}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_SPCK_MAGIC = b"SPCK"
_SPCK_VERSION = 1


def write_checkpoint(path, spec_text: str, tensors) -> None:
    """Serialize named tensors behind a model-spec header.

    Layout: magic "SPCK", u8 version, u32-length-prefixed UTF-8 spec string,
    then per tensor: u16 name length + name, u8 rank, u32 dims, and the
    payload as little-endian float32. Written atomically via rename.
    """
    spec_bytes = spec_text.encode("utf-8")
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(_SPCK_MAGIC + struct.pack("<BI", _SPCK_VERSION, len(spec_bytes)) + spec_bytes)
        for name, arr in tensors:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)) + nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_checkpoint(path) -> tuple:
    """Read back (spec_text, OrderedDict of float32 tensors, in file order),
    each a read-only array of its own. This is the walk `models.load_model`
    uses, reading each tensor into a new array instead of a graph's."""
    return _walk_checkpoint(path, str)


def _walk_checkpoint(path, build) -> tuple:
    """Walk a checkpoint's headers once, reading each stored tensor's payload
    straight into an array; return (build(spec_text), OrderedDict of the
    arrays read, in file order).

    When ``build`` makes a ModelGraph, each tensor is read into the graph's
    array of the same name, so the file's order does not matter; every name
    must be the graph's, with its shape, and every graph tensor must be read.
    Otherwise each tensor is read into a new, read-only float32 array. Every
    length is checked against the bytes left before it is read, and every
    failure, building from the spec included, is a CheckpointError naming
    the file.
    """

    def take(fh, n, what, text=False):
        if n > size - fh.tell():
            raise CheckpointError(f"{path}: truncated reading {what}")
        try:
            return fh.read(n).decode("utf-8") if text else fh.read(n)
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} is not UTF-8") from None

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if take(fh, 4, "magic") != _SPCK_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, spec_len = struct.unpack("<BI", take(fh, 5, "header"))
        if version != _SPCK_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        spec_text = take(fh, spec_len, "model spec", text=True)
        try:
            built = build(spec_text)
        except (ArithmeticError, LookupError, MemoryError, ValueError) as exc:
            raise CheckpointError(f"{path}: model spec: {exc}") from None
        # The graph's arrays not read yet, by name; None: a new array per tensor.
        state = dict(built.state_tensors()) if isinstance(built, ModelGraph) else None
        tensors = OrderedDict()
        while fh.tell() < size:
            (name_len,) = struct.unpack("<H", take(fh, 2, "tensor header"))
            name = take(fh, name_len, "tensor name", text=True)
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate tensor {name}")
            (rank,) = struct.unpack("<B", take(fh, 1, "rank"))
            if rank > 32:  # stored tensors have rank 4 at most; numpy allows 64
                raise CheckpointError(f"{path}: tensor {name} has rank {rank}")
            dims = struct.unpack(f"<{rank}I", take(fh, 4 * rank, "dims"))
            if 4 * math.prod(dims) > size - fh.tell():
                raise CheckpointError(f"{path}: truncated reading payload of {name}")
            arr = np.empty(dims, np.float32) if state is None else state.pop(name, None)
            if arr is None:
                raise CheckpointError(f"{path}: state mismatch (unexpected {name})")
            if arr.shape != dims:
                raise CheckpointError(f"{path}: {name}: shape {dims} != {arr.shape}")
            fh.readinto(arr)
            if sys.byteorder == "big":  # the payload is little-endian
                arr.byteswap(inplace=True)
            arr.flags.writeable = state is not None
            tensors[name] = arr
    if state:
        raise CheckpointError(f"{path}: state mismatch (missing {sorted(state)[:3]})")
    return built, tensors
