"""Minimal deterministic neural-network engine on numpy arrays.

Tensors are C-contiguous ndarrays in their ModelGraph's ``dtype``. A graph
is float64 as built (by `models.build_model`, `models.parse_model_spec` or
directly), and the finite-difference and oracle tests run on that.
`pipeline.train` and `models.load_model` cast theirs to float32, the one
precision that training, inference and checkpoints use. Every layer keeps
its input's dtype, except that Softmax returns its 15-wide output in
float64, so fused rows sum to 1 within 1e-8.

Spatial layout is channels-last: 2-D feature maps are (batch, height,
width, channels), 1-D sequences are (batch, time, channels). Every layer
implements an exact analytic backward pass; correctness is pinned by
finite-difference tests rather than runtime checks.

Convolutions are stride-1 with "same" zero padding. The forward pass and the
kernel gradient are one matrix product each over an im2col patch matrix; the
input gradient is one GEMM per kernel offset, added at that offset's shift,
and a ModelGraph's first layer skips it. Max pooling windows equal their
stride and drop trailing remainders. The 1-D layers are the width-1 2-D ones.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class OptimizerError(RuntimeError):
    """Raised when an update step would be invalid (e.g. non-finite gradient)."""


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


class Parameter:
    """A trainable tensor with its gradient and Adadelta accumulators."""

    __slots__ = ("name", "value", "grad", "eg2", "edx2")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        # np.zeros, not zeros_like: calloc'd pages cost nothing until written
        self.grad = np.zeros(self.value.shape)
        self.eg2 = np.zeros(self.value.shape)   # running E[g^2]
        self.edx2 = np.zeros(self.value.shape)  # running E[dx^2]


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    kind = "layer"
    # ModelGraph clears this on its first layer, whose input gradient nothing
    # reads; a layer that can then skip computing it returns None instead.
    _input_grad = True

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def named_params(self):
        return []

    def extra_state(self):
        """Non-trainable tensors that belong in checkpoints (running stats)."""
        return []

    def spec_line(self) -> str:
        return self.kind

    def _need_cache(self, cache):
        if cache is None:
            raise RuntimeError(f"{self.kind}: backward called before forward")
        return cache


class ReLU(Layer):
    kind = "relu"

    def __init__(self):
        self._mask = None

    def forward(self, x, train=False):
        self._mask = x > 0.0
        # np.where(mask, x, 0.0) bit for bit (NaN -> 0, -0.0 -> +0.0), but
        # branch-free: where's cost grows fivefold as the signs mix
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def backward(self, gout):
        return gout * self._need_cache(self._mask)


class Flatten(Layer):
    kind = "flatten"

    def __init__(self):
        self._shape = None

    def forward(self, x, train=False):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gout):
        return gout.reshape(self._need_cache(self._shape))


class Dense(Layer):
    """Affine map; weights are (units, in_features)."""

    kind = "dense"

    def __init__(self, in_features: int, units: int, rng: np.random.Generator):
        self.weights = Parameter(glorot_uniform(rng, (units, in_features), in_features, units))
        self.bias = Parameter(np.zeros(units))
        self._x = None

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

    def named_params(self):
        return [("weights", self.weights), ("bias", self.bias)]

    def spec_line(self):
        return f"dense {self.weights.value.shape[0]}"


class Conv2D(Layer):
    """Stride-1 same-padded 2-D convolution; kernels are (out, kh, kw, in)."""

    kind = "conv2d"

    def __init__(self, in_channels: int, out_channels: int, kh: int, kw: int,
                 rng: np.random.Generator):
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError("kernel dims must be odd for same padding")
        fan_in = kh * kw * in_channels
        fan_out = kh * kw * out_channels
        self.kernels = Parameter(
            glorot_uniform(rng, (out_channels, kh, kw, in_channels), fan_in, fan_out)
        )
        self.bias = Parameter(np.zeros(out_channels))
        self._xp = None

    def _kernels4(self):  # (out, kh, kw, in); Conv1D views its (out, k, in) this way
        return self.kernels.value

    def _patches(self, xp, h, w):
        kh, kw = self._kernels4().shape[1:3]
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        # (N, H, W, Cin, kh, kw) -> rows ordered (kh, kw, Cin) to match kernels
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(xp.shape[0] * h * w, -1)

    def forward(self, x, train=False):
        cout, kh, kw, cin = self._kernels4().shape
        if x.ndim != 4 or x.shape[3] != cin:
            raise ValueError(f"conv2d expects (N,H,W,{cin}) input, got {x.shape}")
        n, h, w = x.shape[:3]
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        self._xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        cols = self._patches(self._xp, h, w)
        kmat = self._kernels4().transpose(1, 2, 3, 0).reshape(-1, cout)
        out = cols @ kmat + self.bias.value
        return out.reshape(n, h, w, cout)

    def backward(self, gout):
        xp = self._need_cache(self._xp)
        kernels = self._kernels4()
        cout, kh, kw, cin = kernels.shape
        n, h, w = gout.shape[:3]

        gflat = gout.reshape(n * h * w, cout)
        self.kernels.grad = (gflat.T @ self._patches(xp, h, w)).reshape(self.kernels.value.shape)
        self.bias.grad = gflat.sum(axis=0)
        if not self._input_grad:
            return None

        # Offset (i, j) of every kernel read the padded input shifted by
        # (i, j), so its share of the input gradient is one GEMM added there.
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                part = gflat @ kernels[:, i, j, :]
                gxp[:, i : i + h, j : j + w, :] += part.reshape(n, h, w, cin)
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        return gxp[:, ph : ph + h, pw : pw + w, :]

    def named_params(self):
        return [("kernels", self.kernels), ("bias", self.bias)]

    def spec_line(self):
        cout, kh, kw, _ = self.kernels.value.shape
        return f"conv2d {cout} {kh} {kw}"


class Conv1D(Conv2D):
    """Stride-1 same-padded 1-D convolution over time; kernels (out, k, in).
    The width-1 case of Conv2D: (N, T, C) runs as (N, T, 1, C)."""

    kind = "conv1d"

    def __init__(self, in_channels: int, out_channels: int, k: int, rng: np.random.Generator):
        super().__init__(in_channels, out_channels, k, 1, rng)
        self.kernels = Parameter(self.kernels.value[:, :, 0, :])

    def _kernels4(self):
        return self.kernels.value[:, :, None, :]

    def forward(self, x, train=False):
        cin = self.kernels.value.shape[2]
        if x.ndim != 3 or x.shape[2] != cin:
            raise ValueError(f"conv1d expects (N,T,{cin}) input, got {x.shape}")
        return super().forward(x[:, :, None, :], train)[:, :, 0, :]

    def backward(self, gout):
        gx = super().backward(gout[:, :, None, :])
        return None if gx is None else gx[:, :, 0, :]

    def spec_line(self):
        cout, k, _ = self.kernels.value.shape
        return f"conv1d {cout} {k}"


class BatchNorm(Layer):
    """Per-channel (last axis) normalization over batch and spatial axes.

    Training uses biased batch statistics and folds them into running stats
    with momentum 0.99; inference uses the running stats. Epsilon 1e-5 sits
    inside the square root.
    """

    kind = "batchnorm"

    def __init__(self, channels: int, momentum: float = 0.99, eps: float = 1e-5):
        self.gain = Parameter(np.ones(channels))
        self.shift = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps
        self._cache = None

    def forward(self, x, train=False):
        if x.shape[0] == 0:
            raise ValueError("batchnorm on an empty batch")
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
        x_hat, inv_std, train = self._need_cache(self._cache)
        g2 = gout.reshape(x_hat.shape)
        self.gain.grad = np.einsum("ij,ij->j", g2, x_hat)
        self.shift.grad = g2.sum(axis=0)
        if not train:
            return gout * self.gain.value * inv_std
        # gain * inv_std * (gout - shift.grad / m - x_hat * gain.grad / m), in one buffer
        m = len(x_hat)
        gx = x_hat * (self.gain.grad / m)
        np.subtract(g2, gx, out=gx)
        gx -= self.shift.grad / m
        gx *= self.gain.value * inv_std
        return gx.reshape(gout.shape)

    def named_params(self):
        return [("gain", self.gain), ("shift", self.shift)]

    def extra_state(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


class MaxPool2D(Layer):
    """Non-overlapping max pooling; remainder rows/cols are dropped. On ties
    the gradient goes to the first maximum in row-major window order."""

    kind = "maxpool2d"

    def __init__(self, ph: int, pw: int):
        self.ph, self.pw = ph, pw
        self._cache = None

    def _windows(self, a, h2, w2):
        """A view of ``a``'s pooled region as (N, H2, ph, W2, pw, C)."""
        n, c = a.shape[0], a.shape[-1]
        return a[:, : h2 * self.ph, : w2 * self.pw, :].reshape(n, h2, self.ph, w2, self.pw, c)

    def forward(self, x, train=False):
        h, w = x.shape[1:3]
        h2, w2 = h // self.ph, w // self.pw
        if h2 == 0 or w2 == 0:
            raise ValueError(f"pool window {self.ph}x{self.pw} larger than input {h}x{w}")
        win = self._windows(x, h2, w2)
        out = win.max(axis=(2, 4))
        # one byte per position: does it hold its window's maximum?
        self._cache = (win == out[:, :, None, :, None, :], x.shape)
        return out

    def backward(self, gout):
        hit, in_shape = self._need_cache(self._cache)
        gx = np.zeros(in_shape, gout.dtype)
        gwin = self._windows(gx, gout.shape[1], gout.shape[2])
        free = np.ones(gout.shape, dtype=bool)  # windows whose maximum is not yet routed
        for i in range(self.ph):
            for j in range(self.pw):
                first = hit[:, :, i, :, j, :] & free
                np.copyto(gwin[:, :, i, :, j, :], gout, where=first)
                free &= ~first
        return gx

    def spec_line(self):
        return f"maxpool2d {self.ph} {self.pw}"


class MaxPool1D(MaxPool2D):
    """Max pooling over time: the width-1 case of MaxPool2D on (N, T, 1, C)."""

    kind = "maxpool1d"

    def __init__(self, p: int):
        super().__init__(p, 1)
        self.p = p

    def forward(self, x, train=False):
        return super().forward(x[:, :, None, :], train)[:, :, 0, :]

    def backward(self, gout):
        return super().backward(gout[:, :, None, :])[:, :, 0, :]

    def spec_line(self):
        return f"maxpool1d {self.p}"


class GlobalAvgPool(Layer):
    kind = "globalavgpool"

    def __init__(self):
        self._shape = None

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
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask = None

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = self.rng.random(x.shape) >= self.rate
        return x * self._mask / (1.0 - self.rate)

    def backward(self, gout):
        if self._mask is None:
            return gout
        return gout * self._mask / (1.0 - self.rate)

    def spec_line(self):
        return f"dropout {float(self.rate)!r}"  # repr: the rate reloads exactly


class Softmax(Layer):
    """Max-subtracted softmax over the last axis."""

    kind = "softmax"

    def __init__(self):
        self._out = None

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

    def __init__(self, in_channels: int, squeeze: int, expand: int, rng: np.random.Generator):
        if not squeeze < 2 * expand:
            raise ValueError("squeeze channels must be fewer than total expand channels")
        self.squeeze_ch, self.expand_ch = squeeze, expand
        self.squeeze = Conv2D(in_channels, squeeze, 1, 1, rng)
        self.expand1 = Conv2D(squeeze, expand, 1, 1, rng)
        self.expand3 = Conv2D(squeeze, expand, 3, 3, rng)
        self._relu_sq, self._relu_e1, self._relu_e3 = ReLU(), ReLU(), ReLU()

    def forward(self, x, train=False):
        s = self._relu_sq.forward(self.squeeze.forward(x, train), train)
        a = self._relu_e1.forward(self.expand1.forward(s, train), train)
        b = self._relu_e3.forward(self.expand3.forward(s, train), train)
        return np.concatenate([a, b], axis=-1)

    def backward(self, gout):
        e = self.expand_ch
        ga = self._relu_e1.backward(gout[..., :e])
        gb = self._relu_e3.backward(gout[..., e:])
        gs = self.expand1.backward(ga) + self.expand3.backward(gb)
        return self.squeeze.backward(self._relu_sq.backward(gs))

    def named_params(self):
        out = []
        for sub, conv in (("squeeze", self.squeeze), ("expand1", self.expand1),
                          ("expand3", self.expand3)):
            out += [(f"{sub}.{n}", p) for n, p in conv.named_params()]
        return out

    def spec_line(self):
        return f"fire {self.squeeze_ch} {self.expand_ch}"


class ModelGraph:
    """An ordered layer stack bound to a feature variant and input shape."""

    def __init__(self, name: str, layers: list, input_shape: tuple, variant):
        self.name = name
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.variant = variant
        self.dtype = np.dtype(np.float64)
        for i, layer in enumerate(layers):
            layer._input_grad = i > 0
            for local, p in layer.named_params():
                p.name = f"{i:02d}.{layer.kind}.{local}"

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(f"{self.name} expects input {self.input_shape}, got {x.shape[1:]}")
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward_from_logits(self, dlogits: np.ndarray) -> None:
        """Backpropagate a gradient taken w.r.t. the final softmax's input.

        Returns None: the gradients land on the parameters. Each layer's
        ``backward`` runs once, last to first; a first-layer convolution
        computes no input gradient, since nothing would read it."""
        if not isinstance(self.layers[-1], Softmax):
            raise RuntimeError("graph does not end in softmax")
        g = dlogits.astype(self.dtype, copy=False)
        for layer in reversed(self.layers[:-1]):
            g = layer.backward(g)

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
            if isinstance(layer, BatchNorm):
                layer.running_mean = layer.running_mean.astype(dtype)
                layer.running_var = layer.running_var.astype(dtype)

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
        for name, arr in own:
            new = tensors[name]
            if new.shape != arr.shape:
                raise CheckpointError(f"{name}: shape {new.shape} != {arr.shape}")
            arr[...] = new

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
    """Yield a per-process temp name beside ``path`` to write to.

    The temp file is renamed onto ``path`` when the block succeeds and
    removed when it raises, so readers never see a partial file.
    """
    tmp = Path(f"{path}.tmp.{os.getpid()}")
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
    """Read back (spec_text, OrderedDict of float32 tensors), each a read-only
    view of the bytes read from the file."""

    def take(fh, n, what):
        b = fh.read(n)
        if len(b) != n:
            raise CheckpointError(f"{path}: truncated reading {what}")
        return b

    with open(path, "rb") as fh:
        if take(fh, 4, "magic") != _SPCK_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, spec_len = struct.unpack("<BI", take(fh, 5, "header"))
        if version != _SPCK_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        spec_text = take(fh, spec_len, "model spec").decode("utf-8")
        tensors = OrderedDict()
        while True:
            head = fh.read(2)
            if not head:
                break
            if len(head) != 2:
                raise CheckpointError(f"{path}: truncated tensor header")
            (name_len,) = struct.unpack("<H", head)
            name = take(fh, name_len, "tensor name").decode("utf-8")
            (rank,) = struct.unpack("<B", take(fh, 1, "rank"))
            dims = struct.unpack(f"<{rank}I", take(fh, 4 * rank, "dims"))
            count = int(np.prod(dims)) if rank else 1
            payload = take(fh, 4 * count, f"payload of {name}")
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
    return spec_text, tensors
