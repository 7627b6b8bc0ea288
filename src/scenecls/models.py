"""Model zoo: three small CNN families over log-mel segments, 15 scene classes.

A model is its spec text: a header naming the model, its feature variant
and its per-segment input shape, then one line per layer (``conv2d 16 7 7``,
``fire 16 64``, ``dense 512``, ...). One table, `_KINDS`, holds all the
grammar knows of a layer kind: the rank of the input shape it accepts, the
types of the numbers its line takes, and the function that turns (input
shape, dtype, numbers) into the layer and its output shape. Every layer
line takes exactly its kind's numbers and an input of its kind's rank, and
every count on a line (the input's dimensions included) is a positive
integer; one number too many or too few, one its type cannot read, an
input of another rank, or an output shape with an empty axis is a
ValueError naming the line. One loop with no branch on
any kind builds the graph from that table: its shape pass gives each layer
its input channels and fan-in from the lines before it and allocates the
layer's parameters, and the graph keeps the text. `parse_model_spec`
then runs the init pass, each layer's `nn.Layer.init_params` drawing
Glorot weights from one seeded stream in layer order, for a float64 graph;
`load_model` allocates in float32 instead and reads every tensor from the
checkpoint straight into its array, drawing nothing. Checkpoints embed the
text as it was parsed, so this module alone writes and reads the grammar.

The builders below only write spec lines. Registry names bind a builder
call to the feature variant it consumes:

    cnn-v1     LeNet-style, 3x3 kernels, 44.1 kHz features (V2, 43x64)
    cnn-v2-1   LeNet-style, 3x3 kernels, 16 kHz features (V1, 111x64)
    cnn-v2-2   LeNet-style, 5x5 kernels, V1
    cnn-v2-3   LeNet-style, 7x7 kernels, V1
    squeezenet mini SqueezeNet with 6 fire modules, V1
    cnn-1d     time-only convolutions, mel bins as channels, V1

Builders accept width/unit overrides so tests can exercise the same
topologies at reduced size; defaults are the full configurations.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import nn
from .evaluation import N_CLASSES
from .features import V1, V2, VARIANTS, FeatureVariant


def _conv_blocks(convs, pool: str) -> list:
    """Conv-BN-ReLU blocks, one pooling line between consecutive blocks."""
    lines = []
    for i, conv in enumerate(convs):
        lines += ([pool] if i else []) + [conv, "batchnorm", "relu"]
    return lines


def _scaled(n: int, width: float) -> int:
    """A builder's channel count ``n`` at ``width``: rounded, at least 1."""
    return max(1, round(n * width))


def _dense_head(dropout_rate: float, dense_units: int) -> list:
    return [f"dropout {float(dropout_rate)!r}", "flatten", f"dense {dense_units}", "relu",
            f"dense {N_CLASSES}", "softmax"]


def _spec_graph(name: str, variant: FeatureVariant, input_shape, layers, seed: int):
    """`parse_model_spec` at ``seed`` of the header these arguments write
    followed by the layer lines ``layers``."""
    lines = [f"name {name}", f"variant {variant.id}",
             "input " + " ".join(str(d) for d in input_shape), *layers]
    return parse_model_spec("\n".join(lines) + "\n", seed)


def build_lenet(kernel_size: int, variant: FeatureVariant, *, seed: int = 0,
                base_filters: int = 8, dense_units: int = 512,
                dropout_rate: float = 0.5, name: str | None = None) -> nn.ModelGraph:
    """Three Conv-BN-ReLU blocks with doubling filters, two 3x2 max pools,
    then Dropout, Dense(dense_units)+ReLU, Dense(15), Softmax. An even
    kernel size is a ValueError from the spec's conv2d lines."""
    k, f = kernel_size, base_filters
    layers = _conv_blocks([f"conv2d {n} {k} {k}" for n in (f, 2 * f, 4 * f)], "maxpool2d 3 2")
    layers += _dense_head(dropout_rate, dense_units)
    return _spec_graph(name or f"lenet-{k}x{k}-{variant.id}", variant,
                       (variant.segment_frames, variant.n_mels, 1), layers, seed)


def build_squeezenet_mini(variant: FeatureVariant = V1, *, seed: int = 0,
                          width: float = 1.0, dropout_rate: float = 0.5,
                          name: str | None = None) -> nn.ModelGraph:
    """Entry conv plus six fire modules separated by 2x2 pools, closed by a
    1x1 conv to 15 channels, global average pooling and softmax."""
    layers = [f"conv2d {_scaled(64, width)} 3 3", "batchnorm", "relu"]
    fires = [(16, 64), (16, 64), (32, 128), (32, 128), (48, 192), (64, 256)]
    for i, (squeeze, expand) in enumerate(fires):
        fire = f"fire {_scaled(squeeze, width)} {_scaled(expand, width)}"
        layers += (["maxpool2d 2 2"] if i % 2 == 0 else []) + [fire]
    layers += [f"dropout {float(dropout_rate)!r}", f"conv2d {N_CLASSES} 1 1", "batchnorm",
               "relu", "globalavgpool", "softmax"]
    return _spec_graph(name or f"squeezenet-{variant.id}", variant,
                       (variant.segment_frames, variant.n_mels, 1), layers, seed)


def build_cnn1d(variant: FeatureVariant = V1, *, seed: int = 0, width: float = 1.0,
                dense_units: int = 512, dropout_rate: float = 0.5,
                name: str | None = None) -> nn.ModelGraph:
    """Width-5 convolutions over time only; the 64 mel bins enter as channels."""
    layers = _conv_blocks([f"conv1d {_scaled(n, width)} 5" for n in (64, 128, 256)], "maxpool1d 3")
    layers += _dense_head(dropout_rate, dense_units)
    return _spec_graph(name or f"cnn1d-{variant.id}", variant,
                       (variant.segment_frames, variant.n_mels), layers, seed)


# Registry: each model's feature variant and the builder call that makes it.
REGISTRY = {
    "cnn-v1": (V2, partial(build_lenet, 3)),
    "cnn-v2-1": (V1, partial(build_lenet, 3)),
    "cnn-v2-2": (V1, partial(build_lenet, 5)),
    "cnn-v2-3": (V1, partial(build_lenet, 7)),
    "squeezenet": (V1, build_squeezenet_mini),
    "cnn-1d": (V1, build_cnn1d),
}
MODEL_NAMES = tuple(REGISTRY)


def model_variant(model_name: str) -> FeatureVariant:
    """The feature variant a registry model consumes."""
    if model_name not in REGISTRY:
        raise ValueError(f"unknown model {model_name!r}; valid: {', '.join(MODEL_NAMES)}")
    return REGISTRY[model_name][0]


def build_model(model_name: str, seed: int = 0) -> nn.ModelGraph:
    """Build a registry model with its bound feature variant."""
    variant = model_variant(model_name)
    return REGISTRY[model_name][1](variant, seed=seed, name=model_name)


def param_count(graph: nn.ModelGraph) -> int:
    """Trainable parameters: conv kernels/biases, BN gains/shifts, dense weights/biases."""
    return sum(p.value.size for p in graph.parameters())


# ---------------------------------------------------------------------------
# Textual model spec: a small header plus one line per layer. parse_model_spec
# keeps the text it read on the graph, one stripped line per non-blank input
# line, and checkpoints embed exactly that text, so a saved model carries the
# architecture and variant it was built from.
# ---------------------------------------------------------------------------


def format_model_spec(graph: nn.ModelGraph) -> str:
    """The spec text ``graph`` was parsed from, as its stripped, non-blank lines."""
    if graph.spec_text is None:
        raise ValueError(f"model {graph.name!r} was not built from a model spec, "
                         "so it has no spec text")
    return graph.spec_text


def _count(token: str) -> int:
    """A spec line's count (a dimension, channels, a kernel or pool size,
    units): a positive integer."""
    n = int(token)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {token!r}")
    return n


# The spec grammar's layer kinds. An entry is the rank of the per-sample
# input shape the kind accepts (None: any), the readers of the numbers its
# line takes (`_count` for every count), and a function from (input shape,
# dtype, numbers) to (layer, output shape), so each layer gets its input
# channels and fan-in from the lines before it.
_KINDS = {
    "conv2d": (3, (_count, _count, _count), lambda shape, dtype, cout, kh, kw: (
        nn.Conv2D(shape[2], cout, kh, kw, dtype=dtype), (shape[0], shape[1], cout))),
    "conv1d": (2, (_count, _count), lambda shape, dtype, cout, k: (
        nn.Conv1D(shape[1], cout, k, dtype=dtype), (shape[0], cout))),
    "batchnorm": (None, (), lambda shape, dtype: (nn.BatchNorm(shape[-1], dtype=dtype), shape)),
    "relu": (None, (), lambda shape, dtype: (nn.ReLU(), shape)),
    "maxpool2d": (3, (_count, _count), lambda shape, dtype, ph, pw: (
        nn.MaxPool2D(ph, pw), (shape[0] // ph, shape[1] // pw, shape[2]))),
    "maxpool1d": (2, (_count,), lambda shape, dtype, p: (
        nn.MaxPool1D(p), (shape[0] // p, shape[1]))),
    "globalavgpool": (None, (), lambda shape, dtype: (nn.GlobalAvgPool(), (shape[-1],))),
    "dropout": (None, (float,), lambda shape, dtype, rate: (nn.Dropout(rate), shape)),
    "flatten": (None, (), lambda shape, dtype: (nn.Flatten(), (int(np.prod(shape)),))),
    "dense": (1, (_count,), lambda shape, dtype, units: (
        nn.Dense(shape[0], units, dtype=dtype), (units,))),
    "softmax": (None, (), lambda shape, dtype: (nn.Softmax(), shape)),
    "fire": (3, (_count, _count), lambda shape, dtype, squeeze, expand: (
        nn.Fire(shape[2], squeeze, expand, dtype=dtype), (shape[0], shape[1], 2 * expand))),
}


def _build_from_spec(text: str, dtype) -> nn.ModelGraph:
    """The shape pass: one layer per spec line, made by its kind's `_KINDS`
    entry, with its parameters allocated once in ``dtype`` and nothing drawn
    (weights zero). The graph keeps the text. An input line whose numbers
    are not positive integers, or a layer line whose numbers are too many,
    too few, unreadable by their types or refused by its layer, whose input
    shape is not of its kind's rank, or whose output shape has an empty
    axis, is a ValueError naming the line; an unknown kind is a
    CheckpointError."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 4 or not lines[0].startswith("name ") \
            or not lines[1].startswith("variant ") or not lines[2].startswith("input "):
        raise nn.CheckpointError("model spec must start with name/variant/input lines")
    name = lines[0].split(None, 1)[1]
    variant_id, *extra = lines[1].split()[1:]
    if extra:
        raise ValueError(f"spec line {lines[1]!r}: variant takes one name, got {1 + len(extra)}")
    if variant_id not in VARIANTS:
        raise nn.CheckpointError(f"unknown variant {variant_id!r}")
    try:
        input_shape = tuple(_count(t) for t in lines[2].split()[1:])
    except ValueError as exc:
        raise ValueError(f"spec line {lines[2]!r}: {exc}") from None

    shape = input_shape
    layers = []
    for ln in lines[3:]:
        kind, *args = ln.split()
        if kind not in _KINDS:
            raise nn.CheckpointError(f"unknown layer kind {kind!r} in model spec")
        rank, types, make = _KINDS[kind]
        try:
            if len(args) != len(types):
                raise ValueError(f"{kind} takes {len(types)} numbers, got {len(args)}")
            if rank not in (None, len(shape)):
                raise ValueError(f"{kind} takes a rank-{rank} input, got shape {shape}")
            layer, shape = make(shape, dtype, *(read(arg) for read, arg in zip(types, args)))
            if 0 in shape:
                raise ValueError(f"{kind} leaves an empty axis: output shape {shape}")
        except ValueError as exc:
            raise ValueError(f"spec line {ln!r}: {exc}") from None
        layers.append(layer)
    graph = nn.ModelGraph(name, layers, input_shape, VARIANTS[variant_id])
    graph.spec_text = "\n".join(lines) + "\n"
    return graph


def parse_model_spec(text: str, seed: int = 0) -> nn.ModelGraph:
    """Build a float64 graph from spec text with fresh Glorot weights drawn
    from ``seed``, and keep the text on it."""
    graph = _build_from_spec(text, np.float64)
    rng = np.random.default_rng(seed)
    for layer in graph.layers:  # the init pass: one stream, in layer order
        layer.init_params(rng)
    return graph


def save_model(graph: nn.ModelGraph, path) -> None:
    nn.write_checkpoint(path, format_model_spec(graph), graph.state_tensors())


def load_model(path) -> nn.ModelGraph:
    """Rebuild a float32 graph from a checkpoint, restoring parameters, running
    statistics and optimizer accumulators (exactly: checkpoints store float32).

    One walk over the file: the spec's shape pass allocates every tensor in
    float32, and each stored tensor, found by name, is read straight into its
    array. Nothing is drawn, widened, cast or copied twice."""
    return nn._walk_checkpoint(path, lambda text: _build_from_spec(text, np.float32))[0]
