"""Model zoo: three small CNN families over log-mel segments, 15 scene classes.

A model is its spec text: a header naming the model, its feature variant
and its per-segment input shape, then one line per layer (``conv2d 16 7 7``,
``fire 16 64``, ``dense 512``, ...). One loop builds layers from that text:
its shape pass gives each layer its input channels and fan-in from the
lines before it and allocates the layer's parameters, and the graph keeps
the text. `parse_model_spec` then runs the init pass, Glorot draws from one
seeded stream in layer order, for a float64 graph; `load_model` allocates
in float32 instead and reads every tensor from the checkpoint straight into
its array, drawing nothing. Checkpoints embed the text as it was parsed, so
this module alone writes and reads the grammar.

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


def _dense_head(dropout_rate: float, dense_units: int) -> list:
    return [f"dropout {float(dropout_rate)!r}", "flatten", f"dense {dense_units}", "relu",
            f"dense {N_CLASSES}", "softmax"]


def _spec_text(name: str, variant_id: str, input_shape, layer_lines) -> str:
    lines = [f"name {name}", f"variant {variant_id}",
             "input " + " ".join(str(d) for d in input_shape), *layer_lines]
    return "\n".join(lines) + "\n"


def build_lenet(kernel_size: int, variant: FeatureVariant, *, seed: int = 0,
                base_filters: int = 8, dense_units: int = 512,
                dropout_rate: float = 0.5, name: str | None = None) -> nn.ModelGraph:
    """Three Conv-BN-ReLU blocks with doubling filters, two 3x2 max pools,
    then Dropout, Dense(dense_units)+ReLU, Dense(15), Softmax."""
    if kernel_size % 2 == 0:
        raise ValueError("kernel size must be odd")
    k, f = kernel_size, base_filters
    layers = _conv_blocks([f"conv2d {n} {k} {k}" for n in (f, 2 * f, 4 * f)], "maxpool2d 3 2")
    layers += _dense_head(dropout_rate, dense_units)
    text = _spec_text(name or f"lenet-{k}x{k}-{variant.id}", variant.id,
                      (variant.segment_frames, variant.n_mels, 1), layers)
    return parse_model_spec(text, seed)


def build_squeezenet_mini(variant: FeatureVariant = V1, *, seed: int = 0,
                          width: float = 1.0, dropout_rate: float = 0.5,
                          name: str | None = None) -> nn.ModelGraph:
    """Entry conv plus six fire modules separated by 2x2 pools, closed by a
    1x1 conv to 15 channels, global average pooling and softmax."""

    def ch(n):
        return max(1, round(n * width))

    layers = [f"conv2d {ch(64)} 3 3", "batchnorm", "relu"]
    fires = [(16, 64), (16, 64), (32, 128), (32, 128), (48, 192), (64, 256)]
    for i, (squeeze, expand) in enumerate(fires):
        layers += (["maxpool2d 2 2"] if i % 2 == 0 else []) + [f"fire {ch(squeeze)} {ch(expand)}"]
    layers += [f"dropout {float(dropout_rate)!r}", f"conv2d {N_CLASSES} 1 1", "batchnorm",
               "relu", "globalavgpool", "softmax"]
    text = _spec_text(name or f"squeezenet-{variant.id}", variant.id,
                      (variant.segment_frames, variant.n_mels, 1), layers)
    return parse_model_spec(text, seed)


def build_cnn1d(variant: FeatureVariant = V1, *, seed: int = 0, width: float = 1.0,
                dense_units: int = 512, dropout_rate: float = 0.5,
                name: str | None = None) -> nn.ModelGraph:
    """Width-5 convolutions over time only; the 64 mel bins enter as channels."""

    def ch(n):
        return max(1, round(n * width))

    layers = _conv_blocks([f"conv1d {ch(n)} 5" for n in (64, 128, 256)], "maxpool1d 3")
    layers += _dense_head(dropout_rate, dense_units)
    text = _spec_text(name or f"cnn1d-{variant.id}", variant.id,
                      (variant.segment_frames, variant.n_mels), layers)
    return parse_model_spec(text, seed)


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


def _build_from_spec(text: str, dtype) -> nn.ModelGraph:
    """The shape pass: one layer per spec line, each given its input channels
    and fan-in by the lines before it, with its parameters allocated once in
    ``dtype`` and nothing drawn (weights zero). The graph keeps the text."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 4 or not lines[0].startswith("name ") \
            or not lines[1].startswith("variant ") or not lines[2].startswith("input "):
        raise nn.CheckpointError("model spec must start with name/variant/input lines")
    name = lines[0].split(None, 1)[1]
    variant_id = lines[1].split()[1]
    if variant_id not in VARIANTS:
        raise nn.CheckpointError(f"unknown variant {variant_id!r}")
    variant = VARIANTS[variant_id]
    input_shape = tuple(int(t) for t in lines[2].split()[1:])

    shape = input_shape
    layers = []
    for ln in lines[3:]:
        kind, *args = ln.split()
        if kind == "conv2d":
            cout, kh, kw = map(int, args)
            layers.append(nn.Conv2D(shape[2], cout, kh, kw, dtype=dtype))
            shape = (shape[0], shape[1], cout)
        elif kind == "conv1d":
            cout, k = map(int, args)
            layers.append(nn.Conv1D(shape[1], cout, k, dtype=dtype))
            shape = (shape[0], cout)
        elif kind == "batchnorm":
            layers.append(nn.BatchNorm(shape[-1], dtype=dtype))
        elif kind == "relu":
            layers.append(nn.ReLU())
        elif kind == "maxpool2d":
            ph, pw = map(int, args)
            layers.append(nn.MaxPool2D(ph, pw))
            shape = (shape[0] // ph, shape[1] // pw, shape[2])
        elif kind == "maxpool1d":
            (p,) = map(int, args)
            layers.append(nn.MaxPool1D(p))
            shape = (shape[0] // p, shape[1])
        elif kind == "globalavgpool":
            layers.append(nn.GlobalAvgPool())
            shape = (shape[-1],)
        elif kind == "dropout":
            layers.append(nn.Dropout(float(args[0])))
        elif kind == "flatten":
            layers.append(nn.Flatten())
            shape = (int(np.prod(shape)),)
        elif kind == "dense":
            units = int(args[0])
            layers.append(nn.Dense(shape[0], units, dtype=dtype))
            shape = (units,)
        elif kind == "softmax":
            layers.append(nn.Softmax())
        elif kind == "fire":
            sq, ex = map(int, args)
            layers.append(nn.Fire(shape[2], sq, ex, dtype=dtype))
            shape = (shape[0], shape[1], 2 * ex)
        else:
            raise nn.CheckpointError(f"unknown layer kind {kind!r} in model spec")
    graph = nn.ModelGraph(name, layers, input_shape, variant)
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
    graph, _ = nn._walk_checkpoint(path, lambda text: _build_from_spec(text, np.float32))
    return graph
