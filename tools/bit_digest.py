"""Print one line of SHA-256 prefixes per registry model, so that two
commits that should compute the same bits can be compared by diffing this
script's output at each.

Per model, at the given seed (default 0):
  init   the float64 state tensors of `models.build_model`, before any
         cast: the values `nn.Layer.init_params` drew, exactly
  state  the float32 state tensors after `models.build_model`
  step   one seeded batch-32 float32 train step: the probabilities, then
         every parameter's gradient
  ckpt   the bytes `models.save_model` writes after that step's update
  row    `evaluation.predict_clip` of a seeded clip by `models.load_model`
         of that checkpoint

Usage: PYTHONPATH=src python tools/bit_digest.py [seed]
OPENBLAS_NUM_THREADS defaults to 1, as the benchmark sets it: the step,
ckpt and row digests depend on OpenBLAS's thread count.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from scenecls import evaluation, models, nn  # noqa: E402


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:12]


def model_line(name: str, seed: int, scratch: Path) -> str:
    graph = models.build_model(name, seed=seed)
    init = digest(*(arr for _, arr in graph.state_tensors()))
    graph.cast(np.float32)
    state = digest(*(arr for _, arr in graph.state_tensors()))

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((32, *graph.input_shape)).astype(np.float32)
    labels = rng.integers(0, evaluation.N_CLASSES, 32)
    graph.seed_dropout(seed)
    _, probs = nn.loss_and_gradients(graph, x, labels)
    step = digest(probs, *(p.grad for p in graph.parameters()))
    nn.Adadelta(graph.parameters()).step()

    path = scratch / f"{name}.spck"
    models.save_model(graph, path)
    ckpt = hashlib.sha256(path.read_bytes()).hexdigest()[:12]

    v = graph.variant
    clip = rng.standard_normal((v.n_segments, v.segment_frames, v.n_mels)).astype(np.float32)
    row = digest(evaluation.predict_clip(models.load_model(path), clip))
    return f"{name:<11} init={init} state={state} step={step} ckpt={ckpt} row={row}"


def main(argv) -> int:
    seed = int(argv[0]) if argv else 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in models.MODEL_NAMES:
            print(model_line(name, seed, Path(scratch)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
