"""A training step that raises leaves no trace on the graph.

`pipeline.train` runs the train-mode forward before it can tell that a step
failed, and that forward folds the batch into every BatchNorm's running
statistics. When the step then raises `TrainingDiverged`, from the loss
check or from the optimizer, the statistics must be the ones from before
the batch, like the parameters and the Adadelta accumulators.
"""

import warnings

import numpy as np
import pytest

from scenecls import models, nn, pipeline
from scenecls.features import V1


def _random_set(n_clips, seed, prefix):
    rng = np.random.default_rng(seed)
    segments = rng.standard_normal((n_clips, V1.n_segments, V1.segment_frames, V1.n_mels))
    return pipeline.SegmentDataset(segments, np.arange(n_clips) % 3,
                                   [f"{prefix}{i}" for i in range(n_clips)])


def _nan_head_bias(graph):
    graph.layers[-2].bias.value[4] = np.nan  # the 15-unit dense layer before the softmax


def _huge_dense_weights(graph):
    graph.layers[-4].weights.value[:] = 1e200  # inf in float32: a finite loss, inf gradients


@pytest.mark.parametrize("poison, message", [
    (_nan_head_bias, r"^non-finite loss at epoch 0, batch 0$"),
    (_huge_dense_weights, r"^non-finite gradient for 00\.conv2d\.kernels at epoch 0, batch 0$"),
], ids=["loss", "optimizer"])
def test_failed_step_restores_running_statistics(poison, message):
    graph = models.build_lenet(3, V1, base_filters=2, dense_units=8, seed=1)
    poison(graph)
    norms = [layer for layer in graph.layers if isinstance(layer, nn.BatchNorm)]
    before = [(bn.running_mean.astype(np.float32), bn.running_var.astype(np.float32))
              for bn in norms]
    cfg = pipeline.TrainConfig(model="cnn-v2-1", batch_size=16, epochs=1, seed=0)
    with np.errstate(all="ignore"), pytest.raises(pipeline.TrainingDiverged, match=message):
        pipeline.train(graph, _random_set(3, 1, "t"), _random_set(2, 2, "v"), cfg)
    for i, (bn, (mean, var)) in enumerate(zip(norms, before)):
        assert bn.running_mean.dtype == np.float32 and bn.running_var.dtype == np.float32
        assert np.array_equal(bn.running_mean, mean), f"batchnorm {i} running_mean moved"
        assert np.array_equal(bn.running_var, var), f"batchnorm {i} running_var moved"


def test_a_good_step_still_moves_running_statistics():
    graph = models.build_lenet(3, V1, base_filters=2, dense_units=8, seed=1)
    bn = graph.layers[1]
    cfg = pipeline.TrainConfig(model="cnn-v2-1", batch_size=16, epochs=1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # classes absent from validation
        pipeline.train(graph, _random_set(3, 1, "t"), _random_set(2, 2, "v"), cfg)
    assert not np.array_equal(bn.running_mean, np.zeros_like(bn.running_mean))
