"""A non-finite loss stops training before the optimizer touches anything."""

import numpy as np
import pytest

from scenecls import models, pipeline
from scenecls.features import V1


def _random_set(n_clips, seed, prefix):
    rng = np.random.default_rng(seed)
    segments = rng.standard_normal((n_clips, V1.n_segments, V1.segment_frames, V1.n_mels))
    return pipeline.SegmentDataset(segments, np.arange(n_clips) % 3,
                                   [f"{prefix}{i}" for i in range(n_clips)])


def test_nan_bias_raises_non_finite_loss_and_leaves_parameters():
    graph = models.build_lenet(3, V1, base_filters=2, dense_units=8, seed=1)
    head = graph.layers[-2]  # the 15-unit dense layer in front of the softmax
    head.bias.value[4] = np.nan
    before = {p.name: [a.astype(np.float32) for a in (p.value, p.eg2, p.edx2)]
              for p in graph.parameters()}
    cfg = pipeline.TrainConfig(model="cnn-v2-1", batch_size=16, epochs=1, seed=0)
    with np.errstate(all="ignore"), \
            pytest.raises(pipeline.TrainingDiverged, match=r"^non-finite loss at epoch 0, batch 0$"):
        pipeline.train(graph, _random_set(3, 1, "t"), _random_set(2, 2, "v"), cfg)
    for p in graph.parameters():
        for what, old, new in zip(("value", "eg2", "edx2"), before[p.name],
                                  (p.value, p.eg2, p.edx2)):
            assert np.array_equal(new, old, equal_nan=True), f"{p.name}.{what}"
