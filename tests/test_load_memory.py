"""Loading a checkpoint holds little more than the checkpoint twice.

`models.load_model` keeps the bytes it read and one float32 copy of every
tensor, plus zero gradients. A float64 graph built first, or a cast, would
show here as a peak several times the file's size.
"""

import gc
import tracemalloc

from scenecls import models


def test_load_model_peak_stays_under_three_file_sizes(tmp_path):
    path = tmp_path / "cnn-v2-1.spck"
    models.save_model(models.build_model("cnn-v2-1", seed=0), path)
    size = path.stat().st_size
    gc.collect()
    tracemalloc.start()
    try:
        graph = models.load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.name == "cnn-v2-1"
    assert peak < 3 * size, f"load peak {peak / size:.2f}x the {size}-byte checkpoint"
