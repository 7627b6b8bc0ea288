"""Two manifests may each name a different file by one spelling.

`dev/meta.txt` and `eval/meta.txt` both list `audio/1.wav` and
`audio/2.wav`, which resolve beside each manifest to four different files.
`run_training` finds the resolved files disjoint, so the run trains; its
datasets carry those resolved files as clip ids, which is what
`pipeline.train`'s own overlap check then compares.
"""

import numpy as np
import pytest

from helpers import band_noise_clip, write_wav
from scenecls import nn, pipeline
from scenecls.evaluation import CLASSES


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("spelling")
    rng = np.random.default_rng(5)
    for split in ("dev", "eval"):
        (root / split / "audio").mkdir(parents=True)
        for i in (1, 2):
            write_wav(root / split / f"audio/{i}.wav",
                      band_noise_clip(rng, 300.0 * i, 3000.0 * i).samples * 0.9, 16000)
        (root / split / "meta.txt").write_text(
            f"audio/1.wav\t{CLASSES[0]}\naudio/2.wav\t{CLASSES[1]}\n")
    return root


def test_one_spelling_of_two_files_trains(corpus, tmp_path, monkeypatch):
    config = pipeline.TrainConfig(
        model="cnn-1d", train_manifest=str(corpus / "dev/meta.txt"),
        val_manifest=str(corpus / "eval/meta.txt"), cache_dir=str(tmp_path / "cache"),
        checkpoint_dir=str(tmp_path / "ckpt"), batch_size=64, epochs=1, seed=3)
    seen = []
    real_train = pipeline.train

    def spy(graph, train_set, val_set, config):
        seen.append((list(train_set.clip_ids), list(val_set.clip_ids)))
        return real_train(graph, train_set, val_set, config)

    monkeypatch.setattr(pipeline, "train", spy)
    graph, history, ckpt, _ = pipeline.run_training(config)
    assert len(history.epochs) == 1
    assert ckpt.exists() and isinstance(graph, nn.ModelGraph)
    wavs = {split: [str((corpus / split / f"audio/{i}.wav").resolve()) for i in (1, 2)]
            for split in ("dev", "eval")}
    assert seen == [(wavs["dev"], wavs["eval"])]

