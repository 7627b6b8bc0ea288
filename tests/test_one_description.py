"""One description of a model and one front end for a clip.

A model is the spec text `models.parse_model_spec` read: the graph keeps it,
`format_model_spec` returns it and checkpoints store it, and the layers in
`nn` write no spec lines of their own. A decoded clip becomes features
through the same float32 step whether it comes from a WAV path
(`pipeline.extract_clip`) or from memory (`features.extract_segments`).
"""

import numpy as np
import pytest

from helpers import write_wav
from scenecls import audio, features, models, nn, pipeline
from scenecls.features import V1, V2

HAND_WRITTEN = """
   name hand-written
variant v1

   input 111 64 1
conv2d 2 3 3
  batchnorm
relu
maxpool2d 3 2

dropout 0.50
flatten
dense 8\t
relu
dense 15
softmax

"""


def test_hand_written_spec_is_kept_as_its_stripped_lines(tmp_path):
    want = "\n".join(ln.strip() for ln in HAND_WRITTEN.splitlines() if ln.strip()) + "\n"
    graph = models.parse_model_spec(HAND_WRITTEN, seed=2)
    assert models.format_model_spec(graph) == want
    assert "\ndropout 0.50\n" in want

    models.save_model(graph, tmp_path / "a.spck")
    assert nn.read_checkpoint(tmp_path / "a.spck")[0] == want
    models.save_model(models.load_model(tmp_path / "a.spck"), tmp_path / "b.spck")
    assert (tmp_path / "a.spck").read_bytes() == (tmp_path / "b.spck").read_bytes()


BUILDER_CALLS = {
    **{name: (lambda name=name: models.build_model(name, seed=3)) for name in models.MODEL_NAMES},
    "lenet-small": lambda: models.build_lenet(5, V2, base_filters=2, dense_units=8,
                                              dropout_rate=0.3),
    "squeezenet-small": lambda: models.build_squeezenet_mini(V1, width=0.05, dropout_rate=0.1),
    "cnn1d-small": lambda: models.build_cnn1d(V1, width=0.05, dense_units=8, dropout_rate=0),
}


@pytest.mark.parametrize("call", sorted(BUILDER_CALLS))
def test_builder_text_is_the_graphs_spec_text(call, monkeypatch):
    written = []
    real = models.parse_model_spec
    monkeypatch.setattr(models, "parse_model_spec",
                        lambda text, seed=0: written.append(text) or real(text, seed))
    graph = BUILDER_CALLS[call]()
    assert len(written) == 1
    assert models.format_model_spec(graph) == written[0]


def test_no_layer_writes_spec_lines():
    writers = [name for name, cls in vars(nn).items()
               if isinstance(cls, type) and hasattr(cls, "spec_line")]
    assert writers == []


def test_directly_assembled_graph_has_no_spec_text():
    rng = np.random.default_rng(0)
    graph = nn.ModelGraph("direct", [nn.Flatten(), nn.Dense(6, 15, rng), nn.Softmax()],
                          (2, 3), V1)
    with pytest.raises(ValueError, match="'direct'"):
        models.format_model_spec(graph)


@pytest.mark.parametrize("variant", [V1, V2], ids=["v1", "v2"])
def test_extract_segments_equals_extract_clip_segments(tmp_path, variant):
    wav = tmp_path / "x.wav"
    samples = np.random.default_rng(6).uniform(-0.6, 0.6, (2, 441000))
    write_wav(wav, samples, 44100, bits=24)
    got = features.extract_segments(audio.load_wav(wav), variant, "x")
    want = features.segment(pipeline.extract_clip(wav, variant), "x")
    assert got.segments.dtype == np.float32
    assert got.variant == want.variant and got.clip_id == want.clip_id
    assert got.segments.shape == want.segments.shape
    assert got.segments.tobytes() == want.segments.tobytes()
