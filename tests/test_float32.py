"""One compute precision on the production path: `pipeline.train` and
`models.load_model` give float32 graphs, while graphs built by
`build_model`, `parse_model_spec` or directly from layers stay float64 for
the oracle tests. The same seed trains to the same bytes whether features
come from the extractor or from the float32 cache."""

import numpy as np
import pytest

from helpers import band_noise_clip, write_wav
from scenecls import cli, models, nn, pipeline
from scenecls.evaluation import CLASSES
from scenecls.features import V1

pytestmark = pytest.mark.filterwarnings("ignore:classes without evaluated clips")

def small_graphs():
    return {
        "lenet": models.build_lenet(3, V1, base_filters=2, dense_units=8, seed=1),
        "squeezenet": models.build_squeezenet_mini(V1, width=0.05, seed=1),
        "cnn1d": models.build_cnn1d(V1, width=0.05, dense_units=8, seed=1),
    }


def random_set(n_clips, seed, prefix):
    rng = np.random.default_rng(seed)
    segments = rng.standard_normal((n_clips, V1.n_segments, V1.segment_frames, V1.n_mels))
    labels = np.arange(n_clips) % 3
    return pipeline.SegmentDataset(segments, labels, [f"{prefix}{i}" for i in range(n_clips)])


@pytest.mark.parametrize("name", ["lenet", "squeezenet", "cnn1d"])
def test_train_leaves_float32_state_and_gradients(name):
    graph = small_graphs()[name]
    cfg = pipeline.TrainConfig(model="cnn-v2-1", batch_size=16, epochs=1, seed=0)
    with np.errstate(all="ignore"):
        pipeline.train(graph, random_set(3, 1, "t"), random_set(2, 2, "v"), cfg)
    assert graph.dtype == np.float32
    for tensor_name, arr in graph.state_tensors():
        assert arr.dtype == np.float32, tensor_name
    for p in graph.parameters():
        assert p.grad.dtype == np.float32, p.name


@pytest.mark.parametrize("name", ["lenet", "squeezenet", "cnn1d"])
def test_every_layer_of_a_float32_graph_keeps_float32(name):
    graph = small_graphs()[name]
    graph.cast(np.float32)
    x = np.random.default_rng(0).standard_normal((4, *graph.input_shape))
    x = x.astype(np.float32)
    for layer in graph.layers[:-1]:
        x = layer.forward(x, train=True)
        assert x.dtype == np.float32, layer.kind
    probs = graph.layers[-1].forward(x)
    assert probs.dtype == np.float64  # softmax rows sum to 1 in float64
    _, dlogits = nn.cross_entropy(probs, [0, 1, 2, 0])
    graph.backward_from_logits(dlogits)
    for p in graph.parameters():
        assert p.grad.dtype == np.float32, p.name


def test_built_graphs_and_layer_stacks_stay_float64():
    built = [models.build_model("cnn-1d", seed=0), *small_graphs().values(),
             models.parse_model_spec(models.format_model_spec(small_graphs()["lenet"]))]
    rng = np.random.default_rng(0)
    for graph in built:
        assert graph.dtype == np.float64
        assert all(arr.dtype == np.float64 for _, arr in graph.state_tensors())
        x = rng.standard_normal((3, *graph.input_shape)).astype(np.float32)
        nn.loss_and_gradients(graph, x, [0, 1, 2])
        assert all(p.grad.dtype == np.float64 for p in graph.parameters())

    direct = nn.ModelGraph("direct", [nn.Flatten(), nn.Dense(6, 15, rng), nn.Softmax()],
                           (2, 3), V1)
    assert direct.dtype == np.float64
    assert direct.forward(np.ones((1, 2, 3), np.float32)).dtype == np.float64


def test_load_model_is_float32_and_save_load_save_is_byte_identical(tmp_path):
    graph = small_graphs()["squeezenet"]
    models.save_model(graph, tmp_path / "a.spck")
    loaded = models.load_model(tmp_path / "a.spck")
    assert loaded.dtype == np.float32
    want = graph.snapshot()
    for name, arr in loaded.state_tensors():
        assert arr.dtype == np.float32, name
        assert np.array_equal(arr, want[name].astype(np.float32)), name
    models.save_model(loaded, tmp_path / "b.spck")
    assert (tmp_path / "a.spck").read_bytes() == (tmp_path / "b.spck").read_bytes()


def test_finite_loss_with_nan_gradient_raises_training_diverged(monkeypatch):
    graph = small_graphs()["lenet"]
    real = nn.loss_and_gradients
    before = {}

    def poisoned(g, x, labels):
        before.update((p.name, p.value.copy()) for p in g.parameters())
        loss, probs = real(g, x, labels)
        g.parameters()[0].grad[0] = np.nan
        return loss, probs

    monkeypatch.setattr(nn, "loss_and_gradients", poisoned)
    cfg = pipeline.TrainConfig(model="cnn-v2-1", batch_size=16, epochs=1, seed=0)
    with pytest.raises(pipeline.TrainingDiverged, match=r"epoch 0, batch 0"):
        pipeline.train(graph, random_set(3, 1, "t"), random_set(2, 2, "v"), cfg)
    for p in graph.parameters():  # the failed step applied no update
        assert np.array_equal(p.value, before[p.name]), p.name


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Six training and three validation 16 kHz clips over three classes."""
    root = tmp_path_factory.mktemp("corpus")
    (root / "audio").mkdir()
    rng = np.random.default_rng(11)
    bands = [(200.0, 800.0), (1000.0, 2500.0), (3000.0, 7000.0)]
    for split, count in (("train", 6), ("val", 3)):
        rows = []
        for i in range(count):
            name = f"audio/{split}{i}.wav"
            clip = band_noise_clip(rng, *bands[i % 3])
            write_wav(root / name, clip.samples * 0.9, 16000)
            rows.append(f"{name}\t{CLASSES[i % 3]}")
        (root / f"{split}.txt").write_text("\n".join(rows) + "\n")
    return root


def run(root, tag, cache_dir):
    cfg = pipeline.TrainConfig(
        model="cnn-1d", train_manifest=str(root / "train.txt"),
        val_manifest=str(root / "val.txt"), cache_dir=str(cache_dir),
        checkpoint_dir=str(root / tag), batch_size=64, epochs=2, seed=11)
    return pipeline.run_training(cfg)


@pytest.fixture(scope="module")
def trained(corpus):
    """The same seed trained without a cache and then from a warm cache."""
    cache = corpus / "cache"
    for split in ("train", "val"):
        pipeline.build_dataset(pipeline.load_manifest(corpus / f"{split}.txt"), V1, cache)
    return run(corpus, "nocache", ""), run(corpus, "warm", cache)


def test_no_cache_and_warm_cache_write_identical_checkpoints(trained):
    (_, h1, ckpt1, hist1), (_, h2, ckpt2, hist2) = trained
    assert h1.epochs == h2.epochs
    assert ckpt1.read_bytes() == ckpt2.read_bytes()
    assert hist1.read_bytes() == hist2.read_bytes()


def test_evaluate_reproduces_trains_best_accuracy(trained, corpus, capsys):
    _, history, ckpt, _ = trained[1]
    best = history.epochs[history.best_epoch][3]
    val_set = pipeline.build_dataset(
        pipeline.load_manifest(corpus / "val.txt"), V1, corpus / "cache")
    assert pipeline.validate(models.load_model(ckpt), val_set) == best

    capsys.readouterr()
    assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--manifest",
                     str(corpus / "val.txt"), "--out", str(corpus / "eval"),
                     "--cache", str(corpus / "cache")]) == 0
    assert f"macro accuracy: {100.0 * best:.1f}\n" in capsys.readouterr().out

