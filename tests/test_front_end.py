"""One clip front end: `pipeline.extract_clip` gives the same float32 log-mel
to every command and through every cache state, and an unreadable cache
entry is a miss that gets rewritten."""

import os

import numpy as np
import pytest

from helpers import write_wav
from scenecls import cli, evaluation, features, models, nn, pipeline
from scenecls.features import V1, V2


@pytest.mark.parametrize("variant", [V1, V2], ids=["v1", "v2"])
def test_predict_prints_evaluates_rows_for_any_clip_length(tmp_path, capsys, variant):
    rng = np.random.default_rng(8)
    rows = []
    for seconds in (3, 10, 12):
        name = f"clip{seconds}.wav"
        write_wav(tmp_path / name, rng.uniform(-0.5, 0.5, (2, seconds * 44100)), 44100)
        rows.append(f"{name}\tpark")
    (tmp_path / "meta.txt").write_text("\n".join(rows) + "\n")
    ckpt = tmp_path / "tiny.spck"
    models.save_model(models.build_lenet(3, variant, seed=4, base_filters=2, dense_units=8,
                                         name="tiny"), ckpt)
    assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--manifest",
                     str(tmp_path / "meta.txt"), "--out", str(tmp_path / "eval"),
                     "--cache", str(tmp_path / "cache")]) == 0
    ids, _, probs = evaluation.read_prediction_dump(tmp_path / "eval/tiny.predictions.csv")
    capsys.readouterr()

    for clip_id, row in zip(ids, probs):
        assert cli.main(["predict", "--checkpoint", str(ckpt),
                         "--wav", str(tmp_path / clip_id)]) == 0
        printed = dict(ln.split() for ln in capsys.readouterr().out.splitlines()[1:])
        assert printed == {c: f"{p:.4f}" for c, p in zip(evaluation.CLASSES, row)}, clip_id


def test_every_path_returns_the_same_float32_features(tmp_path):
    wav = tmp_path / "x.wav"
    write_wav(wav, np.random.default_rng(5).uniform(-0.5, 0.5, (2, 4 * 44100)), 44100)
    cache = tmp_path / "cache"
    got = [pipeline.extract_clip(wav, V1),
           pipeline.clip_features(wav, V1),
           pipeline.clip_features(wav, V1, cache),  # miss: extracts and stores
           pipeline.clip_features(wav, V1, cache)]  # hit: reads the stored file
    assert len(list(cache.glob("*.lmsf"))) == 1
    for spec in got:
        assert spec.data.dtype == np.float32 and spec.variant is V1
        assert spec.data.tobytes() == got[0].data.tobytes()
    assert not got[3].data.flags.writeable


def _fresh_entry(wav, cache, content: bytes):
    cpath = pipeline.cache_path(cache, wav, V1)
    cpath.parent.mkdir(parents=True, exist_ok=True)
    cpath.write_bytes(content)
    later = os.path.getmtime(wav) + 10
    os.utime(cpath, (later, later))
    return cpath


def _v2_entry_bytes(tmp_path):
    path = tmp_path / "v2.lmsf"
    features.save_features(path, features.LogMelSpectrogram(np.zeros((431, 64)), V2))
    return path.read_bytes()


@pytest.mark.parametrize("content", ["empty", "garbage", "truncated", "other variant"])
def test_unreadable_cache_entry_is_a_miss_and_rewritten(tmp_path, content):
    wav = tmp_path / "x.wav"
    write_wav(wav, np.random.default_rng(6).uniform(-0.5, 0.5, (1, 10 * 16000)), 16000)
    expected = pipeline.extract_clip(wav, V1).data
    cache = tmp_path / "cache"
    valid = tmp_path / "valid.lmsf"
    features.save_features(valid, features.LogMelSpectrogram(expected, V1))
    raw = {"empty": b"", "garbage": b"\x93NOTLMSF" + bytes(range(256)) * 4,
           "truncated": valid.read_bytes()[:-100],
           "other variant": _v2_entry_bytes(tmp_path)}[content]
    cpath = _fresh_entry(wav, cache, raw)

    spec = pipeline.clip_features(wav, V1, cache)
    assert spec.data.tobytes() == expected.tobytes()
    assert cpath.read_bytes() == valid.read_bytes()
    assert features.load_features(cpath).data.tobytes() == expected.tobytes()


def test_evaluate_survives_a_zero_byte_cache_entry(tmp_path, capsys):
    wav = tmp_path / "x.wav"
    write_wav(wav, np.random.default_rng(7).uniform(-0.5, 0.5, (1, 10 * 16000)), 16000)
    (tmp_path / "meta.txt").write_text("x.wav\tbus\n")
    ckpt = tmp_path / "tiny.spck"
    models.save_model(models.build_lenet(3, V1, base_filters=2, dense_units=8, name="tiny"),
                      ckpt)
    _fresh_entry(wav, tmp_path / "cache", b"")
    assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--manifest",
                     str(tmp_path / "meta.txt"), "--out", str(tmp_path / "eval"),
                     "--cache", str(tmp_path / "cache")]) == 0


def test_cast_converts_every_extra_state_entry_by_name():
    class Stats(nn.Layer):
        kind = "stats"

        def __init__(self):
            self.count = np.zeros(3)
            self.scale = np.ones(2)

        def forward(self, x, train=False):
            return x

        def extra_state(self):
            return [("count", self.count), ("scale", self.scale)]

    stats = Stats()
    graph = nn.ModelGraph("g", [stats, nn.Dense(2, 15, np.random.default_rng(0)), nn.Softmax()],
                          (2,), V1)
    graph.cast(np.float32)
    assert stats.count.dtype == np.float32 and stats.scale.dtype == np.float32
    assert [arr.dtype for _, arr in graph.state_tensors()] == [np.float32] * 8
