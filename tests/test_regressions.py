"""Regression tests: predict on an empty WAV, feature-cache keys, dropout
rates in spec text, unknown config keys and the atomic writer."""

import numpy as np
import pytest

from helpers import write_wav
from scenecls import cli, evaluation, features, models, nn, pipeline
from scenecls.features import V1


def _tiny_checkpoint(path):
    models.save_model(models.build_lenet(3, V1, base_filters=2, dense_units=8, name="tiny"), path)
    return path


class TestPredict:
    def test_empty_wav_is_a_named_error(self, tmp_path, capsys):
        ckpt = _tiny_checkpoint(tmp_path / "tiny.spck")
        wav = tmp_path / "empty.wav"
        write_wav(wav, np.zeros((1, 0)), 16000)
        assert cli.main(["predict", "--checkpoint", str(ckpt), "--wav", str(wav)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty.wav" in err

    def test_ten_second_clip_matches_extract_path(self, tmp_path, capsys):
        ckpt = _tiny_checkpoint(tmp_path / "tiny.spck")
        wav = tmp_path / "clip.wav"
        rng = np.random.default_rng(11)
        write_wav(wav, rng.uniform(-0.5, 0.5, (2, 10 * 44100)), 44100)
        assert cli.main(["predict", "--checkpoint", str(ckpt), "--wav", str(wav)]) == 0
        printed = {ln.split()[0]: float(ln.split()[1])
                   for ln in capsys.readouterr().out.splitlines()[1:]}
        graph = models.load_model(ckpt)
        segs = features.segment(pipeline.extract_clip(wav, V1)).segments
        dist = evaluation.predict_clip(graph, segs)
        for name, p in zip(evaluation.CLASSES, dist):
            assert printed[name] == float(f"{p:.4f}")


class TestFeatureCache:
    def test_same_relative_path_in_two_roots(self, tmp_path):
        """Two datasets listing audio/x.wav with different audio share one
        cache directory; each must get the features of its own clip."""
        rng = np.random.default_rng(2)
        manifests, own = [], []
        for root in (tmp_path / "a", tmp_path / "b"):
            (root / "audio").mkdir(parents=True)
            write_wav(root / "audio/x.wav", rng.uniform(-0.5, 0.5, (1, 10 * 16000)), 16000)
            (root / "meta.txt").write_text("audio/x.wav\tcar\n")
            manifests.append(pipeline.load_manifest(root / "meta.txt"))
            own.append(pipeline.extract_clip(root / "audio/x.wav", V1).data)
        cache = tmp_path / "cache"
        used = V1.n_segments * V1.segment_frames
        for _ in range(2):  # the first pass fills the cache, the second reads it
            for manifest, expected in zip(manifests, own):
                got = pipeline.build_dataset(manifest, V1, cache).segments[0]
                np.testing.assert_allclose(got.reshape(used, -1), expected[:used], atol=1e-4)
        assert len(list(cache.glob("*.lmsf"))) == 2


class TestDropoutRate:
    def test_rate_survives_save_and_load(self, tmp_path):
        rate = 0.123456789
        g = models.build_lenet(3, V1, base_filters=2, dense_units=8, dropout_rate=rate)
        (dropout,) = [layer for layer in g.layers if isinstance(layer, nn.Dropout)]
        assert dropout.rate == rate
        models.save_model(g, tmp_path / "m.spck")
        g2 = models.load_model(tmp_path / "m.spck")
        (dropout2,) = [layer for layer in g2.layers if isinstance(layer, nn.Dropout)]
        assert dropout2.rate == rate
        assert models.format_model_spec(g2) == models.format_model_spec(g)


class TestConfig:
    def test_dropout_key_rejected(self, tmp_path):
        cpath = tmp_path / "c.cfg"
        cpath.write_text("model = cnn-v2-1\ndropout = 0.3\n")
        with pytest.raises(ValueError, match="dropout"):
            pipeline.parse_config(cpath)


class TestAtomicPath:
    def test_failure_keeps_old_file_and_removes_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with nn.atomic_path(target) as tmp:
                tmp.write_text("partial")
                raise RuntimeError("disk full")
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]
