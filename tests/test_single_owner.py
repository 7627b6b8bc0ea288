"""Decisions made in one place: clip fusion over a dataset, ensemble fusion
over a whole prediction matrix, the fixed Adadelta constants and the
feature-cache freshness rule."""

import os

import numpy as np
import pytest

from helpers import write_wav
from scenecls import cli, evaluation, models, pipeline
from scenecls.features import V1


class TestPredictClips:
    @pytest.mark.parametrize("build", [
        lambda: models.build_lenet(3, V1, base_filters=2, dense_units=8, seed=1),
        lambda: models.build_cnn1d(V1, width=0.05, dense_units=8, seed=1),
    ], ids=["lenet", "cnn1d"])
    def test_equals_stacked_predict_clip_rows(self, build):
        graph = build()
        rng = np.random.default_rng(4)
        segments = rng.standard_normal((3, V1.n_segments, V1.segment_frames, V1.n_mels))
        got = evaluation.predict_clips(graph, segments)
        want = np.stack([evaluation.predict_clip(graph, clip) for clip in segments])
        assert got.shape == (3, evaluation.N_CLASSES)
        assert np.array_equal(got, want)


class TestEnsembleMatrix:
    def test_whole_matrix_equals_per_clip_calls(self):
        rng = np.random.default_rng(8)
        mat = rng.dirichlet(np.ones(evaluation.N_CLASSES), size=(4, 20))
        mat[1, 3, 5] = 0.0  # the floor applies per entry in both forms
        fused = evaluation.ensemble_geomean(mat)
        rows = np.stack([evaluation.ensemble_geomean(mat[:, i]) for i in range(20)])
        assert fused.shape == (20, evaluation.N_CLASSES)
        assert np.array_equal(fused, rows)
        np.testing.assert_allclose(fused.sum(axis=-1), 1.0, atol=1e-12)

    def test_one_member_matrix_rejected(self):
        mat = np.full((1, 5, evaluation.N_CLASSES), 1.0 / evaluation.N_CLASSES)
        with pytest.raises(ValueError, match="at least 2"):
            evaluation.ensemble_geomean(mat)


class TestAdadeltaConstants:
    @pytest.mark.parametrize("key", ["lr", "rho", "eps"])
    def test_config_key_rejected(self, tmp_path, key):
        cpath = tmp_path / "c.cfg"
        cpath.write_text(f"model = cnn-v2-1\n{key} = 0.5\n")
        with pytest.raises(ValueError, match=key):
            pipeline.parse_config(cpath)


class TestCacheFreshness:
    @pytest.fixture
    def corpus(self, tmp_path):
        (tmp_path / "audio").mkdir()
        wav = tmp_path / "audio/x.wav"
        write_wav(wav, np.random.default_rng(3).uniform(-0.5, 0.5, (1, 16000)), 16000)
        (tmp_path / "meta.txt").write_text("audio/x.wav\tcar\n")
        return tmp_path, wav

    def _extract(self, root, capsys):
        assert cli.main(["extract", "--manifest", str(root / "meta.txt"), "--variant", "v1",
                         "--cache", str(root / "cache"), "--workers", "1"]) == 0
        return capsys.readouterr().out

    def test_touched_wav_is_extracted_again_and_not_counted(self, corpus, capsys):
        root, wav = corpus
        assert "(0 already cached)" in self._extract(root, capsys)
        cpath = pipeline.cache_path(root / "cache", wav, V1)
        assert "(1 already cached)" in self._extract(root, capsys)

        # the WAV is now newer than its cache file, as after `touch x.wav`
        earlier = wav.stat().st_mtime - 10
        os.utime(cpath, (earlier, earlier))
        assert "(0 already cached)" in self._extract(root, capsys)
        assert cpath.stat().st_mtime > earlier

    def test_predicate(self, corpus):
        root, wav = corpus
        cpath = pipeline.cache_path(root / "cache", wav, V1)
        assert not pipeline.cache_fresh(cpath, wav)
        pipeline.clip_features(wav, V1, root / "cache")
        assert pipeline.cache_fresh(cpath, wav)
        earlier = wav.stat().st_mtime - 10
        os.utime(cpath, (earlier, earlier))
        assert not pipeline.cache_fresh(cpath, wav)
        wav.unlink()
        assert pipeline.cache_fresh(cpath, wav)
