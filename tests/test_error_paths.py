"""Error paths and skips that no other test runs: each typed ValueError with
its message, Dropout's pass-through backward, and the blank lines that the
manifest and prediction-dump readers skip."""

import numpy as np
import pytest

from scenecls import evaluation, features, nn, pipeline
from scenecls.audio import AudioClip


@pytest.mark.parametrize("train, rate", [(False, 0.5), (True, 0.0)])
def test_dropout_backward_without_a_mask_returns_gout_itself(train, rate):
    layer = nn.Dropout(rate, np.random.default_rng(0))
    x = np.ones((2, 3))
    assert layer.forward(x, train) is x
    gout = np.arange(6.0).reshape(2, 3)
    assert layer.backward(gout) is gout


def test_cross_entropy_wants_one_label_per_row():
    with pytest.raises(ValueError, match=r"^expected 2 labels, got shape \(3,\)$"):
        nn.cross_entropy(np.full((2, 15), 1 / 15), [0, 1, 2])


def test_conv1d_rejects_a_wrong_rank_input():
    conv = nn.Conv1D(4, 2, 3)
    with pytest.raises(ValueError, match=r"^conv1d expects \(N,T,4\) input, got \(2, 5, 1, 4\)$"):
        conv.forward(np.zeros((2, 5, 1, 4)))


def test_segment_dataset_rejects_mismatched_counts():
    with pytest.raises(ValueError, match="^clip count mismatch between segments, labels and ids$"):
        pipeline.SegmentDataset(np.zeros((2, 9, 111, 64)), np.zeros(2, np.int64), ["a"])


def test_parse_config_rejects_a_line_without_equals(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# a comment\nmodel = cnn-1d\nepochs 3\n")
    with pytest.raises(ValueError, match=r"train\.cfg:3: expected key=value$"):
        pipeline.parse_config(cfg)


def test_build_dataset_rejects_an_empty_manifest(tmp_path, caplog):
    (tmp_path / "meta.txt").write_text("\n \n")
    manifest = pipeline.load_manifest(tmp_path / "meta.txt")
    assert manifest.entries == ()
    assert "is empty" in caplog.text
    with pytest.raises(ValueError, match="^manifest contains no clips$"):
        pipeline.build_dataset(manifest, features.V1)


def test_select_ensemble_wants_room_for_two_members():
    with pytest.raises(ValueError, match="^an ensemble needs at least 2 members$"):
        evaluation.select_ensemble([], 0.0, k=1)


def test_render_report_wants_a_model():
    with pytest.raises(ValueError, match="^nothing to report$"):
        evaluation.render_report([], [])


def test_log_mel_spectrogram_checks_its_shape():
    with pytest.raises(ValueError, match=r"^expected 999x64 matrix, got \(998, 64\)$"):
        features.LogMelSpectrogram(np.zeros((998, 64), np.float32), features.V1)


@pytest.mark.parametrize("samples, rate, message", [
    (np.zeros(8), 16000, r"^samples must be a \(channels, length\) array$"),
    (np.zeros((1, 8)), 0, "^sample_rate must be positive$"),
])
def test_audio_clip_checks_its_array_and_rate(samples, rate, message):
    with pytest.raises(ValueError, match=message):
        AudioClip(samples, rate)


def test_load_manifest_skips_blank_lines(tmp_path):
    (tmp_path / "meta.txt").write_text("\naudio/a.wav\tcar\n   \n\naudio/b.wav\tbus\n")
    entries = pipeline.load_manifest(tmp_path / "meta.txt").entries
    assert [(e.path, e.label) for e in entries] == [("audio/a.wav", "car"), ("audio/b.wav", "bus")]


def test_read_prediction_dump_skips_blank_lines(tmp_path):
    dump = tmp_path / "m.predictions.csv"
    probs = np.eye(15)[[3, 7]]
    evaluation.write_prediction_dump(dump, ["a.wav", "b.wav"], ["car", "bus"], probs)
    text = dump.read_text()
    dump.write_text("\n" + text.replace("\n", "\n\n  \n", 1))
    ids, labels, got = evaluation.read_prediction_dump(dump)
    assert ids == ["a.wav", "b.wav"]
    assert labels.tolist() == [evaluation.CLASS_INDEX["car"], evaluation.CLASS_INDEX["bus"]]
    np.testing.assert_array_equal(got, probs)
