"""Tests of the benchmark's own checks: each accepts a right output and
rejects a deliberately wrong one, so that no check is vacuous.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import synth  # noqa: E402
from checks import CheckFailed  # noqa: E402
from scenecls import evaluation, features  # noqa: E402
from scenecls.audio import AudioClip  # noqa: E402


def tone_features(freq_hz: float, vid: str) -> np.ndarray:
    variant = features.VARIANTS[vid]
    t = np.arange(10 * variant.sample_rate) / variant.sample_rate
    clip = AudioClip(np.sin(2.0 * np.pi * freq_hz * t)[None, :], variant.sample_rate)
    return features.log_mel(clip, variant).data


def random_dist(rng, n):
    p = rng.random((n, 15))
    return p / p.sum(axis=1, keepdims=True)


# --- features ---------------------------------------------------------------


def test_feature_matrix_accepts_and_rejects():
    good = np.zeros((999, 64))
    checks.check_feature_matrix(good, "v1", "good")
    checks.check_feature_matrix(np.full((431, 64), checks.LOG_FLOOR), "v2", "at floor")
    with pytest.raises(CheckFailed, match="shape"):
        checks.check_feature_matrix(np.zeros((998, 64)), "v1", "short")
    bad = good.copy()
    bad[3, 5] = np.nan
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_feature_matrix(bad, "v1", "nan")
    bad = good.copy()
    bad[0, 0] = checks.LOG_FLOOR - 1e-9
    with pytest.raises(CheckFailed, match="below"):
        checks.check_feature_matrix(bad, "v1", "below floor")


def test_covering_bands_follow_the_mel_formula():
    centres = synth.band_centres_hz(16000)
    assert checks.covering_bands(centres[20], 16000) == {20}
    between = 0.5 * (centres[20] + centres[21])
    assert checks.covering_bands(between, 16000) == {20, 21}


@pytest.mark.parametrize("vid", ["v1", "v2"])
def test_tone_check_rejects_a_matrix_shifted_by_one_band(vid):
    rate, lo, hi = synth.TONE_CENTRES[vid]
    centres = synth.band_centres_hz(rate)
    freq = float(centres[(centres >= lo) & (centres <= hi)][3])
    data = tone_features(freq, vid)
    checks.check_tone(data, freq, vid, "tone")
    for shift in (-1, 1):
        with pytest.raises(CheckFailed, match="loudest"):
            checks.check_tone(np.roll(data, shift, axis=1), freq, vid, f"shift {shift}")


def test_tone_between_centres_may_peak_in_either_covering_band():
    centres = synth.band_centres_hz(16000)
    freq = float(0.5 * (centres[30] + centres[31]))
    checks.check_tone(tone_features(freq, "v1"), freq, "v1", "between")
    with pytest.raises(CheckFailed):
        checks.check_tone(tone_features(freq, "v1"), centres[40], "v1", "wrong tone")


def test_twin_check_rejects_shift_and_offset():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(999, 64))
    checks.check_twins(a, np.log(np.exp(a) * 1.0001), checks.TWIN_RTOL["mono"], "close")
    with pytest.raises(CheckFailed):
        checks.check_twins(a, np.roll(a, 1, axis=1), checks.TWIN_RTOL["mono"], "shifted")
    with pytest.raises(CheckFailed):
        checks.check_twins(a, a + np.log(4.0), checks.TWIN_RTOL["gain"], "gain not normalized")


def test_cache_check_matches_by_content(tmp_path):
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(431, 64)) - 5.0 for _ in range(3)]
    expected = Counter(checks.matrix_key(m) for m in mats)
    for i, m in enumerate(mats):
        features.save_features(tmp_path / f"c{i}.lmsf", features.LogMelSpectrogram(m, features.V2))
    checks.check_cache(tmp_path, "v2", expected)

    shifted = np.roll(mats[2], 1, axis=1)
    features.save_features(tmp_path / "c2.lmsf", features.LogMelSpectrogram(shifted, features.V2))
    with pytest.raises(CheckFailed, match="2 of 3"):
        checks.check_cache(tmp_path, "v2", expected)
    (tmp_path / "c2.lmsf").unlink()
    with pytest.raises(CheckFailed, match="2 cached"):
        checks.check_cache(tmp_path, "v2", expected)
    with pytest.raises(CheckFailed, match="variant"):
        checks.check_cache(tmp_path, "v1", expected)


def test_read_lmsf_rejects_truncated_file(tmp_path):
    path = tmp_path / "t.lmsf"
    features.save_features(path, features.LogMelSpectrogram(np.zeros((431, 64)), features.V2))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CheckFailed, match="payload"):
        checks.read_lmsf(path)


# --- training ---------------------------------------------------------------


def test_history_check():
    losses, accs = [3.1, 2.0, 2.5], [0.2, 0.4, 0.3]
    checks.check_history(losses, accs, 1, 0.4, "good")
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_history([3.1, float("inf"), 2.5], accs, 1, 0.4, "inf loss")
    with pytest.raises(CheckFailed, match="validate"):
        checks.check_history(losses, accs, 1, 0.3, "last epoch restored")
    with pytest.raises(CheckFailed, match="not the highest"):
        checks.check_history(losses, accs, 2, 0.3, "wrong best")


def test_above_chance():
    checks.check_above_chance(2 / 15, 1 / 15, "two classes")
    with pytest.raises(CheckFailed, match="chance"):
        checks.check_above_chance(1 / 15, 1 / 15, "constant predictor")


def test_digest_changes_with_any_input():
    w = np.arange(6.0)
    base = checks.digest([1.0, 0.5], [0.2, 0.3], [w])
    assert base == checks.digest([1.0, 0.5], [0.2, 0.3], [w.copy()])
    assert base != checks.digest([1.0, 0.5000001], [0.2, 0.3], [w])
    assert base != checks.digest([1.0, 0.5], [0.2, 0.3], [w + 1e-12])


# --- inference --------------------------------------------------------------


def write_dump(path, probs, labels):
    ids = [f"audio/val_{i:03d}.wav" for i in range(len(probs))]
    evaluation.write_prediction_dump(path, ids, [checks.CLASSES[i] for i in labels], probs)
    return ids


def test_fused_rows(tmp_path):
    rng = np.random.default_rng(2)
    probs = random_dist(rng, 15)
    write_dump(tmp_path / "d.csv", probs, np.arange(15))
    _, _, back = checks.read_dump(tmp_path / "d.csv")
    checks.check_fused_rows(back, "good")
    bad = back.copy()
    bad[4] *= 1.01
    with pytest.raises(CheckFailed, match="sums to 1"):
        checks.check_fused_rows(bad, "row not normalized")
    bad = back.copy()
    bad[0, :2] = [-0.1, bad[0, 0] + bad[0, 1] + 0.1]
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_fused_rows(bad, "negative")


def test_printed_accuracy():
    labels = np.arange(15)
    probs = np.eye(15)[[0, 1, 2] + [0] * 12]  # three classes right
    checks.check_printed_accuracy("macro accuracy: 20.0\n", labels, probs, "good")
    with pytest.raises(CheckFailed, match="printed"):
        checks.check_printed_accuracy("macro accuracy: 20.1\n", labels, probs, "off")
    with pytest.raises(CheckFailed, match="no macro"):
        checks.check_printed_accuracy("accuracy 20.0\n", labels, probs, "missing")


def test_ensemble_rejects_arithmetic_mean():
    rng = np.random.default_rng(3)
    members = [random_dist(rng, 15) for _ in range(6)]
    geo = np.stack([evaluation.ensemble_geomean([m[i] for m in members]) for i in range(15)])
    checks.check_ensemble(geo, members, "program's geomean")
    arith = np.mean(members, axis=0)
    with pytest.raises(CheckFailed, match="geometric"):
        checks.check_ensemble(arith, members, "arithmetic mean")
    with pytest.raises(CheckFailed):
        checks.check_ensemble(geo, members[:5], "a member left out")


def test_ensemble_floor():
    a = np.zeros((1, 15))
    a[0, 0] = 1.0
    b = np.full((1, 15), 1 / 15)
    want = checks.geomean([a, b])
    assert np.all(want > 0) and abs(want.sum() - 1.0) < 1e-12
    checks.check_ensemble(evaluation.ensemble_geomean([a[0], b[0]])[None, :], [a, b], "floored")


def test_predict_compare():
    rng = np.random.default_rng(4)
    dist = random_dist(rng, 1)[0]
    out = "label: x\n" + "".join(
        f"  {name:16s} {p:.4f}\n" for name, p in sorted(zip(checks.CLASSES, dist), key=lambda t: -t[1]))
    checks.check_predict(out, dist, "good")
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_predict(out, dist[::-1], "classes reversed")
    with pytest.raises(CheckFailed, match="printed"):
        checks.check_predict("label: beach\n", dist, "no distribution")


# --- the benchmark's own definition ----------------------------------------


def test_benchmark_json_lists_every_per_layer_metric():
    import tracing

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.metric_names()


def test_span_self_time_subtracts_children():
    import tracing

    spans = [["a", 0.0, 10.0, -1, {}, ""], ["b", 1.0, 3.0, 0, {}, ""],
             ["c", 4.0, 8.0, 0, {}, ""], ["d", 5.0, 6.0, 2, {}, ""]]
    tree = tracing.SpanTree(spans)
    assert tree.self_time(0) == pytest.approx(4.0)
    assert tree.self_time(2) == pytest.approx(3.0)
    assert sorted(tree.descendants(0)) == [1, 2, 3]


def test_tracer_records_nested_calls_and_uninstalls():
    import tracing
    from scenecls import audio, pipeline

    original = pipeline.load_wav
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.load_wav is not original and audio.load_wav is pipeline.load_wav
        clip = AudioClip(np.ones((2, 8)), 16000)
        tracer.enabled = True
        audio.downmix_mono(clip)
        tracer.enabled = False
        audio.downmix_mono(clip)
    finally:
        tracer.uninstall()
    assert pipeline.load_wav is original
    assert [s[0] for s in tracer.spans] == ["audio.downmix_mono"]
