"""Rules said once: `features.save_features` writes its entry atomically
itself, `pipeline.extract_clip` prefixes the front end's errors in one
handler that keeps each error's type, and `evaluation.select_ensemble`
picks each next member with `max`, with the tie-breaks of a greedy loop
that replaces its pick only on a strictly better score (the reference
below)."""

import struct

import numpy as np
import pytest

from helpers import write_wav
from scenecls import evaluation, features, pipeline
from scenecls.audio import UnsupportedWavError
from scenecls.evaluation import EnsembleCandidate, _set_disagreement, select_ensemble
from scenecls.features import V1, LogMelSpectrogram


def _boom(*args, **kwargs):
    raise RuntimeError("payload write interrupted")


def test_interrupted_save_leaves_neither_the_entry_nor_a_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "c.lmsf"
    monkeypatch.setattr(features.np, "ascontiguousarray", _boom)
    with pytest.raises(RuntimeError, match="interrupted"):
        features.save_features(target, LogMelSpectrogram(np.zeros((999, 64)), V1))
    assert list(tmp_path.iterdir()) == []


def test_interrupted_rewrite_keeps_the_old_entry_whole(tmp_path, monkeypatch):
    target = tmp_path / "c.lmsf"
    features.save_features(target, LogMelSpectrogram(np.ones((999, 64)), V1))
    before = target.read_bytes()
    monkeypatch.setattr(features.np, "ascontiguousarray", _boom)
    with pytest.raises(RuntimeError):
        features.save_features(target, LogMelSpectrogram(np.zeros((999, 64)), V1))
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == before
    assert features.load_features(target).data.min() == 1.0


def test_damaged_rate_stays_an_unsupported_wav_error_naming_the_file(tmp_path):
    wav = tmp_path / "damaged.wav"
    write_wav(wav, np.random.default_rng(0).uniform(-0.5, 0.5, (1, 16000)), 16000)
    data = bytearray(wav.read_bytes())
    struct.pack_into("<I", data, 24, 16755780)  # 44,100 Hz with one byte flipped
    wav.write_bytes(bytes(data))
    with pytest.raises(UnsupportedWavError) as info:
        pipeline.extract_clip(wav, V1)
    assert str(info.value).startswith(f"{wav}: sample rate 16755780 Hz")


def test_short_clip_stays_a_plain_value_error_naming_the_file(tmp_path):
    wav = tmp_path / "short.wav"
    write_wav(wav, np.full((1, 100), 0.3), 16000)
    with pytest.raises(ValueError) as info:
        pipeline.extract_clip(wav, V1)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{wav}: clip of 100 samples is shorter")


def _reference_select(candidates, baseline_acc, k):
    """Greedy selection by an explicit loop over the sorted pool."""
    viable = [c for c in candidates if c.macro_acc > baseline_acc]
    viable.sort(key=lambda c: (-c.macro_acc, c.name))
    argmaxes = {c.name: np.argmax(c.probs, axis=1) for c in viable}
    chosen = [viable[0]]
    pool = viable[1:]
    while pool and len(chosen) < k:
        best, best_score = None, -1.0
        for c in pool:
            score = _set_disagreement([argmaxes[m.name] for m in chosen] + [argmaxes[c.name]])
            if score > best_score:
                best, best_score = c, score
        chosen.append(best)
        pool.remove(best)
    return tuple(c.name for c in chosen)


def test_select_by_max_equals_the_greedy_loop_on_tied_candidates():
    """Few clips and few predicted classes make many equal disagreement
    scores; accuracies from a short list make many equal accuracies."""
    rng = np.random.default_rng(29)
    for _ in range(400):
        n_models, n_clips = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        names = [f"m{i}" for i in rng.permutation(n_models)]
        candidates = []
        for name in names:
            probs = np.zeros((n_clips, evaluation.N_CLASSES))
            probs[np.arange(n_clips), rng.integers(0, 3, n_clips)] = 1.0
            candidates.append(EnsembleCandidate(name, probs, float(rng.choice([0.5, 0.6, 0.7]))))
        baseline, k = float(rng.choice([0.0, 0.55])), int(rng.integers(2, 8))
        if sum(c.macro_acc > baseline for c in candidates) < 2:
            continue
        expected = _reference_select(candidates, baseline, k)
        assert select_ensemble(candidates, baseline, k).members == expected
