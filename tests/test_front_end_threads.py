"""The front end is safe to run on two threads at once, cold caches included:
`pipeline.extract_clip` gives the bytes of a serial pass while its filter,
resampler-layout and filterbank caches are filled by both threads. This is
what `scenecls extract --workers 2` relies on."""

import sys
import threading

import numpy as np
import pytest

from helpers import write_wav
from scenecls import audio, features, pipeline
from scenecls.features import V1, V2

RATES = [44100, 48000, 96000, 44100]  # v2 only lowers rates


def _clear_caches():
    audio._design_lowpass.cache_clear()
    audio._polyphase_layout.cache_clear()
    features.mel_filterbank.cache_clear()


@pytest.fixture(scope="module")
def wavs(tmp_path_factory):
    root = tmp_path_factory.mktemp("wavs")
    rng = np.random.default_rng(11)
    paths = []
    for i, rate in enumerate(RATES):
        path = root / f"c{i}.wav"
        write_wav(path, rng.uniform(-0.5, 0.5, (2, rate * 2)), rate, bits=16 + 8 * (i % 2))
        paths.append(path)
    return paths


@pytest.mark.parametrize("variant", [V1, V2], ids=["v1", "v2"])
def test_two_threads_give_the_serial_bytes(wavs, variant):
    _clear_caches()
    serial = [pipeline.extract_clip(w, variant).data.tobytes() for w in wavs]
    _clear_caches()
    start = threading.Barrier(2, timeout=30)
    got = [[None] * len(wavs) for _ in range(2)]
    errors = []

    def run(k):
        try:
            start.wait()
            order = range(len(wavs)) if k == 0 else reversed(range(len(wavs)))
            for i in order:
                got[k][i] = pipeline.extract_clip(wavs[i], variant).data.tobytes()
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == [serial, serial]
