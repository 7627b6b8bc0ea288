"""A WAV header's sample rate cannot size an allocation.

`resample` designs a filter of 2 * SINC_ZERO_CROSSINGS * down + 1 taps,
where down is the input rate over its gcd with the target. A rate whose
filter would pass `audio._MAX_FILTER_BYTES` is an UnsupportedWavError, and
the front end names the file with it. Before the bound, one flipped byte of
a 44.1 kHz header asked `np.sinc` for 818 MiB, and the CLI ended in a
MemoryError traceback or the process was killed. The damaged-header cases
run in a child process under its own address-space limit, so that code
without the bound fails there instead of faulting in the test process.
"""

import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scenecls
from helpers import write_wav
from scenecls import audio, models, pipeline
from scenecls.audio import AudioClip, UnsupportedWavError, resample
from scenecls.features import V1, V2

STANDARD_RATES = [8000, 11025, 16000, 22050, 32000, 44100, 48000, 88200, 96000, 176400, 192000]
# 44100 with one header byte flipped (0x0000AC44 -> 0x00FFAC44), and the largest 32-bit rates
DAMAGED_RATES = [16755780, 2**31 - 1, 2**32 - 1]
LIMIT = 768 << 20  # the child's address space: numpy and a clip fit, no damaged filter does

CHILD = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT}))
from scenecls import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def _wav_at_rate(path, rate):
    """A one-second 16-bit mono WAV whose header claims ``rate``."""
    write_wav(path, np.random.default_rng(0).uniform(-0.5, 0.5, (1, 16000)), 16000)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 24, rate)  # the fmt chunk's sample rate
    path.write_bytes(bytes(data))
    return path


def _predict_in_child(ckpt, wav):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(scenecls.__file__).parent.parent),
                                           os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", CHILD, "predict", "--checkpoint", str(ckpt),
                           "--wav", str(wav)], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.fixture(scope="module")
def v1_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "v1.spck"
    models.save_model(models.build_lenet(3, V1, base_filters=2, dense_units=8), path)
    return path


@pytest.mark.parametrize("rate", DAMAGED_RATES)
def test_predict_on_a_damaged_rate_is_an_error_line_naming_file_and_rate(rate, tmp_path,
                                                                        v1_checkpoint):
    wav = _wav_at_rate(tmp_path / "damaged.wav", rate)
    run = _predict_in_child(v1_checkpoint, wav)
    assert run.returncode == 1, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith(f"error: {wav}: sample rate {rate} Hz"), run.stderr


def test_the_child_limit_leaves_room_for_a_clip_at_a_standard_rate(tmp_path, v1_checkpoint):
    run = _predict_in_child(v1_checkpoint, _wav_at_rate(tmp_path / "clip.wav", 44100))
    assert run.returncode == 0, run.stderr


def test_extract_clip_raises_unsupported_wav_error_naming_file_and_rate(tmp_path):
    wav = _wav_at_rate(tmp_path / "odd.wav", 2**21)  # down = 2**14 towards 16 kHz: just past
    want = "^" + re.escape(f"{wav}: sample rate {2**21} Hz")
    with pytest.raises(UnsupportedWavError, match=want):
        pipeline.extract_clip(wav, V1)


def test_the_bound_is_on_the_filter_size():
    """down 16383 designs a filter just inside the bound; down 16384 is past it."""
    x = np.random.default_rng(1).uniform(-1, 1, (1, 100))
    try:
        assert resample(AudioClip(x, 16383), 16000).length == 98  # gcd 1: down 16383
    finally:
        audio._design_lowpass.cache_clear()
        audio._polyphase_layout.cache_clear()
    with pytest.raises(UnsupportedWavError, match="sample rate 2097152 Hz"):
        resample(AudioClip(x, 2**21), 16000)  # gcd 128: down 16384


@pytest.mark.parametrize("rate,target", [(rate, target) for target in (V1.sample_rate,
                                                                       V2.sample_rate)
                                         for rate in STANDARD_RATES if rate >= target])
def test_every_standard_rate_resamples(rate, target):
    x = np.random.default_rng(rate).uniform(-1, 1, (1, 4001))
    out = resample(AudioClip(x, rate), target)
    assert out.length == round(4001 * target / rate)
