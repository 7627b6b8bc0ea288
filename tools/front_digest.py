"""Print one line of SHA-256 prefixes per (feature variant, sample rate)
pair, so that two commits whose front ends should compute the same bits
can be compared by diffing this script's output at each.

Per variant, every standard rate from 8 to 192 kHz at or above the
variant's own rate, and for v1 also 16,001 and 16,383 Hz (the ratios with
the largest resampling filters). Each line digests `features.clip_log_mel`
of a seeded stereo clip of the given length (default 10 s) at that rate:
the downmix, normalization, resampler and log-mel together.

Usage: PYTHONPATH=src python tools/front_digest.py [seed] [seconds]
OPENBLAS_NUM_THREADS defaults to 1, as the benchmark sets it.
"""

import hashlib
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from scenecls import features  # noqa: E402
from scenecls.audio import AudioClip  # noqa: E402

STANDARD_RATES = (8000, 11025, 16000, 22050, 32000, 44100, 48000, 88200, 96000, 176400, 192000)
EXTRA_RATES = {"v1": (16001, 16383)}


def rate_line(variant, rate: int, seed: int, seconds: float) -> str:
    rng = np.random.default_rng([seed, rate])
    clip = AudioClip(rng.uniform(-0.5, 0.5, (2, round(seconds * rate))), rate)
    data = features.clip_log_mel(clip, variant).data
    digest = hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()[:12]
    return f"{variant.id} {rate:>6} Hz {digest}"


def main(argv) -> int:
    seed = int(argv[0]) if argv else 0
    seconds = float(argv[1]) if len(argv) > 1 else 10.0
    for vid, variant in sorted(features.VARIANTS.items()):
        rates = [r for r in STANDARD_RATES if r >= variant.sample_rate]
        for rate in sorted(rates + list(EXTRA_RATES.get(vid, ()))):
            print(rate_line(variant, rate, seed, seconds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
