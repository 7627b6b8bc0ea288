"""Work the benchmark runs in child processes, outside the measured process.

    python3 bench/child.py prepare <workload> <seed> <workdir>
        Make the workload's inputs: WAVs and manifests, the warm feature
        cache and the checkpoints. Writes <workdir>/inputs.json.
    python3 bench/child.py setup <workload> <workdir>
        Time the program's own set-up in a fresh interpreter and print the
        seconds: importing scenecls, then building the workload's models and
        datasets and loading its checkpoints.

Running these in a child keeps input generation out of the measured
process's peak RSS, and gives every set-up sample a cold import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TRAIN_MODELS = ("cnn-v2-3", "cnn-1d")


def prepare(workload: str, seed: int, work: Path) -> dict:
    import synth

    work.mkdir(parents=True, exist_ok=True)
    info = {"work": str(work)}
    if workload in ("extract", "tour"):
        info["extract"] = synth.extract_set(work / "extract", seed)
    if workload in ("train", "infer", "tour"):
        info["val"] = str(synth.class_set(work / "sets", "val", seed, 2, per_class=1))
        info["cache"] = str(work / "cache")
    if workload in ("train", "tour"):
        info["train"] = str(synth.class_set(work / "sets", "train", seed, 1, per_class=2))
    if workload == "extract":
        return info

    sys.path.insert(0, str(SRC))
    from scenecls import cli, models

    workers = str(min(2, os.cpu_count() or 1))
    jobs = [(info["val"], "v1"), (info["val"], "v2")]
    if "train" in info:
        jobs.append((info["train"], "v1"))
    for manifest, variant in jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["extract", "--manifest", manifest, "--variant", variant,
                           "--cache", info["cache"], "--workers", workers])
        if rc != 0:
            raise RuntimeError(f"warming the {variant} cache for {manifest} failed")
    if workload in ("infer", "tour"):
        ckpt = work / "ckpt"
        ckpt.mkdir(exist_ok=True)
        info["checkpoints"] = {}
        for name in models.MODEL_NAMES:
            path = ckpt / f"{name}.spck"
            models.save_model(models.build_model(name, seed=seed), path)
            info["checkpoints"][name] = str(path)
    return info


def setup(workload: str, info: dict) -> float:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from scenecls import cli, features, models, pipeline  # noqa: F401  (cli imports every module)

    if workload == "extract":
        pipeline.load_manifest(info["extract"]["manifest"])
    elif workload == "train":
        for name in TRAIN_MODELS:
            models.build_model(name, seed=0)
        for key in ("train", "val"):
            pipeline.build_dataset(pipeline.load_manifest(info[key]), features.V1, info["cache"])
    elif workload == "infer":
        for path in info["checkpoints"].values():
            models.load_model(path)
        val = pipeline.load_manifest(info["val"])
        for variant in (features.V1, features.V2):
            pipeline.build_dataset(val, variant, info["cache"])
    return time.perf_counter() - t0


def main(argv) -> int:
    if argv[0] == "prepare":
        workload, seed, work = argv[1], int(argv[2]), Path(argv[3])
        info = prepare(workload, seed, work)
        (work / "inputs.json").write_text(json.dumps(info))
    elif argv[0] == "setup":
        workload, work = argv[1], Path(argv[2])
        info = json.loads((work / "inputs.json").read_text())
        print(repr(setup(workload, info)))
    else:
        print(f"unknown command {argv[0]!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
