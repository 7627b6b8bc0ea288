"""The three timed workloads and the scheduler that measures them.

Each workload object makes its references before the timed phase, then
offers two kinds of round (main and side). A round is one whole set of
operations; its timed part covers only the program's calls, and its checks
run after the clock stops. The scheduler alternates the two kinds until the
run's time is up, and each metric is the median over its rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
from scenecls import cli, features, models, pipeline

BENCH = Path(__file__).resolve().parent
MIN_ROUNDS = 2          # per kind, even if that overruns --seconds
SETUP_SAMPLES = 5
TRAIN_BATCH = 256
# Epochs per training round. A round starts from a freshly built model, so
# every round does the same work and must end in the same state.
TRAIN_EPOCHS = {"cnn-v2-3": 1, "cnn-1d": 4}
# Validation macro accuracy must reach 2/15, one class more than a constant
# prediction gets. Only cnn-1d is held to it: over 37 seeds its best of four
# epochs was 3/15 or more (one seed stayed at 1/15 for three epochs), where
# cnn-v2-3's single epoch (two Adadelta steps) went as low as 2/15.
ABOVE_CHANCE = {"cnn-1d": 1.0 / 15}
PREDICT_MODEL = "cnn-v2-1"
PREDICT_CLIPS = 5


class OperationFailed(RuntimeError):
    """A CLI call returned a non-zero exit status."""


def run_child(*args) -> str:
    done = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                          capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} failed:\n{done.stderr}")
    return done.stdout


def prepare_inputs(workload: str, seed: int, work: Path) -> dict:
    run_child("prepare", workload, str(seed), str(work))
    return json.loads((work / "inputs.json").read_text())


def setup_seconds(workload: str, work: Path) -> float:
    return statistics.median(
        float(run_child("setup", workload, str(work))) for _ in range(SETUP_SAMPLES)
    )


def call_cli(argv) -> str:
    """Run one scenecls subcommand in this process; return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise OperationFailed(f"scenecls {argv[0]} exited with {rc}")
    return buf.getvalue()


class Round:
    """A kind of round: a callable returning (timed seconds, items), the
    operations it attempts, and how many of it the scheduler runs per cycle."""

    def __init__(self, name: str, fn, ops: int, per_cycle: int = 1):
        self.name, self.fn, self.ops, self.per_cycle = name, fn, ops, per_cycle


class Workload:
    main: Round
    side: Round

    def __init__(self):
        self.failures = []  # check messages

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failures.append(str(exc))
            print(f"CHECK FAILED: {exc}", file=sys.stderr)


def measure(workload: Workload, seconds: float) -> dict:
    """Cycle through main and side rounds for `seconds`; rates by kind.

    A round starts only if the last one of its kind says it will end in
    time, but every kind gets MIN_ROUNDS rounds. A round whose program call
    raises counts all its operations as failed and gives no rate.
    """
    kinds = (workload.main, workload.side)
    cycle = [k for k in kinds for _ in range(k.per_cycle)]
    rates = {k.name: [] for k in kinds}
    rounds = {k.name: 0 for k in kinds}
    last = {k.name: 0.0 for k in kinds}
    tally = {"attempted": 0, "failed": 0}
    deadline = time.perf_counter() + seconds
    active = set(k.name for k in kinds)
    while active:
        for kind in cycle:
            start = time.perf_counter()
            if kind.name not in active:
                continue
            if rounds[kind.name] >= MIN_ROUNDS and start + last[kind.name] > deadline:
                active.discard(kind.name)
                continue
            rounds[kind.name] += 1
            tally["attempted"] += kind.ops
            try:
                timed, items = kind.fn()
                rates[kind.name].append(items / timed)
            except (OperationFailed, ValueError, RuntimeError, OSError) as exc:
                tally["failed"] += kind.ops
                print(f"round {kind.name} failed: {exc!r}", file=sys.stderr)
            last[kind.name] = time.perf_counter() - start
    return {"rates": rates, **tally}


# --- extract ----------------------------------------------------------------


class Extract(Workload):
    """`scenecls extract` with one worker into a cold cache, v1 and v2."""

    def __init__(self, info: dict):
        super().__init__()
        self.info = info["extract"]
        self.work = Path(info["work"])
        self.manifest = pipeline.load_manifest(self.info["manifest"])
        self.n_clips = len(self.manifest)
        self.expected = {}
        self.n_rounds = 0
        self.main = Round("extract_v1", lambda: self.round("v1"), ops=1)
        self.side = Round("extract_v2", lambda: self.round("v2"), ops=1)

    def prepare_references(self) -> None:
        """Extract every clip in-process and check the method's properties."""
        root = self.manifest.root
        for vid in ("v1", "v2"):
            variant = features.VARIANTS[vid]
            data = {e.path: pipeline.extract_clip(root / e.path, variant).data
                    for e in self.manifest.entries}
            for path, mat in data.items():
                self.check(checks.check_feature_matrix, mat, vid, f"{vid} {path}")
            for path, freq in self.info["tones"].items():
                self.check(checks.check_tone, data[path], freq, vid, f"{vid} {path}")
            for kind, (twin, source) in self.info["twins"].items():
                self.check(checks.check_twins, data[twin], data[source], checks.TWIN_RTOL[kind],
                           f"{vid} {twin}")
            self.expected[vid] = Counter(checks.matrix_key(m) for m in data.values())

    def round(self, vid: str):
        self.n_rounds += 1
        cache = self.work / f"cold-{vid}-{self.n_rounds}"
        t0 = time.perf_counter()
        out = call_cli(["extract", "--manifest", self.info["manifest"], "--variant", vid,
                        "--cache", cache, "--workers", 1])
        timed = time.perf_counter() - t0
        want = f"extracted features for {self.n_clips} clips (0 already cached)"
        self.check(checks.require, want in out, f"extract {vid} printed {out.strip()!r}")
        self.check(checks.check_cache, cache, vid, self.expected[vid])
        shutil.rmtree(cache)
        return timed, self.n_clips


# --- train ------------------------------------------------------------------


class Train(Workload):
    """Whole `pipeline.train` epochs at batch 256: cnn-v2-3 main, cnn-1d side."""

    def __init__(self, info: dict, seed: int):
        super().__init__()
        self.seed = seed
        cache = info["cache"]
        self.train_set = pipeline.build_dataset(
            pipeline.load_manifest(info["train"]), features.V1, cache)
        self.val_set = pipeline.build_dataset(
            pipeline.load_manifest(info["val"]), features.V1, cache)
        self.n_segments = self.train_set.segments.shape[0] * self.train_set.segments.shape[1]
        self.digests = {}
        self.main = Round("cnn-v2-3", lambda: self.round("cnn-v2-3"), ops=1)
        self.side = Round("cnn-1d", lambda: self.round("cnn-1d"), ops=1)

    def warm_up(self) -> None:
        """One small step per model, so first-call costs stay out of the rounds."""
        xs, ys = self.train_set.flat_segments()
        for name in TRAIN_EPOCHS:
            graph = models.build_model(name, seed=self.seed)
            x = xs[:9, ..., None] if len(graph.input_shape) == 3 else xs[:9]
            graph.forward(x, train=True)

    def round(self, name: str):
        graph = models.build_model(name, seed=self.seed)
        config = pipeline.TrainConfig(model=name, batch_size=TRAIN_BATCH,
                                      epochs=TRAIN_EPOCHS[name], seed=self.seed)
        t0 = time.perf_counter()
        history = pipeline.train(graph, self.train_set, self.val_set, config)
        timed = time.perf_counter() - t0
        losses = [e[1] for e in history.epochs]
        accs = [e[3] for e in history.epochs]
        digest = checks.digest(losses, accs, [a for _, a in graph.state_tensors()])
        if name not in self.digests:  # first round of this model: full checks
            self.digests[name] = digest
            val_after = pipeline.validate(graph, self.val_set)
            self.check(checks.check_history, losses, accs, history.best_epoch, val_after, name)
            if name in ABOVE_CHANCE:
                self.check(checks.check_above_chance, max(accs), ABOVE_CHANCE[name], name)
        else:
            first = self.digests[name]
            self.check(checks.require, digest == first,
                       f"{name}: round digest {digest} differs from the first round's {first}")
        return timed, TRAIN_EPOCHS[name] * self.n_segments


# --- infer ------------------------------------------------------------------


class Infer(Workload):
    """`scenecls evaluate` of all six checkpoints plus `ensemble` (main);
    `scenecls predict` with the cnn-v2-1 checkpoint (side)."""

    def __init__(self, info: dict):
        super().__init__()
        self.info = info
        self.work = Path(info["work"])
        self.out = self.work / "results"
        manifest = pipeline.load_manifest(info["val"])
        self.n_clips = len(manifest)
        self.wavs = [(e.path, manifest.root / e.path) for e in manifest.entries[:PREDICT_CLIPS]]
        self.reference = {}
        self.main = Round("evaluate", self.evaluate_round, ops=len(models.MODEL_NAMES) + 1)
        self.side = Round("predict", self.predict_round, ops=PREDICT_CLIPS, per_cycle=2)

    def evaluate(self, name: str) -> str:
        return call_cli(["evaluate", "--checkpoint", self.info["checkpoints"][name],
                         "--manifest", self.info["val"], "--out", self.out,
                         "--cache", self.info["cache"]])

    @staticmethod
    def dump_path(stdout: str) -> str:
        m = re.search(r"^prediction dump: (.+)$", stdout, re.M)
        if m is None:
            raise OperationFailed(f"evaluate printed no dump path: {stdout[-200:]!r}")
        return m.group(1)

    def warm_up(self) -> None:
        """Evaluate the predict model once: its dump is predict's reference."""
        ids, _, probs = checks.read_dump(self.dump_path(self.evaluate(PREDICT_MODEL)))
        self.reference = dict(zip(ids, probs))
        call_cli(["predict", "--checkpoint", self.info["checkpoints"][PREDICT_MODEL],
                  "--wav", self.wavs[0][1]])

    def evaluate_round(self):
        ens_path = self.out / "ensemble.predictions.csv"
        t0 = time.perf_counter()
        outs = {name: self.evaluate(name) for name in models.MODEL_NAMES}
        dumps = [self.dump_path(o) for o in outs.values()]
        ens_out = call_cli(["ensemble", "--dumps", ",".join(dumps), "--baseline", -1,
                            "--k", len(dumps), "--out", ens_path])
        timed = time.perf_counter() - t0

        members = {}
        for (name, stdout), path in zip(outs.items(), dumps):
            ids, labels, probs = checks.read_dump(path)
            self.check(checks.check_fused_rows, probs, name)
            self.check(checks.check_printed_accuracy, stdout, labels, probs, f"evaluate {name}")
            members[name] = dict(zip(ids, probs))
        ids, _, ens = checks.read_dump(ens_path)
        self.check(checks.require, all(name in ens_out.splitlines()[0] for name in members),
                   f"ensemble did not take all six members: {ens_out.splitlines()[0]!r}")
        self.check(checks.check_fused_rows, ens, "ensemble")
        self.check(checks.check_ensemble, ens,
                   [np.stack([m[i] for i in ids]) for m in members.values()], "ensemble")
        return timed, self.n_clips

    def predict_round(self):
        ckpt = self.info["checkpoints"][PREDICT_MODEL]
        t0 = time.perf_counter()
        outs = [call_cli(["predict", "--checkpoint", ckpt, "--wav", wav]) for _, wav in self.wavs]
        timed = time.perf_counter() - t0
        for (clip_id, _), stdout in zip(self.wavs, outs):
            self.check(checks.check_predict, stdout, self.reference[clip_id], f"predict {clip_id}")
        return timed, len(self.wavs)


def build(workload: str, info: dict, seed: int) -> Workload:
    """The workload object with its references made and warm-up done."""
    if workload == "extract":
        w = Extract(info)
        w.prepare_references()
    elif workload == "train":
        w = Train(info, seed)
        w.warm_up()
    else:
        w = Infer(info)
        w.warm_up()
    return w
