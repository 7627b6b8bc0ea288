"""Command-line interface.

Subcommands: extract (feature cache), train, evaluate (prediction dump plus
metrics), ensemble (member selection and geometric-mean fusion over dumps),
predict (single WAV, with features computed as extract and evaluate compute
them), report (accuracy tables from dumps).

extract runs up to --workers clips at once, one per thread; one worker runs
them in the calling thread. scenecls starts no child process.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluation, features, models, nn, pipeline
from .evaluation import CLASSES

CACHE_ENV = "SCENECLS_CACHE"


def _default_cache():
    return os.environ.get(CACHE_ENV, "")


def _worker_count(text):
    """argparse type for --workers: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def cmd_extract(args) -> int:
    manifest = pipeline.load_manifest(args.manifest)
    variant = features.VARIANTS[args.variant]
    Path(args.cache).mkdir(parents=True, exist_ok=True)
    stale = [e for e in manifest.entries
             if not pipeline.cache_hit(pipeline.cache_path(args.cache, e.wav, variant),
                                       e.wav, variant)]
    hits = len(manifest) - len(stale)

    def extract_one(entry):
        """Returns an error message, or None on success."""
        try:
            pipeline.clip_features(entry.wav, variant, args.cache)
        except Exception as exc:  # per-file isolation: report, keep going
            return str(exc)

    start = time.perf_counter()
    # One worker stays in the calling thread: a one-thread pool in its place
    # ran the benchmark's v1 extract rounds 5-19% slower in paired runs.
    if args.workers > 1 and len(stale) > 1:
        from concurrent.futures.thread import ThreadPoolExecutor

        with ThreadPoolExecutor(args.workers, "scenecls-extract") as pool:
            results = list(pool.map(extract_one, stale))
    else:
        results = [extract_one(e) for e in stale]
    seconds = time.perf_counter() - start
    failures = [(e.path, err) for e, err in zip(stale, results) if err is not None]
    done = len(manifest) - len(failures)
    print(f"extracted features for {done} clips ({hits} already cached) -> {args.cache}")
    rate = len(stale) / seconds if seconds > 0 else 0.0
    print(f"{len(stale)} clips in {seconds:.2f} s ({rate:.1f} clips/s), {len(failures)} failed")
    for clip_path, err in failures:
        print(f"FAILED {clip_path}: {err}", file=sys.stderr)
    return 1 if failures else 0


def cmd_train(args) -> int:
    config = pipeline.parse_config(args.config)
    _, history, ckpt, hist = pipeline.run_training(config)
    best = history.epochs[history.best_epoch]
    print(f"checkpoint: {ckpt}")
    print(f"history:    {hist}")
    print(f"best epoch {best[0]}: validation macro accuracy {100.0 * best[3]:.1f}")
    return 0


def cmd_evaluate(args) -> int:
    graph = models.load_model(args.checkpoint)
    manifest = pipeline.load_manifest(args.manifest)
    dataset = pipeline.build_dataset(manifest, graph.variant, args.cache or None)
    probs = evaluation.predict_clips(graph, dataset.segments)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    dump = out / f"{graph.name}.predictions.csv"
    labels = [CLASSES[i] for i in dataset.labels]
    evaluation.write_prediction_dump(dump, dataset.clip_ids, labels, probs)

    cm = evaluation.confusion(list(zip(dataset.labels, probs)))
    acc = evaluation.class_accuracy(cm)
    text, _ = evaluation.render_report([graph.name], [acc], [cm])
    evaluation.write_text_atomic(out / f"{graph.name}.confusion.txt", text)
    print(text, end="")
    print(f"macro accuracy: {100.0 * evaluation.macro_accuracy(cm):.1f}")
    print(f"prediction dump: {dump}")
    return 0


def _load_dumps(paths):
    """Read dumps and align them on a common clip order; error on none, or on
    dumps that differ in their clip sets or in a clip's true label. Returns
    (name, clip ids, labels, probs, confusion) per dump."""
    if not paths:
        raise ValueError("no prediction dumps given")
    loaded = []
    for p in paths:
        clip_ids, labels, probs = evaluation.read_prediction_dump(p)
        order = np.argsort(clip_ids)
        loaded.append((Path(p).stem.replace(".predictions", ""),
                       [clip_ids[i] for i in order], labels[order], probs[order]))
    names = [name for name, _, _, _ in loaded]
    if len(set(names)) != len(names):
        raise ValueError(f"dump names collide: {names}; rename the files")
    _, ref_ids, ref_labels, _ = loaded[0]
    for p, (name, ids, labels, _) in zip(paths[1:], loaded[1:]):
        if ids != ref_ids:
            missing = sorted(set(ref_ids) ^ set(ids))[:5]
            raise ValueError(f"dump {name} covers a different clip set (e.g. {missing})")
        i = np.argmax(labels != ref_labels)  # the first clip they disagree on, if any
        if labels[i] != ref_labels[i]:
            raise ValueError(f"dumps {paths[0]} and {p} disagree on clip {ids[i]!r}: "
                             f"labels {CLASSES[ref_labels[i]]} and {CLASSES[labels[i]]}")
    return [(*d, evaluation.confusion(zip(d[2], d[3]))) for d in loaded]


def cmd_ensemble(args) -> int:
    paths = [p for p in args.dumps.split(",") if p]
    if len(paths) < 2:
        print("need at least two prediction dumps", file=sys.stderr)
        return 2
    loaded = _load_dumps(paths)
    _, clip_ids, labels, _, _ = loaded[0]
    candidates = [evaluation.EnsembleCandidate(name, probs, evaluation.macro_accuracy(cm))
                  for name, _, _, probs, cm in loaded]
    spec = evaluation.select_ensemble(candidates, args.baseline / 100.0, args.k)
    by_name = {c.name: c for c in candidates}
    members = [by_name[m] for m in spec.members]
    print("ensemble members: " + ", ".join(
        f"{c.name} ({100.0 * c.macro_acc:.1f})" for c in members
    ))

    combined = evaluation.ensemble_geomean([c.probs for c in members])
    cm = evaluation.confusion(list(zip(labels, combined)))
    text, _ = evaluation.render_report(["ensemble"], [evaluation.class_accuracy(cm)], [cm])
    print(text, end="")
    print(f"ensemble macro accuracy: {100.0 * evaluation.macro_accuracy(cm):.1f}")
    if args.out:
        evaluation.write_prediction_dump(
            args.out, clip_ids, [CLASSES[i] for i in labels], combined
        )
        print(f"ensemble dump: {args.out}")
    return 0


def cmd_predict(args) -> int:
    graph = models.load_model(args.checkpoint)
    segs = features.segment(pipeline.extract_clip(args.wav, graph.variant)).segments
    dist = evaluation.predict_clip(graph, segs)
    print(f"label: {CLASSES[evaluation.argmax_label(dist)]}")
    for name, p in sorted(zip(CLASSES, dist), key=lambda t: -t[1]):
        print(f"  {name:16s} {p:.4f}")
    return 0


def cmd_report(args) -> int:
    paths = [p for p in args.dumps.split(",") if p]
    names, _, _, _, cms = zip(*_load_dumps(paths))
    text, csv = evaluation.render_report(names, [evaluation.class_accuracy(cm) for cm in cms], cms)
    print(text, end="")
    if args.out:
        evaluation.write_text_atomic(args.out, csv)
        print(f"csv report: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenecls",
                                     description="acoustic scene classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract log-mel features into a cache directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--variant", required=True, choices=sorted(features.VARIANTS))
    p.add_argument("--cache", default=_default_cache(), required=not _default_cache())
    p.add_argument("--workers", type=_worker_count, default=nn.cores(),
                   help="extraction threads (default: the cores this process may use)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a model from a key=value config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="fused per-clip predictions and metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cache", default=_default_cache())
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble", help="select members and fuse prediction dumps")
    p.add_argument("--dumps", required=True, help="comma-separated prediction CSVs")
    p.add_argument("--baseline", type=float, required=True,
                   help="baseline macro accuracy in percent; members must beat it")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("predict", help="classify a single WAV file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="class-by-model accuracy table from dumps")
    p.add_argument("--dumps", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
