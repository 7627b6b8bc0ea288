"""The traced run: spans around scenecls's public calls, and the per-layer
metrics computed from them.

The tracer wraps functions and methods from outside the package: each
wrapped call records a span (name, start, end, parent span, attributes).
Spans stay in memory and are written as JSON when the run ends. A span's
self time is its duration minus the durations of its child spans (calls
nest, and this process runs them one at a time).

A traced run is one pass over all three workloads, whichever workload is
named, because the per-layer metrics span all of them. Each section runs
its main round once untraced and once traced (the ratio of the two rates is
its tracing overhead), then its side round traced. The named workload
selects the section over which `pipeline.cache.hit_ratio` is counted.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import workloads
from scenecls import audio, cli, evaluation, features, models, nn, pipeline

TRAIN_MODELS = tuple(workloads.TRAIN_EPOCHS)
MODEL_NAMES = models.MODEL_NAMES
STEP_KINDS = {
    "cnn-v2-3": ("conv2d", "batchnorm", "relu", "maxpool2d", "dropout", "flatten", "dense",
                 "softmax"),
    "cnn-1d": ("conv1d", "batchnorm", "relu", "maxpool1d", "dropout", "flatten", "dense",
               "softmax"),
}
EVAL_KINDS = ("conv2d", "batchnorm", "relu", "maxpool2d", "fire", "dropout", "globalavgpool",
              "softmax")
SECTIONS = ("extract", "train", "infer")


def metric_names() -> list:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"audio.{f}.ms", "ms")
           for f in ("load_wav", "downmix_mono", "normalize_amplitude", "resample")]
    out += [("features.log_mel.v1.ms", "ms"), ("features.log_mel.v2.ms", "ms"),
            ("features.save_features.ms", "ms"), ("features.load_features.ms", "ms")]
    out += [("pipeline.clip_features.miss.ms", "ms"), ("pipeline.clip_features.hit.ms", "ms"),
            ("pipeline.cache.hit_ratio", "ratio"), ("pipeline.build_dataset.s", "s")]
    for m in TRAIN_MODELS:
        out += [(f"pipeline.train.{m}.epoch_s", "s"), (f"pipeline.train.{m}.self_s", "s"),
                (f"pipeline.validate.{m}.s", "s"), (f"pipeline.snapshot.{m}.ms", "ms")]
    for m in TRAIN_MODELS:
        out += [(f"nn.{m}.forward.ms", "ms"), (f"nn.{m}.backward.ms", "ms"),
                (f"nn.{m}.adadelta.ms", "ms"), (f"nn.{m}.conv0.bwd.ms", "ms"),
                (f"nn.{m}.step.alloc_peak_mb", "MB")]
        for kind in STEP_KINDS[m]:
            out.append((f"nn.{m}.{kind}.fwd.ms", "ms"))
            if kind != "softmax":  # training backpropagates from the logits
                out.append((f"nn.{m}.{kind}.bwd.ms", "ms"))
    out += [(f"nn.squeezenet.{kind}.eval.ms", "ms") for kind in EVAL_KINDS]
    out += [(f"models.build_model.{m}.ms", "ms") for m in TRAIN_MODELS]
    out += [(f"models.load_model.{m}.ms", "ms") for m in MODEL_NAMES]
    out += [(f"evaluation.predict_clip.{m}.ms", "ms") for m in MODEL_NAMES]
    out += [("evaluation.ensemble_geomean.us", "us"), ("evaluation.select_ensemble.ms", "ms"),
            ("evaluation.write_prediction_dump.ms", "ms"),
            ("evaluation.read_prediction_dump.ms", "ms")]
    out += [("cli.extract.v1.s", "s"), ("cli.extract.v2.s", "s")]
    out += [(f"cli.evaluate.{m}.s", "s") for m in MODEL_NAMES]
    out += [("cli.ensemble.s", "s"), ("cli.predict.ms", "ms")]
    out += [(f"trace.{w}.overhead_ratio", "ratio") for w in SECTIONS]
    return out


# --- recording --------------------------------------------------------------


class Tracer:
    """Records spans while `enabled`; `install` wraps the package's calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs, section]
        self.stack = []
        self.enabled = False
        self.section = ""
        self._undo = []

    def wrap(self, fn, name: str, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   attrs(*args, **kwargs) if attrs else {}, tracer.section]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()

        return traced

    def patch_function(self, module, attr: str, attrs=None) -> None:
        """Wrap module.attr, and every scenecls module's name bound to it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, f"{module.__name__.split('.')[-1]}.{attr}", attrs)
        for mod in [m for n, m in sys.modules.items() if n.startswith("scenecls")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, attrs=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, attrs))
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        for fn in ("load_wav", "downmix_mono", "normalize_amplitude", "resample"):
            self.patch_function(audio, fn)
        self.patch_function(features, "log_mel", lambda clip, variant: {"variant": variant.id})
        self.patch_function(features, "save_features")
        self.patch_function(features, "load_features")
        for fn in ("clip_features", "extract_clip", "build_dataset"):
            self.patch_function(pipeline, fn)
        self.patch_function(pipeline, "train", lambda g, *a, **k: {"model": g.name})
        self.patch_function(pipeline, "validate", lambda g, *a, **k: {"model": g.name})
        self.patch_function(nn, "loss_and_gradients",
                            lambda g, x, *a, **k: {"model": g.name, "batch": len(x)})
        for meth in ("forward", "backward_from_logits", "snapshot"):
            self.patch_method(nn.ModelGraph, meth, f"nn.ModelGraph.{meth}")
        self.patch_method(nn.Adadelta, "step", "nn.Adadelta.step")
        for cls in vars(nn).values():
            if isinstance(cls, type) and issubclass(cls, nn.Layer) and cls is not nn.Layer:
                for meth in ("forward", "backward"):
                    if meth in cls.__dict__:
                        self.patch_method(cls, meth, f"nn.layer.{meth}",
                                          lambda layer, *a, **k: {"kind": layer.kind})
        self.patch_function(models, "build_model", lambda name, *a, **k: {"model": name})
        self.patch_function(models, "load_model", lambda path: {"model": Path(path).stem})
        self.patch_function(evaluation, "predict_clip", lambda g, *a: {"model": g.name})
        for fn in ("ensemble_geomean", "select_ensemble", "write_prediction_dump",
                   "read_prediction_dump"):
            self.patch_function(evaluation, fn)
        self.patch_function(cli, "cmd_extract", lambda args: {"variant": args.variant})
        self.patch_function(cli, "cmd_evaluate",
                            lambda args: {"model": Path(args.checkpoint).stem})
        self.patch_function(cli, "cmd_ensemble")
        self.patch_function(cli, "cmd_predict")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "section": sec, **a}
                for n, s, e, p, a, sec in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


# --- metrics ----------------------------------------------------------------


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children[s[3]].append(i)

    def dur(self, i) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def find(self, name, **attrs):
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and all(s[4].get(k) == v for k, v in attrs.items())]

    def child(self, i, name):
        return [c for c in self.children[i] if self.spans[c][0] == name]

    def descendants(self, i):
        todo = list(self.children[i])
        while todo:
            c = todo.pop()
            yield c
            todo.extend(self.children[c])

    def kind_self(self, i, name, kind) -> float:
        return sum(self.self_time(d) for d in self.descendants(i)
                   if self.spans[d][0] == name and self.spans[d][4]["kind"] == kind)

    def median(self, ids, scale=1.0) -> float:
        if not ids:
            raise KeyError("no spans")
        return scale * statistics.median(self.dur(i) for i in ids)


def per_layer(tree: SpanTree, workload: str, overhead: dict, alloc_peak: dict) -> dict:
    m = {}
    for fn in ("load_wav", "downmix_mono", "normalize_amplitude", "resample"):
        m[f"audio.{fn}.ms"] = tree.median(tree.find(f"audio.{fn}"), 1e3)
    for vid in ("v1", "v2"):
        m[f"features.log_mel.{vid}.ms"] = tree.median(tree.find("features.log_mel", variant=vid), 1e3)
    for fn in ("save_features", "load_features"):
        m[f"features.{fn}.ms"] = tree.median(tree.find(f"features.{fn}"), 1e3)

    lookups = tree.find("pipeline.clip_features")
    misses = {i for i in lookups if tree.child(i, "pipeline.extract_clip")}
    hits = [i for i in lookups if i not in misses]
    m["pipeline.clip_features.miss.ms"] = tree.median(sorted(misses), 1e3)
    m["pipeline.clip_features.hit.ms"] = tree.median(hits, 1e3)
    in_section = [i for i in lookups if tree.spans[i][5] == workload]
    m["pipeline.cache.hit_ratio"] = sum(i not in misses for i in in_section) / len(in_section)
    m["pipeline.build_dataset.s"] = tree.median(tree.find("pipeline.build_dataset"))

    covered = ("nn.loss_and_gradients", "nn.Adadelta.step", "pipeline.validate",
               "nn.ModelGraph.snapshot")
    for model in TRAIN_MODELS:
        runs = tree.find("pipeline.train", model=model)
        epochs = workloads.TRAIN_EPOCHS[model]
        m[f"pipeline.train.{model}.epoch_s"] = tree.median(runs) / epochs
        m[f"pipeline.train.{model}.self_s"] = statistics.median(
            (tree.dur(r) - sum(tree.dur(c) for c in tree.children[r]
                               if tree.spans[c][0] in covered)) / epochs
            for r in runs)
        m[f"pipeline.validate.{model}.s"] = tree.median(
            [c for r in runs for c in tree.child(r, "pipeline.validate")])
        m[f"pipeline.snapshot.{model}.ms"] = tree.median(
            [c for r in runs for c in tree.child(r, "nn.ModelGraph.snapshot")], 1e3)

    for model in TRAIN_MODELS:
        runs = tree.find("pipeline.train", model=model)
        steps = [i for i in tree.find("nn.loss_and_gradients", model=model, batch=workloads.TRAIN_BATCH)]
        fwd = [tree.child(s, "nn.ModelGraph.forward")[0] for s in steps]
        bwd = [tree.child(s, "nn.ModelGraph.backward_from_logits")[0] for s in steps]
        m[f"nn.{model}.forward.ms"] = tree.median(fwd, 1e3)
        m[f"nn.{model}.backward.ms"] = tree.median(bwd, 1e3)
        m[f"nn.{model}.adadelta.ms"] = tree.median(
            [c for r in runs for c in tree.child(r, "nn.Adadelta.step")], 1e3)
        # backward visits layers last to first: its last child is layer 0
        m[f"nn.{model}.conv0.bwd.ms"] = tree.median([tree.children[b][-1] for b in bwd], 1e3)
        m[f"nn.{model}.step.alloc_peak_mb"] = alloc_peak[model]
        for kind in STEP_KINDS[model]:
            m[f"nn.{model}.{kind}.fwd.ms"] = 1e3 * statistics.median(
                tree.kind_self(f, "nn.layer.forward", kind) for f in fwd)
            if kind != "softmax":
                m[f"nn.{model}.{kind}.bwd.ms"] = 1e3 * statistics.median(
                    tree.kind_self(b, "nn.layer.backward", kind) for b in bwd)
    clips = tree.find("evaluation.predict_clip", model="squeezenet")
    for kind in EVAL_KINDS:
        m[f"nn.squeezenet.{kind}.eval.ms"] = 1e3 * statistics.median(
            tree.kind_self(c, "nn.layer.forward", kind) for c in clips)

    for model in TRAIN_MODELS:
        m[f"models.build_model.{model}.ms"] = tree.median(
            tree.find("models.build_model", model=model), 1e3)
    for model in MODEL_NAMES:
        m[f"models.load_model.{model}.ms"] = tree.median(
            tree.find("models.load_model", model=model), 1e3)
    for model in MODEL_NAMES:
        m[f"evaluation.predict_clip.{model}.ms"] = tree.median(
            tree.find("evaluation.predict_clip", model=model), 1e3)
    m["evaluation.ensemble_geomean.us"] = tree.median(tree.find("evaluation.ensemble_geomean"), 1e6)
    for fn in ("select_ensemble", "write_prediction_dump", "read_prediction_dump"):
        m[f"evaluation.{fn}.ms"] = tree.median(tree.find(f"evaluation.{fn}"), 1e3)

    for vid in ("v1", "v2"):
        m[f"cli.extract.{vid}.s"] = tree.median(tree.find("cli.cmd_extract", variant=vid))
    for model in MODEL_NAMES:
        m[f"cli.evaluate.{model}.s"] = tree.median(tree.find("cli.cmd_evaluate", model=model))
    m["cli.ensemble.s"] = tree.median(tree.find("cli.cmd_ensemble"))
    m["cli.predict.ms"] = tree.median(tree.find("cli.cmd_predict"), 1e3)
    for section, ratio in overhead.items():
        m[f"trace.{section}.overhead_ratio"] = ratio
    return m


# --- the traced pass --------------------------------------------------------


def step_alloc_peak_mb(model: str, train: workloads.Train) -> float:
    """tracemalloc peak over one batch-256 step from a fresh model, untraced."""
    graph = models.build_model(model, seed=train.seed)
    xs, ys = train.train_set.flat_segments()
    x, y = xs[:workloads.TRAIN_BATCH], ys[:workloads.TRAIN_BATCH]
    if len(graph.input_shape) == 3:
        x = x[..., None]
    opt = nn.Adadelta(graph.parameters())
    tracemalloc.start()
    try:
        nn.loss_and_gradients(graph, x, y)
        opt.step()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run(workload: str, seed: int, work: Path, out_dir: Path) -> dict:
    info = workloads.prepare_inputs("tour", seed, work)
    tracer = Tracer()
    tracer.install()
    overhead, alloc_peak, parts = {}, {}, []
    tally = {"attempted": 0, "failed": 0}

    def traced(fn):
        tracer.enabled = True
        try:
            return fn()
        finally:
            tracer.enabled = False

    def rounds(w, section):
        """Main round untraced, then traced; side round traced."""
        tracer.section = section
        tally["attempted"] += 2 * w.main.ops + w.side.ops
        plain_s, items = w.main.fn()
        traced_s, _ = traced(w.main.fn)
        traced(w.side.fn)
        overhead[section] = (items / traced_s) / (items / plain_s)

    try:
        tracer.section = "extract"
        ex = workloads.Extract(info)
        ex.prepare_references()
        rounds(ex, "extract")
        parts.append(ex)

        tracer.section = "train"
        tr = traced(lambda: workloads.Train(info, seed))
        tr.warm_up()
        rounds(tr, "train")
        for model in TRAIN_MODELS:
            alloc_peak[model] = step_alloc_peak_mb(model, tr)
        parts.append(tr)

        tracer.section = "infer"
        inf = traced(lambda: workloads.Infer(info))
        inf.warm_up()
        rounds(inf, "infer")
        parts.append(inf)
    finally:
        tracer.uninstall()
    tracer.write(out_dir / f"trace-{workload}-{seed}.json")

    units = dict(metric_names())
    values = per_layer(SpanTree(tracer.spans), workload, overhead, alloc_peak)
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    return {
        "correct": not any(p.failures for p in parts),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
