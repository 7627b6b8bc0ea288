"""scenecls benchmark: extract, train and infer, end to end and per layer.

    python3 bench/run.py --workload {extract,train,infer} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. With
--trace 0 the named workload runs untraced for S seconds and the last line
of standard output is a JSON object with its end-to-end metrics. With
--trace 1 the run is one traced pass over all three workloads instead (see
tracing.py), reporting the per-layer metrics. Inputs are made from the seed
in .bench_work/ and removed at the end; a traced run keeps its spans in
.bench_out/. See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread for this process and its children, set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("extract", "train", "infer")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, work: Path) -> dict:
    import workloads

    info = workloads.prepare_inputs(args.workload, args.seed, work)
    setup_s = workloads.setup_seconds(args.workload, work)
    w = workloads.build(args.workload, info, args.seed)
    result = workloads.measure(w, args.seconds)
    main, side = (result["rates"][k.name] for k in (w.main, w.side))
    for kind, rates in ((w.main, main), (w.side, side)):
        print(f"{kind.name}: {len(rates)} rounds, items/s " + " ".join(f"{r:.3f}" for r in rates))
    if getattr(w, "digests", None):
        for name, digest in w.digests.items():
            print(f"digest {name} seed {args.seed}: {digest}")
    if not main or not side:
        raise SystemExit("no round of a kind completed; nothing to report")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": not w.failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            "items_per_s": metric(statistics.median(main), "1/s"),
            "side_items_per_s": metric(statistics.median(side), "1/s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "setup_s": metric(setup_s, "s"),
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "scenecls" / "__init__.py").is_file():
        print(f"error: no scenecls package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"blas: {blas.get('name')} {blas.get('version')}, {BLAS_THREADS} thread(s) "
          f"of {os.cpu_count()} cores; numpy {np.__version__}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            import tracing

            result = tracing.run(args.workload, args.seed, work, ROOT / ".bench_out")
        else:
            result = end_to_end(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
