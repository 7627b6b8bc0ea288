"""Print what each float32 train step of one registry model costs the
process, so that a change to what a step holds can be measured.

The model is built at seed 0 and cast to float32, as `pipeline.train` does.
Each step is one seeded `nn.loss_and_gradients` on a fresh standard-normal
batch, then `nn.Adadelta.step`. Per step it prints the wall time, the user
and system CPU time and the minor page faults, all from
`resource.getrusage` around the step; then the process's max RSS.

Usage: PYTHONPATH=src python tools/step_memory.py MODEL [batch] [steps]
(batch defaults to 256, steps to 3). OPENBLAS_NUM_THREADS defaults to 1, as
the benchmark sets it. Cap the address space with the shell's `ulimit -v`
when a step may not fit in memory: a MemoryError is then a clean failure.
"""

import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import resource  # noqa: E402

import numpy as np  # noqa: E402

from scenecls import evaluation, models, nn  # noqa: E402


def main(argv) -> int:
    if not 1 <= len(argv) <= 3:
        print("usage: step_memory.py MODEL [batch] [steps]", file=sys.stderr)
        return 2
    name = argv[0]
    batch = int(argv[1]) if len(argv) > 1 else 256
    steps = int(argv[2]) if len(argv) > 2 else 3
    graph = models.build_model(name, seed=0)
    graph.cast(np.float32)
    graph.seed_dropout(0)
    opt = nn.Adadelta(graph.parameters())
    rng = np.random.default_rng(0)
    print(f"{name} batch {batch}, {nn.cores()} cores", flush=True)
    for step in range(steps):
        x = rng.standard_normal((batch, *graph.input_shape)).astype(np.float32)
        labels = rng.integers(0, evaluation.N_CLASSES, batch)
        before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        nn.loss_and_gradients(graph, x, labels)
        opt.step()
        wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
        print(f"step {step}: wall {wall:.2f} s  user {after.ru_utime - before.ru_utime:.2f} s  "
              f"sys {after.ru_stime - before.ru_stime:.2f} s  "
              f"minflt {after.ru_minflt - before.ru_minflt}", flush=True)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"max RSS {maxrss:.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
