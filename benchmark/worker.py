"""One workload process of the benchmark (started by run.py, not by hand).

It imports hslab from the checkout's ``src``, generates the workload's inputs
from the seed and fills the caches the workload uses, prints ``READY``, and
then (unless ``--setup-only``) runs whole rounds until ``--seconds`` have
passed, checking each round's outputs outside the timed part.  Its last line
of output is one JSON object with the round times and the check results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmark" / "out"
sys.path.insert(0, str(ROOT / "src"))

import hslab  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if Path(hslab.__file__).resolve().parent != ROOT / "src" / "hslab":
        print(f"error: hslab imported from {hslab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, hslab)
        roots = [tracer.open("bench.setup")]
    workdir = OUT / f"scratch-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    if tracer:
        tracer.close(roots[0])
    print("READY", flush=True)
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    walls, cpus, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            prepared = workload.prepare()
            if tracer:
                span = tracer.open("bench.round")
            cpu0, t0 = time.process_time(), time.perf_counter()
            outputs = workload.run(prepared)
            t1, cpu1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.close(span)
                if len(walls) == 0:
                    roots.append(span)
            walls.append(t1 - t0)
            cpus.append(cpu1 - cpu0)
            attempted += len(outputs)
            failed += workload.failed(outputs)
            problems += workload.check(outputs)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "rounds": len(walls),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": None,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, roots)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
