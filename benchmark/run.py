"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload boundary-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; hslab is imported from its ``src``.  Every
workload process is single-threaded (HSLAB_THREADS=1 and one BLAS/OpenMP
thread).  Set-up is measured from process start to the first timed operation,
in SETUP_SAMPLES fresh processes; the last of them goes on to run the timed
rounds.  With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("boundary-sweep", "solve-nonconst", "small-calls")
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0  # seconds for all processes of one run
SINGLE_THREAD = {"HSLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def start_worker(args, deadline: float, setup_only: bool):
    """Start a worker; return it with the seconds until it reported READY."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **SINGLE_THREAD}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise RunFailed(f"worker did not finish set-up (exit status {proc.returncode})")
    return proc, setup_s


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunFailed("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with status {proc.returncode}")
    return out


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hslab" / "__init__.py").is_file():
        print(f"error: no hslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = start_worker(args, deadline, setup_only=True)
            finish(proc, deadline)
            setups.append(setup_s)
        proc, setup_s = start_worker(args, deadline, setup_only=False)
        setups.append(setup_s)
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except (RunFailed, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"wall {result['wall_s']:.4f} s and cpu {result['cpu_s']:.4f} s per round (median), "
          f"set-up samples {[round(s, 4) for s in setups]}, trace {args.trace}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in result["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
