#!/usr/bin/env python3
"""currentrep benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Starts one fresh single-threaded process (OPENBLAS_NUM_THREADS=1) that runs
the workload's verification suites through ``currentrep.suites.run_suite``
(child.py), and prints one JSON object as the last stdout line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are setup_s, wall_s, cpu_s and peak_rss_mb; with ``--trace 1``
they are the per-layer metrics of tracer.py.  The full record, with the
per-round times and the check tallies, is also written to perfbench/out/.

setup_s is timed from just before the process is started to the end of its
set-up, on the shared monotonic clock.  Exit status is nonzero, with no
result printed, when the run fails or the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env={**os.environ, **SINGLE_THREAD},
                              stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"benchmark run failed with exit status {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = child["metrics"]
    if args.trace == 0:
        metrics = {"setup_s": {"value": child["setup_end"] - spawned, "unit": "s"},
                   **metrics}
    result = {"correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result,
              **{k: child[k] for k in ("rounds", "round_walls", "checks", "failures")}}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
