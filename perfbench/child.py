"""One benchmark run inside a fresh process (started by run.py).

Set-up imports currentrep from the checkout's ``src`` and builds the
LieContext, with its structure tables, of every algebra the workload uses.
Then whole rounds run for ``--seconds``; a round is started only if it
is expected to end in time, and at least one runs.

- ``--trace 0``: untraced rounds; the median wall and CPU time of a round
  and the peak RSS of the process are reported.
- ``--trace 1``: pairs of rounds with the same suite seed, untraced then
  traced; per-layer metrics are per traced round, and ``trace.overhead_s``
  is the mean traced-minus-untraced wall time of a pair.

Last, an untimed check round repeats round 0 with the output checks of
checks.py installed.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, algebras, round_seed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Stop starting rounds once a further one could push the run past this.
HARD_LIMIT_S = 150.0


def cpu_time() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_round(grid, seed):
    from currentrep.suites import SuiteConfig, run_suite
    return [run_suite(SuiteConfig(kind=kind, n=n, p=p, m=m, suite=suite,
                                  seed=seed, samples=samples))
            for suite, kind, n, p, m, samples in grid]


def timed_round(grid, seed):
    c0 = cpu_time()
    t0 = time.perf_counter()
    reports = run_round(grid, seed)
    wall = time.perf_counter() - t0
    return wall, cpu_time() - c0, reports


class Tally:
    """Operations attempted and failed: suite checks (a skip counts as a
    failed check) and the independent output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add_reports(self, reports):
        for rep in reports:
            self.attempted += len(rep.checks) + len(rep.skipped)
            for c in rep.checks:
                if not c.match:
                    self.failed += 1
                    self.failures.append(f"{rep.suite} {rep.config}: {c.claim}")
            for s in rep.skipped:
                self.failed += 1
                self.failures.append(f"{rep.suite} {rep.config}: skipped {s['claim']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    began = time.perf_counter()

    if not (SRC / "currentrep" / "__init__.py").is_file():
        print(f"currentrep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from currentrep.algebra import AlgebraDescriptor, get_context
    for kind, n, p, k in algebras(args.workload):
        ctx = get_context(AlgebraDescriptor(kind, n, p, k))
        ctx.bracket_coords, ctx.pmap_coords, ctx.gram_matrix
    setup_end = time.perf_counter()

    grid = WORKLOADS[args.workload]
    tally = Tally()
    walls, cpus, overheads = [], [], []
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    longest = 0.0
    r = 0
    while True:
        began_round = time.perf_counter()
        seed = round_seed(args.seed, r)
        wall, cpu, reports = timed_round(grid, seed)
        tally.add_reports(reports)
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            with tracer:
                twall, _cpu, reports = timed_round(grid, seed)
            tally.add_reports(reports)
            overheads.append(twall - wall)
        r += 1
        # start another round only if one as long as the longest so far
        # still ends within --seconds
        now = time.perf_counter()
        longest = max(longest, now - began_round)
        if (now - start + longest > args.seconds
                or now - began + 2.5 * longest > HARD_LIMIT_S):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import CheckRound
    with CheckRound(round_seed(args.seed, 0)) as check:
        tally.add_reports(run_round(grid, round_seed(args.seed, 0)))
    tally.attempted += check.attempted
    tally.failed += check.failed
    tally.failures += check.failures

    if tracer is not None:
        from tracer import layer_metrics
        metrics = layer_metrics(tracer, r, sum(overheads) / len(overheads))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "setup_end": setup_end, "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures[:20], "rounds": r, "round_walls": walls,
        "checks": {f"{name} {'ok' if ok else 'FAIL'}": n
                   for (name, ok), n in sorted(check.results.items())},
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
