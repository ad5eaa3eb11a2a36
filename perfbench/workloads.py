"""The benchmark's workloads: grids of (suite, kind, n, p, m, samples).

A round runs every grid point of one workload through
``currentrep.suites.run_suite`` with one suite seed.  Round r of a run with
seed s uses suite seed ``s + 1000 r``, so round 0 of seed 7 is the
acceptance configuration.  Why each workload exists is in README.md.
"""

from __future__ import annotations

WORKLOADS = {
    # C9 path on weight modules: blocks chops every baby Verma at chi = 0
    # (243-dim for sl2 p3 m4, 125-dim on the central slice of gl2 p5 m2).
    "weight_chop": [
        ("blocks", "sl", 2, 3, 4, 200),
        ("blocks", "gl", 2, 5, 2, 200),
    ],
    # C5 path at the regular nilpotent character: class count, Verma
    # intertwiners, irreducibility, heads and isomorphism tests (81-dim).
    "identify": [
        ("simples", "gl", 2, 3, 3, 200),
    ],
    # C1, C2, C8, C10 and C11 grids of tests/test_acceptance.py.
    "elements": (
        [("structure", *a, 200) for a in [
            ("sl", 2, 3, 0), ("sl", 2, 3, 1), ("sl", 2, 3, 2), ("sl", 2, 5, 0),
            ("sl", 2, 5, 1), ("sl", 2, 5, 2), ("gl", 3, 2, 1), ("gl", 3, 3, 1),
            ("gl", 3, 5, 1)]]
        + [("index", *a, 200) for a in [
            ("sl", 2, 3, 0), ("sl", 2, 3, 1), ("sl", 2, 3, 2), ("sl", 2, 5, 0),
            ("sl", 2, 5, 1), ("sl", 2, 5, 2), ("gl", 3, 3, 1)]]
        + [("reduction", *a, 200) for a in [
            ("sl", 2, 3, 1), ("sl", 2, 3, 2), ("sl", 2, 5, 1), ("sl", 2, 5, 2),
            ("gl", 3, 3, 1)]]
        + [("partition", *a, 200) for a in [
            ("sl", 2, 3, 1), ("sl", 2, 3, 2), ("sl", 2, 5, 1), ("sl", 2, 5, 2),
            ("sl", 3, 2, 1), ("gl", 3, 3, 1)]]
        + [("invariants", *a, 200) for a in [("sl", 2, 3, 1), ("gl", 2, 2, 1)]]
    ),
}


def round_seed(seed: int, r: int) -> int:
    return seed + 1000 * r


def algebras(name: str):
    """(kind, n, p, k) of every algebra a workload touches, truncations included."""
    out = []
    for _suite, kind, n, p, m, _samples in WORKLOADS[name]:
        for k in range(m + 1):
            if (kind, n, p, k) not in out:
                out.append((kind, n, p, k))
    return out
