"""Reports pinned byte for byte.

For a fixed seed a suite must give the same JSON report, apart from the
timing fields.  The files under ``tests/data/reports`` hold
``to_json(drop_millis=True)`` for a few cheap grid points at seeds 7 and 8.
They cover the MeatAxe's random path (word draws, kernel order, spins and
the fresh catalog labels in the semisimple report), the standard-basis
isomorphism test, Verma intertwiners, heads and chops, and the sampled
element checks of the structure, index and reduction suites, so a change
that moves any of them shows up here.  The cartan, partition and kw points
pin the weight modules built from solved weights: induced and torus
projectives, dual and graded Vermas, regular modules, and the sampled
characters that have no weight over F_p.
"""

from pathlib import Path

import pytest

from currentrep.suites import SuiteConfig, run_suite

DATA = Path(__file__).parent / "data" / "reports"
POINTS = [("simples", "gl", 2, 3, 1), ("simples", "sl", 2, 3, 2), ("simples", "gl", 3, 2, 1),
          ("blocks", "sl", 2, 3, 1), ("blocks", "sl", 2, 3, 2),
          ("verma", "sl", 2, 3, 1), ("semisimple", "gl", 2, 2, 1),
          ("structure", "sl", 2, 3, 1), ("structure", "gl", 3, 3, 1),
          ("index", "sl", 2, 3, 1), ("index", "gl", 3, 3, 1),
          ("reduction", "sl", 2, 3, 1), ("reduction", "gl", 3, 3, 1),
          ("cartan", "gl", 2, 2, 1), ("partition", "gl", 3, 3, 1), ("kw", "sl", 2, 5, 1)]


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("suite,kind,n,p,m", POINTS)
def test_report_is_unchanged(suite, kind, n, p, m, seed):
    want = (DATA / f"{suite}-{kind}{n}-p{p}-m{m}-seed{seed}.json").read_text(encoding="utf-8")
    rep = run_suite(SuiteConfig(kind=kind, n=n, p=p, m=m, suite=suite, seed=seed))
    assert rep.to_json(drop_millis=True) == want


def test_index_report_when_a_chunk_holds_no_regular_sample():
    # at seed 3101 the regularity check of index gl3 p3 m1 draws a chunk of
    # samples none of whose degree-0 parts is regular
    want = (DATA / "index-gl3-p3-m1-seed3101.json").read_text(encoding="utf-8")
    rep = run_suite(SuiteConfig(kind="gl", n=3, p=3, m=1, suite="index", seed=3101))
    assert rep.to_json(drop_millis=True) == want
