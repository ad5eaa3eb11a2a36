"""Each output check passes on program output and fails on a corrupted copy.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from currentrep import linalg  # noqa: E402
from currentrep.algebra import AlgebraDescriptor, CurrentElement, get_context  # noqa: E402
from currentrep.meataxe import are_isomorphic, chop, verma_intertwiner  # noqa: E402
from currentrep.modrep import ModuleRep, build_baby_verma, enumerate_lambda  # noqa: E402
from currentrep.pchar import PChar, pchar_from_element  # noqa: E402
from currentrep.suites import SuiteConfig, run_suite  # noqa: E402

from checks import (CheckRound, Structure, induced_module_ok,  # noqa: E402
                    intertwiner_ok, jordan_hoelder_ok, kernel_ok)
from tracer import METRICS, Tracer, layer_metrics  # noqa: E402

SL2 = AlgebraDescriptor("sl", 2, 3, 1)
E = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]])


def flipped(M: ModuleRep, slot=0, i=0, j=1) -> ModuleRep:
    acts = [M.action(k) for k in range(len(M.gens))]
    acts[slot][i, j] = (acts[slot][i, j] + 1) % M.alg.p
    return ModuleRep(M.alg, M.chi, M.gens, acts, weight_tags=M.weight_tags)


@pytest.fixture(scope="module")
def nilpotent_vermas():
    chi = pchar_from_element(E)
    lams = enumerate_lambda(chi)
    return lams, [build_baby_verma(chi, lam) for lam in lams]


def test_are_isomorphic_witness(nilpotent_vermas):
    _lams, (Z0, Z1, _Z2) = nilpotent_vermas
    flag, theta = are_isomorphic(Z0, Z1, seed=4)
    assert flag
    rng = np.random.default_rng(0)
    assert intertwiner_ok(theta, Z0, Z1, rng)
    bad = theta.copy()
    bad[0, 0] = (bad[0, 0] + 1) % 3
    assert not intertwiner_ok(bad, Z0, Z1, rng)
    assert not intertwiner_ok(np.zeros_like(theta), Z0, Z1, rng)   # not invertible


def test_verma_intertwiner_witness(nilpotent_vermas):
    lams, (Z0, Z1, _Z2) = nilpotent_vermas
    theta = verma_intertwiner(Z1, Z0, lams[1])
    rng = np.random.default_rng(1)
    assert intertwiner_ok(theta, Z1, Z0, rng)
    assert not intertwiner_ok(theta, Z1, flipped(Z0, slot=2, i=3, j=4), rng)


def test_build_induced_relations():
    ctx = get_context(SL2)
    structure = Structure(ctx)
    chi = PChar.zero(SL2)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[1])
    rng = np.random.default_rng(2)
    comp = ctx.nminus_indices
    assert induced_module_ok(Z, comp, 1, structure, rng)
    assert not induced_module_ok(Z, comp, 2, structure, rng)            # wrong dimension
    for slot in range(len(Z.gens)):
        assert not induced_module_ok(flipped(Z, slot=slot, i=1, j=2), comp, 1,
                                     structure, rng)


def test_structure_matches_program_bracket():
    from currentrep.algebra import bracket, p_map
    ctx = get_context(AlgebraDescriptor("gl", 2, 3, 2))
    structure = Structure(ctx)
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = rng.integers(0, 3, size=(2, ctx.dim))
        x, y = ctx.from_coords(a), ctx.from_coords(b)
        assert np.array_equal(structure.bracket(x.coeffs, y.coeffs), bracket(x, y).coeffs)
        assert np.array_equal(structure.p_map(x.coeffs), p_map(x).coeffs)
        assert np.array_equal(structure.coords(bracket(x, y).coeffs), ctx.coords(bracket(x, y)))


def test_jordan_hoelder():
    chi = PChar.zero(SL2)
    Z = build_baby_verma(chi, enumerate_lambda(chi)[0])
    series = chop(Z, seed=3)
    assert jordan_hoelder_ok(Z, series, seed=4)
    sid, mult = series.factors[0]
    tampered = replace(series, factors=[(sid, mult + 1)] + series.factors[1:])
    assert not jordan_hoelder_ok(Z, tampered, seed=4)


def test_kernel_annihilates():
    rng = np.random.default_rng(5)
    A = rng.integers(0, 5, size=(7, 12))
    K = linalg.kernel(A, 5)
    assert kernel_ok(A, K, 5)
    bad = K.copy()
    bad[0, 0] = (bad[0, 0] + 1) % 5
    assert not kernel_ok(A, bad, 5)
    assert not kernel_ok(A, K[1:], 5)          # misses part of the null space


def test_check_round_catches_a_faulty_kernel(monkeypatch):
    cfg = SuiteConfig(kind="sl", n=2, p=3, m=1, suite="blocks", seed=7)
    with CheckRound(seed=7) as check:
        rep = run_suite(cfg)
    assert rep.passed and check.attempted > 0 and check.failed == 0

    real = linalg.kernel

    def faulty(a, p):
        out = real(a, p)
        if out.shape[0]:
            out[0, 0] = (out[0, 0] + 1) % p
        return out

    monkeypatch.setattr(linalg, "kernel", faulty)
    check = CheckRound(seed=7)
    monkeypatch.setattr(CheckRound, "KERNEL_RATE", 1.0)
    with check:
        try:
            run_suite(cfg)
        except Exception:
            pass          # the program may trip over its own corrupted kernels
    assert check.failed > 0
    assert linalg.kernel is faulty       # uninstall restored the patched function


def test_tracer_spans_and_restore():
    import currentrep.meataxe as meataxe
    orig_chop = meataxe.chop
    cfg = SuiteConfig(kind="sl", n=2, p=3, m=1, suite="blocks", seed=7)
    tracer = Tracer()
    with tracer:
        run_suite(cfg)
    assert meataxe.chop is orig_chop
    metrics = layer_metrics(tracer, 1, 0.0)
    assert [name for name, _unit in METRICS] == list(metrics)
    assert metrics["meataxe.chop.calls"]["value"] == 3
    assert metrics["meataxe.chop.dim_sum"]["value"] == 27
    assert metrics["meataxe.chop.weight_dim_sum"]["value"] == 27
    assert metrics["suites.blocks.incl_s"]["value"] >= metrics["formulas.blocks.incl_s"]["value"] > 0
    assert metrics["linalg.matmul.self_s"]["value"] > 0
    tot = tracer.totals()
    assert tot["linalg.echelon.self_s"] <= tot["linalg.echelon.incl_s"] + 1e-9
