import numpy as np
import pytest

from currentrep import formulas, modrep
from currentrep.algebra import AlgebraDescriptor, CurrentElement
from currentrep.errors import FormulaDomainError, OutOfScope
from currentrep.formulas import (blocks, cartan_formula, cartan_matrix_formula,
                                 classify_simples_homogeneous,
                                 kostant_table, kw_scan, l_constants,
                                 pm_shift_sum, semisimple_character_audit,
                                 verma_mult_formula)
from currentrep.modrep import LambdaWeight
from currentrep.pchar import PChar, pchar_from_element
from currentrep.suites import SuiteConfig, run_suite

SL2 = AlgebraDescriptor("sl", 2, 3, 1)


@pytest.fixture(scope="module")
def lc_sl2():
    return l_constants(SL2, seed=3)


def test_kostant_table_sl2():
    T = kostant_table(SL2)
    assert T((0, 0)) == 1 and T((2, 0)) == 1 and T((4, 0)) == 1
    assert T((1, 0)) == 0 and T((6, 0)) == 0
    assert T.total_mass == 3


def test_kostant_m0_trivial():
    T = kostant_table(AlgebraDescriptor("sl", 2, 3, 0))
    assert T.table == {(0, 0): 1}
    assert kostant_table(AlgebraDescriptor("sl", 2, 3, 0))((0, 0)) == 1


def test_shift_sum_sl2():
    T = kostant_table(SL2)
    assert pm_shift_sum((0, 0), SL2, T)[0] == 1
    assert pm_shift_sum((1, 0), SL2, T)[0] == 1
    alg2 = AlgebraDescriptor("sl", 2, 3, 2)
    T2 = kostant_table(alg2)
    for g in [(0, 0), (1, 0), (2, 0), (5, 0)]:
        assert pm_shift_sum(g, alg2, T2)[0] == 3


def test_shift_sum_constants_gl():
    g3 = AlgebraDescriptor("gl", 3, 3, 1)
    T = kostant_table(g3)
    val, paper, corr = pm_shift_sum((0, 0, 0), g3, T)
    assert (paper, corr) == (1, 3)
    assert val == corr  # the z-corrected constant is the true one
    off = pm_shift_sum((1, 0, 0), g3, T)[0]
    assert off == 0  # nontrivial central character


def test_l_constants_sl2(lc_sl2):
    assert sorted(lc_sl2.values.items()) == [((0,), 2), ((1,), 2), ((2,), 1)]
    assert sorted(lc_sl2.dims.items()) == [((0,), 1), ((1,), 2), ((2,), 3)]
    assert lc_sl2.mass() == 9


def test_l_constants_sl2_p5():
    lc = l_constants(AlgebraDescriptor("sl", 2, 5, 1), seed=3)
    assert sorted(l for _w, l in lc.values.items()) == [1, 2, 2, 2, 2]
    assert lc.mass() == 25


def test_l_constants_build_each_verma_once(monkeypatch):
    built = []

    def counting(chi, lam, *args, **kwargs):
        built.append(lam.degree_zero)
        return modrep.build_baby_verma(chi, lam, *args, **kwargs)

    monkeypatch.setattr(formulas, "build_baby_verma", counting)
    lc = l_constants(AlgebraDescriptor("sl", 2, 5, 1), seed=3)
    assert sorted(built) == sorted(lc.values) and len(built) == 5
    assert sorted(l for _w, l in lc.values.items()) == [1, 2, 2, 2, 2]


def test_verma_mult_formula(lc_sl2):
    lams = [LambdaWeight.from_degree_zero((w,), SL2) for w in (0, 1, 2)]
    for lam in lams:
        got = [verma_mult_formula(lam, mu, SL2, lc_sl2) for mu in lams]
        assert got == [2, 2, 1]
    # dimension audit: sum mult * dim L = dim Z
    assert sum(verma_mult_formula(lams[0], mu, SL2, lc_sl2) * lc_sl2.dims[mu.degree_zero]
               for mu in lams) == 9
    # m=2: multiplicities scale by p
    alg2 = AlgebraDescriptor("sl", 2, 3, 2)
    lc2 = l_constants(alg2, seed=3)
    lam2 = LambdaWeight.from_degree_zero((0,), alg2)
    mus = [LambdaWeight.from_degree_zero((w,), alg2) for w in (0, 1, 2)]
    assert [verma_mult_formula(lam2, mu, alg2, lc2) for mu in mus] == [6, 6, 3]


def test_cartan_formula(lc_sl2):
    lams = [LambdaWeight.from_degree_zero((w,), SL2) for w in (0, 1, 2)]
    assert cartan_formula(lams[0], lams[0], SL2, lc_sl2) == 36
    assert cartan_formula(lams[2], lams[2], SL2, lc_sl2) == 9
    M = cartan_matrix_formula(SL2, lc_sl2)
    assert np.array_equal(M.entries, M.entries.T)
    # regular-module audit targets
    audit = [sum(lc_sl2.dims[w1] * cartan_formula(
        LambdaWeight.from_degree_zero(w1, SL2), mu, SL2, lc_sl2)
        for w1 in sorted(lc_sl2.values)) for mu in lams]
    assert audit == [162, 162, 81]
    assert sum(a * d for a, d in zip(audit, [1, 2, 3])) == 729
    tsv = M.to_tsv()
    assert tsv.count("\n") == 3


def test_cartan_m0_degeneration():
    # the closed form needs m >= 1 (negative exponent at m=0); at m=0 the
    # reciprocity chain gives c_{λμ} = Σ_ν [Z(ν):L(λ)][Z(ν):L(μ)], which the
    # regular-module decomposition confirms
    alg0 = AlgebraDescriptor("sl", 2, 3, 0)
    lc0 = l_constants(alg0, seed=3)
    lams = [LambdaWeight.from_degree_zero((w,), alg0) for w in (0, 1, 2)]
    with pytest.raises(FormulaDomainError):
        cartan_formula(lams[0], lams[0], alg0, lc0)
    from currentrep.meataxe import chop
    from currentrep.modrep import build_baby_verma, build_regular_module
    chi0 = PChar.zero(alg0)
    mult = {}
    for lam in lams:
        series = chop(build_baby_verma(chi0, lam), seed=3, catalog=lc0.catalog)
        mult[lam.degree_zero] = {w: series.multiplicity(lc0.label_of[w])
                                 for w in lc0.values}
    chain = {}
    for w1 in lc0.values:
        for w2 in lc0.values:
            chain[(w1, w2)] = sum(mult[nu][w1] * mult[nu][w2] for nu in lc0.values)
    U = build_regular_module(chi0)
    series = chop(U, seed=3, catalog=lc0.catalog)
    for w2 in lc0.values:
        expected = sum(lc0.dims[w1] * chain[(w1, w2)] for w1 in lc0.values)
        assert series.multiplicity(lc0.label_of[w2]) == expected


def test_classification_gl3():
    g3 = AlgebraDescriptor("gl", 3, 3, 1)
    reg = CurrentElement.from_matrix(g3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    cls = classify_simples_homogeneous(pchar_from_element(reg))
    assert cls.class_count == cls.predicted_count == 3
    assert all(len(c) == 9 for c in cls.classes)
    e12 = CurrentElement.from_matrix(g3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    cls2 = classify_simples_homogeneous(pchar_from_element(e12))
    assert cls2.class_count == cls2.predicted_count == 9
    assert all(len(c) == 3 for c in cls2.classes)


def test_classification_sl2_one_class():
    e = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]])
    cls = classify_simples_homogeneous(pchar_from_element(e))
    assert cls.class_count == 1 and cls.predicted_count == 1


def test_classification_rejects_inhomogeneous():
    e = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]])
    et = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]], 1)
    with pytest.raises(OutOfScope):
        classify_simples_homogeneous(pchar_from_element(e + et))
    with pytest.raises(OutOfScope):
        classify_simples_homogeneous(PChar.zero(SL2))


def test_blocks_sl2():
    bp = blocks(SL2, seed=4)
    assert bp.count == 1
    assert bp.predicted_remark == 1


def test_blocks_torus_free():
    # torus-only check goes through the projective covers: no linkage at all
    from currentrep.meataxe import chop
    from currentrep.modrep import build_torus_projective, enumerate_lambda
    chi0 = PChar.zero(SL2)
    sims = set()
    for lam in enumerate_lambda(chi0):
        Q = build_torus_projective(chi0, lam)
        series = chop(Q, seed=4)
        assert len(series.factors) == 1
        assert series.factors[0][1] == 3  # multiplicity p^{m r}
        sims.add(lam.degree_zero)
    assert len(sims) == 3  # p^r one-dimensional simples, no shared factors


def test_semisimple_audit():
    audit = semisimple_character_audit(SL2, seed=5)
    assert audit.ok
    assert audit.simple_count == 3
    assert audit.simple_dims == [9, 9, 9]
    assert audit.projective_dim == 27
    assert audit.projective_factors is not None
    assert audit.projective_skip is None


def test_projective_dimension_skip_is_reported():
    # the 27-dim induced projective exceeds a limit of 20: the suite must
    # say so instead of dropping the check
    from currentrep.suites import SuiteConfig, run_suite
    rep = run_suite(SuiteConfig("sl", 2, 3, 1, suite="semisimple", seed=7, limit=20))
    skipped = {s["claim"]: s["reason"] for s in rep.skipped}
    reason = skipped["projective dimension over the regular toral character"]
    assert "exceeds limit 20" in reason
    assert not any("projective dimension" in c.claim for c in rep.checks)


def test_kw_scan_small():
    report = kw_scan(SL2, samples=25, seed=6, regular_limit=800, full_chop_budget=2)
    assert report.kw1_bound == 9
    assert report.max_simple_dim == 9
    assert report.kw1_attained
    assert report.kw2_violations == []


def test_kw_suite_builds_no_module_above_its_limit(monkeypatch):
    # at sl2 p3 m1 the scan's regular route would build the 729-dim module
    built = []
    build = modrep.build_induced

    def recording(chi, comp, base, limit=modrep.DEFAULT_LIMIT):
        out = build(chi, comp, base, limit)
        built.append(out.dim)
        return out

    monkeypatch.setattr(modrep, "build_induced", recording)
    rep = run_suite(SuiteConfig("sl", 2, 3, 1, suite="kw", seed=7, samples=6, limit=100))
    assert built and max(built) <= 100
    assert rep.checks


def test_composition_sum_law_for_zproj():
    # [Z_proj : L] = Σ_μ (Z_proj : Z(μ)) [Z(μ) : L], with the filtration
    # multiplicities δ_{λμ} p^{m r}
    from currentrep.meataxe import SimpleCatalog, chop, head
    from currentrep.modrep import (build_baby_verma, build_Zproj,
                                   enumerate_lambda, inflate)
    alg0 = AlgebraDescriptor("sl", 2, 3, 0)
    chi0s = PChar.zero(alg0)
    cat = SimpleCatalog(seed=8)
    labels = {}
    for lam in enumerate_lambda(chi0s):
        L = head(build_baby_verma(chi0s, lam), seed=8)
        labels[lam.degree_zero] = cat.match(inflate(L, 1), f"L{lam.degree_zero}")
    chi = PChar.zero(SL2)
    for lam in enumerate_lambda(chi):
        Zp = build_Zproj(chi, lam)
        series = chop(Zp, seed=8, catalog=cat)
        Z = build_baby_verma(chi, lam)
        zser = chop(Z, seed=8, catalog=cat)
        for w, sid in labels.items():
            assert series.multiplicity(sid) == 3 * zser.multiplicity(sid)


def test_are_isomorphic_equivalence_spot_checks():
    from currentrep.meataxe import are_isomorphic
    from currentrep.modrep import build_baby_verma, enumerate_lambda
    from currentrep.algebra import CurrentElement
    e = CurrentElement.from_matrix(SL2, [[0, 1], [0, 0]])
    chi = pchar_from_element(e)
    mods = [build_baby_verma(chi, lam) for lam in enumerate_lambda(chi)]
    # reflexive, symmetric, transitive on the three simple Vermas
    assert are_isomorphic(mods[0], mods[0], seed=9)[0]
    ab = are_isomorphic(mods[0], mods[1], seed=9)[0]
    ba = are_isomorphic(mods[1], mods[0], seed=9)[0]
    bc = are_isomorphic(mods[1], mods[2], seed=9)[0]
    ac = are_isomorphic(mods[0], mods[2], seed=9)[0]
    assert ab == ba
    assert not (ab and bc) or ac
